"""pairspec benchmark: the CLI end to end on three workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py            # every workload, one process each

Run it from the root of a pairspec checkout.  Each workload is a closed
loop with one caller: this process runs ``pairspec.cli.main`` in-process
through click's test runner, one command after another, in whole rounds,
stopping before a round that would end past ``--seconds``.  Every
command's output is checked by
``checks.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Inputs are deterministic constructions; ``--seed`` is accepted but changes
no input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import checks
import workloads
from checks import CheckFailed
from layertrace import PER_LAYER, Tracer

WORKLOADS = ("catalog", "lattice", "scan")
SETUP_REPEATS = 5
OUT_DIR = os.path.join("perfbench", "_out")
SRC = "src"


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
        h.update(b"\0")
    return h.hexdigest()


def _file_digest(path: str) -> bytes:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).digest()


class Checker:
    """Checks each command's output once per distinct (command, output,
    input files); a repeat of an output already checked in this run is
    recognised by its digest."""

    def __init__(self):
        self.tables = {}
        self.principals = {}
        self.memo = {}

    def _tables(self, name: str):
        if name not in self.tables:
            self.tables[name] = checks.load_tables(workloads.path(name))
        return self.tables[name]

    def _principals(self, name: str):
        if name not in self.principals:
            self.principals[name] = checks.principal_congruences(self._tables(name))
        return self.principals[name]

    def check(self, cmd: workloads.Command, stdout: str, exit_code: int):
        """Summary of a correct output; raises CheckFailed otherwise."""
        text = checks.RUNTIME_FIELD.sub('"runtime": 0', stdout) if cmd.kind == "verify" \
            else stdout
        files = [workloads.path(cmd.pair)]
        if cmd.kind == "construct":
            files.append(workloads.path(f"double_{cmd.pair}"))
        key = _digest(repr(cmd.args).encode(), text.encode(), str(exit_code).encode(),
                      *(_file_digest(f) for f in files))
        if key not in self.memo:
            self.memo[key] = self._check(cmd, stdout, exit_code)
        return self.memo[key]

    def _check(self, cmd, stdout, exit_code):
        if cmd.kind == "construct":
            checks.require(exit_code == 0, f"exit code {exit_code}")
            out_path = workloads.path(f"double_{cmd.pair}")
            checks.require(stdout == out_path + "\n", "construct did not name its output file")
            doubled = checks.load_tables(out_path)
            self.tables[f"double_{cmd.pair}"] = doubled
            checks.check_double(self._tables(cmd.pair), doubled)
            return None
        checks.require(exit_code == 0 or cmd.kind == "verify", f"exit code {exit_code}")
        out = json.loads(stdout)
        t = self._tables(cmd.pair)
        if cmd.kind == "validate":
            return checks.check_validate(t, out)
        if cmd.kind == "congruences":
            return checks.check_congruences(t, out, self._principals(cmd.pair))
        if cmd.kind == "spectrum":
            return checks.check_spectrum(t, out, self._principals(cmd.pair))
        checks.check_verify(t, out, exit_code, "--all" in cmd.args,
                            workloads.EXPECTED_FAILURES.get(cmd.pair, frozenset()))
        return None


def measure_setup() -> float:
    """Median over fresh processes of start to ready: interpreter start,
    imports and writing the input files."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "run.py"), "--setup-only"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup process failed with exit code {code}")
        times.append(dt)
    return statistics.median(times)


def run_workload(name: str, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup()

    from click.testing import CliRunner
    from pairspec import cli

    runner = CliRunner()
    commands = workloads.rounds(workloads.write_inputs(runner))[name]
    checker = Checker()
    tracer = Tracer() if trace else None
    invoke = runner.invoke
    if tracer is not None:
        tracer.install()
        spans = {k: tracer.span(f"cli.{k}", invoke) for k in {c.kind for c in commands}}

    round_walls, per_round, attempted, failures, problems = [], [], 0, [], []
    start = time.perf_counter()
    elapsed = last_round = 0.0
    # whole rounds only; stop before a round that would end past `seconds`
    while not round_walls or elapsed + last_round <= seconds:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        wall = 0.0
        sets = {}
        for cmd in commands:
            call = spans[cmd.kind] if tracer is not None else invoke
            t0 = time.perf_counter()
            result = call(cli.main, list(cmd.args))
            wall += time.perf_counter() - t0
            attempted += 1
            if result.exception is not None and not isinstance(result.exception, SystemExit) \
                    or result.exit_code not in (0, 3):
                failures.append(f"{' '.join(cmd.args)}: exit {result.exit_code} "
                                f"{result.exception!r}")
                continue
            try:
                summary = checker.check(cmd, result.stdout, result.exit_code)
            except (CheckFailed, IndexError, KeyError, TypeError, ValueError) as exc:
                problems.append(f"{' '.join(cmd.args)}: {type(exc).__name__}: {exc}")
                continue
            if cmd.kind in ("congruences", "spectrum"):
                sets.setdefault(cmd.pair, []).append(summary)
        for pair, found in sets.items():
            if len(set(found)) > 1:
                problems.append(f"{pair}: congruences and spectrum list different lattices")
        round_walls.append(wall)
        last_round = time.perf_counter() - round_start
        elapsed = time.perf_counter() - start
        if tracer is not None:
            per_round.append({**tracer.metrics(), "trace.wall_s": wall})

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        metrics = {k: statistics.median(r[k] for r in per_round) for k in PER_LAYER}
        _write_trace(name, tracer, per_round)
    else:
        metrics = {"wall_s": statistics.median(round_walls), "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
    for p in dict.fromkeys(failures + problems):
        print(f"{name}: {p}", file=sys.stderr)
    print(f"{name}: {len(round_walls)} rounds of {len(commands)} commands, "
          f"round wall times {', '.join(f'{w:.3f}' for w in round_walls)} s")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def _write_trace(name: str, tracer: Tracer, per_round: list) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    paths = sorted(tracer.paths.items(), key=lambda kv: -kv[1][2])
    with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name,
            "rounds": per_round,
            "spans_by_path": [
                {"path": " > ".join(p), "calls": c, "total_s": tot, "self_s": slf}
                for p, (c, tot, slf) in paths
            ],
        }, fh, indent=1)


def run_all(args) -> int:
    """Each workload in its own process, then a table of every metric."""
    results = {}
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in WORKLOADS:
        r, t = results[(name, 0)], results[(name, 1)]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
        for k, m in r["metrics"].items():
            print(f"  {k:<12} {m['value']:12.4f} {m['unit']}")
        overhead = t["metrics"]["trace.wall_s"]["value"] - r["metrics"]["wall_s"]["value"]
        print(f"  tracing overhead {overhead:+.4f} s per round")
    os.makedirs(OUT_DIR, exist_ok=True)
    summary = {f"{n}{'.trace' if tr else ''}": r for (n, tr), r in results.items()}
    with open(os.path.join(OUT_DIR, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pairspec", "cli.py")):
        print("perfbench: run from the root of a pairspec checkout "
              "(src/pairspec/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))
    # pin the program's congruence cap to its default
    os.environ.pop("PAIRSPEC_MAX_CONGRUENCES", None)

    if args.setup_only:
        from click.testing import CliRunner
        workloads.write_inputs(CliRunner())
        print("ready", flush=True)
        return 0
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
