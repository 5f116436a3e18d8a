"""Benchmark for the ``foguel`` verifier: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload small-many --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload large-few --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run spawns fresh child processes (``child.py``) with ``PYTHONPATH=src`` and
every BLAS thread count pinned to 1.  Each child is one pass: it imports
``foguel.cli`` and calls ``foguel.cli.main`` once per subcommand of the
workload.  Passes repeat until ``--seconds`` have been measured; metrics are
medians over passes.  ``setup_s`` also samples a few children that only
import.  Every call is checked: exit code 0, an aggregate line with
``pass: true`` and ``pass_count == trials``, and the same report SHA-256 on
every pass.  A miss fails all trials of that call.

``--trace 1`` alternates untraced and traced passes.  The traced passes
wrap the package's public functions (``spans.py``) and report per-layer
calls and self times; their report digests must equal the untraced ones,
and ``trace.overhead_s`` is traced minus untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment block, each metric with its unit, ``fail_frac`` and
any missed check.  ``--record FILE`` also appends the result with its
workload, seed and environment to FILE, and ``--compare A B`` reads two
such files and prints, per workload and metric, both medians, quartiles
and their ratio; it reports and never gates.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
from child import PINNED
from workloads import SUBCOMMANDS, WORKLOADS, invocations

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKDIR = ".perfbench_work"

#: Import-only children per run, on top of the passes, for the set-up median.
SETUP_PROBES = 10
#: A run stops starting passes once it could no longer finish in this many seconds.
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    **{f"trial_ms.{name}": "ms" for name in SUBCOMMANDS},
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED, "1"))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _spawn(root: str, plan: dict, deadline: float) -> dict:
    """Run one child to completion; add its set-up seconds to its result."""
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(plan)],
            cwd=root,
            env=_child_env(root),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass did not finish within the time limit: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repo."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _check_calls(passes: list, workload: str) -> tuple:
    """Gate every call of every pass; return (attempted, failed, misses)."""
    reference = {}
    attempted = failed = 0
    misses = []
    for number, result in enumerate(passes):
        for call in result["calls"]:
            name, trials = call["name"], call["trials"]
            attempted += trials
            reference.setdefault(name, call["sha256"])
            problem = None
            if call["rc"] != 0:
                problem = f"exit code {call['rc']}"
            elif call["sha256"] is None:
                problem = "no report written"
            elif call["sha256"] != reference[name]:
                problem = "report bytes differ from the first pass"
            elif not call["aggregate_ok"]:
                problem = "aggregate line is not pass with pass_count == trials"
            if problem is None and call["failed_records"]:
                problem = f"{call['failed_records']} trial(s) with pass: false"
                failed += call["failed_records"]
            elif problem is not None:
                failed += trials
            if problem is not None:
                traced = " (traced)" if result.get("layers") is not None else ""
                misses.append(f"{workload} pass {number}{traced} {name}: {problem}")
    return attempted, failed, misses


def _wall(passes: list) -> float:
    """Median over passes of the summed seconds of a pass's cli.main calls."""
    return statistics.median(sum(c["seconds"] for c in p["calls"]) for p in passes)


def _end_to_end(passes: list, setups: list) -> dict:
    values = {"setup_s": statistics.median(setups), "wall_s": _wall(passes)}
    for name in SUBCOMMANDS:
        values[f"trial_ms.{name}"] = statistics.median(
            1e3 * c["seconds"] / c["trials"] for p in passes for c in p["calls"] if c["name"] == name
        )
    # Linux reports ru_maxrss in KiB: the largest child of this run
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _per_layer(traced: list, untraced: list, workload: str, misses: list) -> dict:
    units = {m["name"]: m["unit"] for m in layers.per_layer_metrics()}
    metrics = {}
    for name in units:
        if name == "trace.overhead_s":
            value = _wall(traced) - _wall(untraced)
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": units[name]}
    for row in layers.ROWS:
        if workload in row.workloads and metrics[f"{row.span}.calls"]["value"] == 0:
            misses.append(f"{workload} coverage: {row.span} was never called")
    return metrics


def run(root: str, workload: str, seed: int, seconds: float, trace: bool, *, smoke=False, probes=SETUP_PROBES) -> dict:
    """Measure one workload: the result object, environment block, misses and pass count."""
    hard_deadline = time.perf_counter() + TIME_LIMIT_S
    workdir = os.path.join(root, WORKDIR)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    src = os.path.join(root, "src")
    calls = invocations(workload, seed, smoke=smoke)

    probe = {"src": src, "workdir": workdir, "trace": False, "calls": []}
    _spawn(root, probe, hard_deadline)  # unmeasured: fills the bytecode and page caches
    setups = [_spawn(root, probe, hard_deadline)["setup_s"] for _ in range(probes)]

    passes = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        plan = {"src": src, "workdir": workdir, "trace": traced, "calls": calls}
        begun = time.perf_counter()
        result = _spawn(root, plan, hard_deadline)
        took = time.perf_counter() - begun
        passes.append(result)
        setups.append(result["setup_s"])
        now = time.perf_counter()
        balanced = not trace or len(passes) % 2 == 0
        if balanced and (now - started >= seconds or now + 2.5 * took > hard_deadline):
            break

    attempted, failed, misses = _check_calls(passes, workload)
    if trace:
        traced = [p for p in passes if p.get("layers") is not None]
        untraced = [p for p in passes if p.get("layers") is None]
        metrics = _per_layer(traced, untraced, workload, misses)
    else:
        metrics = _end_to_end(passes, setups)

    # child.py exits with an error before importing numpy unless every pin is 1
    env = dict(passes[0]["env"], nproc=os.cpu_count(), git_commit=_git_commit(root))
    result = {
        "correct": failed == 0 and not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "env": env, "misses": misses, "passes": len(passes)}


def _print_run(outcome: dict, workload: str, seed: int, trace: bool) -> None:
    result = outcome["result"]
    print("env " + json.dumps(outcome["env"], sort_keys=True))
    print(f"workload {workload} seed {seed} trace {int(trace)} passes {outcome['passes']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  fail_frac {fail_frac:.6g} ratio ({result['failed']} of {result['attempted']} trials)")
    for miss in outcome["misses"]:
        print(f"  miss: {miss}")


# --- --compare ---------------------------------------------------------------


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _load_records(path: str) -> dict:
    """(workload, trace) -> metric -> (unit, [values]) from a --record file."""
    grouped = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            for name, metric in record["result"]["metrics"].items():
                unit, values = grouped.setdefault(key, {}).setdefault(name, (metric["unit"], []))
                values.append(metric["value"])
    return grouped


def compare(path_a: str, path_b: str) -> int:
    """Print both medians, quartiles, spreads and the ratio B/A for each metric."""
    a, b = _load_records(path_a), _load_records(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print("workload trace metric unit | A: n q1 median q3 spread | B: n q1 median q3 spread | B/A")
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        for name in a[key]:
            if name not in b[key]:
                continue
            unit, va = a[key][name]
            _, vb = b[key][name]
            qa, qb = _quartiles(va), _quartiles(vb)
            cells = []
            for values, (q1, med, q3) in ((va, qa), (vb, qb)):
                spread = (q3 - q1) / med if med else float("nan")
                cells.append(f"{len(values)} {q1:.6g} {med:.6g} {q3:.6g} {spread:.3f}")
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{workload} {trace} {name} {unit} | {cells[0]} | {cells[1]} | {ratio:.4f}")
    for key in sorted(set(a) ^ set(b)):
        print(f"only in {'A' if key in a else 'B'}: workload {key[0]} trace {key[1]}")
    return 0


# --- --smoke -------------------------------------------------------------------


def smoke(root: str) -> int:
    """Shrunk run of every workload, traced and untraced; check names and units."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    problems = []
    if declared["per_layer"] != layers.per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from layers.per_layer_metrics()")
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            outcome = run(root, workload, 1, 0.0, bool(trace), smoke=True, probes=1)
            result = outcome["result"]
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {outcome['misses']}")
            print(f"smoke {workload} trace {trace}: {len(emitted)} metrics, correct={result['correct']}")
    for problem in problems:
        print(f"smoke problem: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --record files")
    parser.add_argument("--smoke", action="store_true", help="shrunk self-check of every metric")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "foguel", "cli.py")):
        print("perfbench: src/foguel/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
        if not 0 <= args.seed < 2**64:
            parser.error("--seed must be a 64-bit unsigned integer")
        outcome = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    _print_run(outcome, args.workload, args.seed, bool(args.trace))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            record = {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "seconds": args.seconds,
                "env": outcome["env"],
                "result": outcome["result"],
            }
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
