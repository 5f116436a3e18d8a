"""One benchmark pass in a fresh process.

Run by ``run.py`` as ``python3 perfbench/child.py <plan-json>`` from the
repository root, with ``PYTHONPATH=src`` and the BLAS thread count pinned
to 1.  The child imports ``foguel.cli``, then calls ``foguel.cli.main`` once
per planned subcommand with ``--out`` set to a file, and prints one JSON
line: the ``perf_counter`` reading at which it was ready (the parent took
one at spawn; on Linux both read CLOCK_MONOTONIC), each call's exit code,
seconds, report digest and trial verdicts, the environment block, and in a
traced pass the per-layer aggregates.  A probe plan stops once ready.
"""

import hashlib
import json
import os
import platform
import sys
import time

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _warm_numpy(np) -> None:
    """Run each LAPACK/BLAS path once so lazy set-up is not billed to a call."""
    a = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
    np.linalg.eigvalsh(a)
    np.linalg.eigh(a)
    np.linalg.svd(a)
    np.linalg.qr(a)
    np.linalg.solve(a, np.eye(2))
    a @ a


def _inspect(call: dict, rc, seconds: float, path: str) -> dict:
    """Digest and verdicts of one report; ``rc`` is the exit code or an error text."""
    out = {"name": call["name"], "trials": call["trials"], "rc": rc, "seconds": seconds}
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError:
        return {**out, "sha256": None, "bytes": 0, "failed_records": None, "aggregate_ok": False}
    digest = {"sha256": hashlib.sha256(payload).hexdigest(), "bytes": len(payload)}
    try:
        lines = [json.loads(line) for line in payload.decode("utf-8").splitlines()]
        records, aggregate = lines[:-1], lines[-1]
    except (ValueError, IndexError):
        return {**out, **digest, "failed_records": None, "aggregate_ok": False}
    return {
        **out,
        **digest,
        "failed_records": sum(1 for r in records if r.get("pass") is not True),
        "aggregate_ok": aggregate.get("trial") == "aggregate"
        and aggregate.get("pass") is True
        and aggregate.get("pass_count") == call["trials"] == aggregate.get("trials")
        and len(records) == call["trials"],
    }


def _environment(np) -> dict:
    blas = lapack = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '?')}"
        lapack = f"{deps['lapack']['name']} {deps['lapack'].get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "lapack": lapack,
        "python": platform.python_version(),
        **{key: os.environ.get(key) for key in PINNED},
    }


def main() -> int:
    plan = json.loads(sys.argv[1])
    unpinned = [key for key in PINNED if os.environ.get(key) != "1"]
    if unpinned:
        print(f"perfbench child: BLAS threads not pinned to 1: {unpinned}", file=sys.stderr)
        return 4

    import numpy as np

    import foguel
    import foguel.cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(foguel.__file__).startswith(src + os.sep):
        print(f"perfbench child: foguel imported from {foguel.__file__}, not {src}", file=sys.stderr)
        return 4
    _warm_numpy(np)
    ready = time.perf_counter()
    if not plan["calls"]:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        leftovers = spans.install(tracer)
        if leftovers:
            print(f"perfbench child: unwrapped bindings remain: {leftovers}", file=sys.stderr)
            return 5

    calls = []
    for call in plan["calls"]:
        path = os.path.join(plan["workdir"], f"{call['name']}.report")
        argv = call["argv"] + ["--out", path]
        if os.path.exists(path):
            os.remove(path)  # a crashed call must not leave the last pass's report
        started = time.perf_counter()
        try:
            rc = foguel.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            rc = exc.code
        except Exception as exc:  # a crash fails this call's trials, not the pass
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        calls.append(_inspect(call, rc, seconds, path))

    result = {"ready": ready, "calls": calls, "env": _environment(np)}
    if tracer is not None:
        result["layers"] = spans.aggregate(tracer.spans)
        spans.dump(tracer.spans, os.path.join(plan["workdir"], "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
