"""qmatch pretraining benchmark.

    python3 bench/run.py --workload qmatch_small --seed 1 --seconds 8 --trace 0

Runs one workload (``--workload all`` runs each one after the other, each in
its own process) on synthetic data made from ``--seed``, checks the outputs and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run additionally
repeats one round with every qmatch layer wrapped in spans and reports the
per-layer metrics, the tracing overhead and the tensor-op microbenchmarks.
Lines before the last one give machine facts and a readable summary,
including error_rate (failed / attempted operations).

The benchmark imports qmatch from the ``src`` directory next to this one and
writes only under ``.bench_work`` in the same checkout.  BLAS may use at most
as many threads as the process has CPUs; a larger thread setting is refused.
``qmatch_paper`` peaks near 5 GB of memory, so workloads never run at once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MEMORY_NOTE = ("qmatch_paper needs about 5 GB of memory; run workloads one at a time, "
               "never side by side")


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def limit_blas_threads(nproc: int):
    """Refuse thread settings above nproc; default OpenBLAS to nproc threads.

    Must run before numpy is imported."""
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is None:
            continue
        if not value.isdigit() or int(value) > nproc:
            fail(f"{var}={value!r} asks for more BLAS threads than the {nproc} CPUs "
                 "available (or is not a number)")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))


def import_qmatch():
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    try:
        import qmatch
    except ImportError as e:
        fail(f"cannot import qmatch from {ROOT / 'src'}: {e}")
    if not Path(qmatch.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"qmatch resolved to {qmatch.__file__}, not this checkout's src/")


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nproc: int) -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": nproc, "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "numpy": np.__version__,
            "python": platform.python_version(), "total_memory_mb": mem // 2**20,
            "note": MEMORY_NOTE}


def run_all(args, names) -> int:
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] exited {proc.returncode} without a result")
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads(nproc)
    import_qmatch()
    from workloads import WORKLOADS, run_workload
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")

    facts = machine_facts(nproc)
    if facts["blas_threads"] > nproc:
        fail(f"BLAS runs {facts['blas_threads']} threads on {nproc} CPUs")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": facts}))

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, checks = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            work_root / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in checks.messages:
        print(f"CHECK FAILED {message}")
    for name, (value, unit) in (metrics or {}).items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {checks.failed}/{checks.attempted} = "
          f"{checks.failed / max(checks.attempted, 1):.6g} ratio")
    correct = metrics is not None and checks.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
