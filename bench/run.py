"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload train_full --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Scratch data, the full result record and the traced spans go under
``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# One process, no extra threads: BLAS is pinned before NumPy is imported, and
# the scene generator's thread pool stays off. The allocator's thresholds are
# fixed before the first large allocation.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in THREAD_VARS:
    os.environ[var] = str(BLAS_THREADS)
os.environ["GGNET_THREADS"] = "1"


def fix_malloc():
    """Keep freed memory in the heap instead of returning it to the kernel.

    With glibc's defaults every train step maps and unmaps its large arrays
    and the kernel zero-fills fresh pages for them: 40% of a baseline step,
    and the part that swings most with the load on the host. Fixed
    thresholds make the figures measure the program's own work. Returns the
    settings for the environment record."""
    settings = {"M_MMAP_THRESHOLD": 256 << 20, "M_TRIM_THRESHOLD": 1 << 30,
                "M_TOP_PAD": 64 << 20}
    params = {"M_TRIM_THRESHOLD": -1, "M_TOP_PAD": -2, "M_MMAP_THRESHOLD": -3}
    if platform.libc_ver()[0] != "glibc":
        return {"libc": platform.libc_ver()[0] or "unknown", "settings": "default"}
    libc = ctypes.CDLL(None)
    applied = {name: bool(libc.mallopt(params[name], value)) and value
               for name, value in settings.items()}
    return {"libc": "glibc " + platform.libc_ver()[1], "settings": applied}


MALLOC = fix_malloc()

from workloads import WORKLOADS, Run  # noqa: E402  (after the thread pinning)

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    """Import ggnet from ./src; exit non-zero if the checkout has none."""
    src = ROOT / "src"
    if not (src / "ggnet" / "__init__.py").is_file():
        sys.exit(f"bench: no ggnet package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import ggnet
    if Path(ggnet.__file__).resolve().parent != (src / "ggnet").resolve():
        sys.exit(f"bench: imported ggnet from {ggnet.__file__}, not from {src}")
    return ggnet


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ggnet").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, digest):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "malloc": MALLOC,
        "git_commit": git_commit(),
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_counts(run, path):
    """Work counts of a seed must repeat exactly across runs of the same code."""
    counts = run.info.get("work_counts")
    if counts is None:
        return
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != counts:
            run.problems.append(f"work counts differ from an earlier run ({path.name})")
            run.failed = run.attempted
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))


def main(argv=None):
    args = parse_args(argv)
    import_package()

    digest = source_digest()
    env = environment(args, digest)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    run = Run(args.seed, args.seconds, args.trace, scratch)
    try:
        metrics = WORKLOADS[args.workload](run)
        if args.trace:
            check_counts(run, OUT_DIR / "counts" / f"{args.workload}-seed{args.seed}-{digest[:16]}.json")
            run.tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        run.close()
        shutil.rmtree(scratch, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    correct = run.failed == 0 and not run.problems and run.attempted > 0
    shown = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
             for name in wanted if name in metrics}
    record = {"env": env, "info": run.info, "problems": run.problems, "metrics": shown}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps({k: v for k, v in run.info.items() if k != "work_counts"},
                               sort_keys=True))
    for problem in run.problems:
        print(f"problem: {problem}")
    for name, m in shown.items():
        print(f"{name:42s} {m['value']:14.6f} {m['unit']}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_ratio':42s} {ratio:14.6f} ({run.failed}/{run.attempted})")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
