"""mzparity benchmark runner.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 42 --trace 0

Closed loop with one client: each pass of the workload runs in a fresh
child interpreter (``child.py``), one after another, while another pass
still fits in ``--seconds``; at least one pass always runs.  A cold
process per pass is what a CLI user pays, and it keeps the package's
in-process caches from carrying work from one pass to the next.  Children import the package from
``src/`` of this checkout; nothing is installed.  BLAS threads are pinned
to one.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: ``wall_s`` (median pass time, after import and
before the output checks), ``peak_rss_mb`` (median of the children's
``ru_maxrss``), ``setup_s`` (median time from child start until
``mzparity.cli`` is imported, over the pass children and set-up-only
children, one before each pass and at least five) and ``passed_frac``
(share of checked results that passed).
With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones (see README.md).  Every run also writes
``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json`` with the run
environment, every sample and the quartiles.  Any failed check makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("figures", "noon_limit", "point_sweeps", "layers")
MIN_SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: spinning BLAS threads that share a core with any other
# busy process slow a pass several-fold, which no run length can average out.
BLAS_THREADS = 1


@dataclass
class Child:
    """Outcome of one child process: its summary, or why it has none."""

    summary: dict | None
    error: str | None


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(env, workload, seed=0, trace=0, work_dir=None, spans_out=None) -> Child:
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if work_dir:
        argv += ["--work-dir", work_dir]
    if spans_out:
        argv += ["--spans-out", spans_out]
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Child(None, f"{workload} child timed out after {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Child(None, f"{workload} child exited {proc.returncode}: {' | '.join(tail)}")
    return Child(json.loads(lines[-1]), None)


def layer_unit(key: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_frac", "frac")):
        if key.endswith(suffix):
            return unit
    return "count"


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Collects the children of one run and reduces them to metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = child_env()
        self.children: list[tuple[str, Child]] = []  # (role, child)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def child(self, role: str, workload: str, **kwargs) -> None:
        child = run_child(self.env, workload, seed=self.seed, **kwargs)
        self.children.append((role, child))
        if child.error is not None:
            self.attempted += 1
            self.failed += 1
            self.failures.append(child.error)
            return
        self.attempted += child.summary.get("attempted", 0)
        self.failed += child.summary.get("failed", 0)
        self.failures.extend(f"{role}: {msg}" for msg in child.summary.get("failures", []))

    def samples(self, role: str, key: str) -> list[float]:
        return [c.summary[key] for r, c in self.children if r == role and c.summary and key in c.summary]

    def loop(self, work_dir: str, spans_out: str) -> None:
        start = time.monotonic()
        cycles: list[float] = []
        # Trace runs alternate untraced and traced passes, at least one each.
        # Another pass starts only if a typical one still ends in time.
        while len(cycles) < (2 if self.trace else 1) or (
            time.monotonic() - start + statistics.median(cycles) <= self.seconds
        ):
            began = time.monotonic()
            traced = self.trace and len(cycles) % 2 == 1
            if not self.trace:
                # Set-up probes spread over the run, like the passes.
                self.child("setup", "none")
            self.child("traced" if traced else "pass", self.workload, trace=int(traced),
                       work_dir=work_dir, spans_out=spans_out if traced else None)
            cycles.append(time.monotonic() - began)
        while not self.trace and len(self.samples("setup", "setup_s")) < MIN_SETUP_PROBES:
            self.child("setup", "none")
        if self.trace and self.workload != "layers":
            # Fixed-size layer call times are part of every trace run.
            self.child("layers", "layers", work_dir=work_dir)

    def end_to_end(self) -> dict:
        walls = self.samples("pass", "wall_s")
        setups = self.samples("setup", "setup_s") + self.samples("pass", "setup_s")
        rss = self.samples("pass", "peak_rss_mb")
        return {
            "wall_s": (quartiles(walls), "s"),
            "peak_rss_mb": (quartiles(rss), "MB"),
            "setup_s": (quartiles(setups), "s"),
            "passed_frac": (quartiles([1.0 - self.failed / self.attempted]), "frac"),
        }

    def per_layer(self) -> dict:
        traced = [c.summary for r, c in self.children if r == "traced" and c.summary]
        metrics: dict = {}
        for key in traced[0]["layers"]:
            metrics[key] = (quartiles([s["layers"][key] for s in traced]), layer_unit(key))
        walls = self.samples("pass", "wall_s")
        traced_walls = [s["wall_s"] for s in traced]
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics["trace_overhead_frac"] = (quartiles([overhead]), "frac")
        role = "pass" if self.workload == "layers" else "layers"
        calls = [c.summary["call_ms"] for r, c in self.children if r == role and c.summary]
        for key in calls[0]:
            metrics[key] = (quartiles([call[key] for call in calls]), "ms")
        return metrics


def environment(run: Run) -> dict:
    numpy_version = next((c.summary.get("numpy") for _, c in run.children if c.summary), None)
    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: run.env[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": run.seed,
        "seconds": run.seconds,
        "sample_counts": {role: sum(1 for r, _ in run.children if r == role)
                          for role in ("setup", "pass", "traced", "layers")},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="mzparity benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mzparity" / "cli.py").is_file():
        print(f"no mzparity sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work_dir = tempfile.mkdtemp(prefix=f"work_{tag}_", dir=OUT_DIR)
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    try:
        run.loop(work_dir, str(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ok = run.failed == 0
    measured = {}
    if ok:
        measured = run.end_to_end() if args.trace == 0 else run.per_layer()
    metrics = {name: {"value": stats["median"], "unit": unit} for name, (stats, unit) in measured.items()}
    result = {"correct": ok, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(run),
        "summary": {name: {**stats, "unit": unit} for name, (stats, unit) in measured.items()},
        "samples": [{"role": role, **(child.summary or {"error": child.error})} for role, child in run.children],
        "failures": run.failures[:20],
        "result": result,
    }
    with open(OUT_DIR / f"BENCH_{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for message in run.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (stats, unit) in measured.items():
        print(f"{args.workload} {name} = {stats['median']:.6g} {unit}"
              f" (q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']})")
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
