"""Self-test of the span recorder and of the output checks.

    python3 perfbench/selftest.py

Checks that nested self times add up to the root span, that a traced CLI
run sees seven phase points per limit and leaves the package unpatched,
and that a deliberately perturbed result trips the output check of every
command of every workload.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mzparity.cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# Relative and absolute shifts far above every tolerance in workloads.py.
PERTURBATION = 1e-4
SHIFT = 1e-6


def perturbed(value: float) -> float:
    return value * (1.0 + PERTURBATION) + math.copysign(SHIFT, value)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_root() -> None:
    recorder = spans.Recorder()
    leaf = recorder.wrap("wigner", lambda: busy(0.002))

    def middle():
        busy(0.001)
        leaf()
        leaf()

    middle = recorder.wrap("detection.point", middle)
    with recorder.root("synthetic") as root:
        middle()
        leaf()
    selfs = spans.self_times(recorder.spans)
    duration = root[spans.END] - root[spans.START]
    require(abs(sum(selfs) - duration) <= 1e-9 * duration, "self times of nested spans sum to the root span")
    parents = [span[spans.PARENT] for span in recorder.spans]
    require(parents == [-1, 0, 1, 1, 0], f"parent links follow the call nesting: {parents}")
    require(all(value >= 0.0 for value in selfs), "no self time is negative")


def test_traced_cli_run(work_dir: str) -> None:
    original = mzparity.cli.main
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.root("sweep") as root:
            code = mzparity.cli.main(
                ["sweep", "--state", "noon", "--limit", "--n-min", "1", "--n-max", "20",
                 "--out", str(Path(work_dir) / "sweep.csv")]
            )
    finally:
        recorder.uninstall()
    require(code == 0, "traced sweep exits 0")
    require(mzparity.cli.main is original, "uninstall restores the patched functions")
    metrics = spans.layer_metrics(recorder.spans)
    duration = root[spans.END] - root[spans.START]
    total = sum(value for key, value in metrics.items() if key.endswith(".self_s"))
    bench_self = spans.self_times(recorder.spans)[0]
    require(abs(total + bench_self - duration) <= 1e-9 * duration, "layer self times sum to the traced pass")
    require(metrics["detection.limit.calls"] == 20, "one limit span per N")
    require(metrics["detection.points_per_limit"] == 7.0, "seven phase points per limit")
    require(metrics["states.calls"] == 40, "noon_input and the noon_internal it builds on are both seen")
    require(metrics["interferometer.calls"] == 20, "noon_input goes through apply_beam_splitter")


def _perturb_csv(path: Path, column: str) -> None:
    with open(path, encoding="ascii", newline="") as handle:
        rows = list(csv.reader(handle))
    index = rows[0].index(column)
    row = next(row for row in rows[1:] if row[index] not in ("", "0", "inf"))
    row[index] = "%.17g" % perturbed(float(row[index]))
    with open(path, "w", encoding="ascii", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_perturbed_results_fail(work_dir: str) -> None:
    for name in workloads.WORKLOADS:
        work = workloads.Pass(name, 7, work_dir)
        with contextlib.redirect_stderr(io.StringIO()):  # skipped-N warnings
            outputs = work.run()
        tally = workloads.Tally()
        work.check(outputs, tally)
        require(tally.attempted > 0 and not tally.failures, f"{name}: unperturbed outputs pass {tally.failures[:2]}")
        if name == "layers":
            for key in ("expectation.noon200", "derivative.coherent100", "limit.dual_fock100"):
                tally = workloads.Tally()
                work.check(dict(outputs, **{key: perturbed(outputs[key])}), tally)
                require(len(tally.failures) == 1, f"layers: perturbed {key} trips the check")
            tally = workloads.Tally()
            work.check(dict(outputs, **{"limit.noon200": math.nan}), tally)
            require(len(tally.failures) == 1, "layers: a NaN result trips the check")
            continue
        for command in work.commands:
            path = Path(work_dir) / f"{command.tag}.csv"
            saved = path.read_bytes()
            _perturb_csv(path, command.key)
            tally = workloads.Tally()
            work.check(outputs, tally)
            require(bool(tally.failures), f"{name}: perturbed {command.tag}.{command.key} trips the check")
            path.write_bytes(saved)
        failed = dict(outputs, **{work.commands[0].tag: "exit code 3"})
        tally = workloads.Tally()
        work.check(failed, tally)
        require(len(tally.failures) == 1, f"{name}: a nonzero exit counts as a failed result")


def main() -> int:
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest_", dir=out)
    try:
        test_self_times_sum_to_root()
        test_traced_cli_run(work_dir)
        test_perturbed_results_fail(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
