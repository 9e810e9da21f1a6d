"""One benchmark pass in this fresh interpreter; prints a JSON summary line.

``run.py`` starts one child per pass and passes the ``time.monotonic()``
reading taken just before the start, so ``setup_s`` covers interpreter
start-up and the import of ``mzparity.cli``.  The pass itself is timed
after the import; the output checks run after the timer stops and are
never traced.  With ``--workload none`` the child only measures set-up.

    python3 perfbench/child.py --root . --workload figures --seed 1 \\
        --trace 0 --spawned-at <monotonic seconds> --work-dir DIR
"""

import sys
import time

import mzparity.cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402  (imported after the timed import on purpose)
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402

import numpy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURE_MESSAGES = 5


def max_rss_mb() -> float:
    return spans.max_rss_kb() / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("none",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir")
    parser.add_argument("--spans-out", help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    src = os.path.realpath(os.path.join(args.root, "src"))
    imported_from = os.path.realpath(mzparity.cli.__file__)
    if not imported_from.startswith(src + os.sep):
        print(f"mzparity was imported from {imported_from}, not from {src}", file=sys.stderr)
        return 2

    summary = {
        "setup_s": IMPORTED_AT - args.spawned_at,
        "import_rss_mb": max_rss_mb(),
        "numpy": numpy.__version__,
    }
    if args.workload == "none":
        print(json.dumps(summary))
        return 0

    work = workloads.Pass(args.workload, args.seed, args.work_dir)
    recorder = spans.Recorder() if args.trace else None
    if recorder is None:
        start = time.perf_counter()
        outputs = work.run()
        wall = time.perf_counter() - start
    else:
        recorder.install()
        try:
            with recorder.root(args.workload) as root:
                outputs = work.run()
        finally:
            recorder.uninstall()
        wall = root[spans.END] - root[spans.START]
    summary["peak_rss_mb"] = max_rss_mb()
    summary["wall_s"] = wall
    summary["call_ms"] = {key: statistics.median(values) for key, values in work.call_ms.items()}

    if recorder is not None:
        layers = spans.layer_metrics(recorder.spans)
        layers["trace.self_sum_frac"] = sum(
            value for key, value in layers.items() if key.endswith(".self_s")
        ) / wall
        summary["layers"] = layers
        if args.spans_out:
            spans.write_jsonl(recorder.spans, args.spans_out)

    tally = workloads.Tally()
    work.check(outputs, tally)
    summary["attempted"] = tally.attempted
    summary["failed"] = len(tally.failures)
    summary["failures"] = tally.failures[:MAX_FAILURE_MESSAGES]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
