"""The benchmark's own output checks, run once in process.

``perfbench/workloads.py`` checks every pass against independent
references (exact limits, closed forms, Legendre series, the oracle).  A
kernel change that breaks one of those checks would otherwise surface
only when the benchmark runs; this test runs one pass of four workloads
at a fixed seed and requires every check to pass.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["layers", "noon_limit", "figures", "point_sweeps"])
def test_benchmark_pass_checks_clean(workloads, workload, tmp_path):
    bench_pass = workloads.Pass(workload, 1, str(tmp_path))
    outputs = bench_pass.run()
    tally = workloads.Tally()
    bench_pass.check(outputs, tally)
    assert tally.attempted > 0
    assert tally.failures == []
