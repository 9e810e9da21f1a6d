"""The traced benchmark wraps package functions by name.

``perfbench/spans.py`` looks every name in its ``LAYERS`` table up with
``getattr``, so renaming or removing one of those functions would only
surface as a crash of a traced benchmark run.  This test installs and
uninstalls the recorder to catch that in the ordinary test suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_wraps_every_layer_name_and_restores_it():
    spans = load_spans()
    callers = [importlib.import_module(name) for name in spans.CALLER_MODULES]
    names = {name for _, layer_names in spans.LAYERS.values() for name in layer_names}
    before = {
        (caller.__name__, name): getattr(caller, name, None)
        for caller in callers
        for name in names
    }
    recorder = spans.Recorder()
    recorder.install()
    try:
        for home, layer_names in spans.LAYERS.values():
            module = importlib.import_module(home)
            for name in layer_names:
                wrapped = getattr(module, name)
                assert wrapped is not before[(home, name)], f"{home}.{name} not patched"
                assert wrapped.__wrapped__ is before[(home, name)]
    finally:
        recorder.uninstall()
    for (caller, name), original in before.items():
        assert getattr(importlib.import_module(caller), name, None) is original


def test_traced_cli_sees_every_constructor_call(tmp_path):
    # The CLI's family table must look each constructor up when it is
    # called; a table that bound them at import time would hide every
    # state construction from the traced benchmark.
    from mzparity.cli import main

    spans = load_spans()
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = main(["sweep", "--state", "noon", "--limit", "--n-min", "1",
                     "--n-max", "5", "--out", str(tmp_path / "noon.csv")])
    finally:
        recorder.uninstall()
    assert code == 0
    metrics = spans.layer_metrics(recorder.spans)
    # the CLI builds NOON inside the interferometer, one noon_internal
    # call per N, and sends nothing through a beam splitter
    assert metrics["states.calls"] == 5
    assert metrics["interferometer.calls"] == 0
    # the sweep takes its limits in one phase_uncertainty_limits call,
    # a name the recorder does not wrap, so the limit layer reads no call
    assert metrics["detection.limit.calls"] == 0


def test_traced_expectation_counts_the_dense_blocks_of_a_stored_state():
    # A coherent block stores one amplitude, but the recorder counts
    # blocks and amplitudes through the dense ``components`` built on
    # demand, so the layer counters keep their meaning.
    from mzparity import coherent_input, detection

    spans = load_spans()
    state = coherent_input(100.0)
    assert state.amplitudes.size == len(state.two_js)
    recorder = spans.Recorder()
    recorder.install()
    try:
        detection.parity_expectation(state, 0.3)
    finally:
        recorder.uninstall()
    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["detection.expectation.calls"] == 1
    assert metrics["detection.blocks_visited"] == len(state.two_js)
    assert metrics["detection.amplitudes_visited"] == int(sum(state.two_js + 1))
