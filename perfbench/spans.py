"""In-memory span recorder for traced benchmark passes.

``Recorder.install`` wraps the package's public functions, layer by layer,
and patches each wrapper into every module that looks the name up: ``cli``
and ``detection`` import constructors and ``d_element``/``d_derivative`` by
name, so patching the defining module alone would miss those calls.  Each
call records a span (layer, name, parent, start, end, peak RSS at entry and
exit).  Spans stay in memory; ``layer_metrics`` reduces them and
``write_jsonl`` writes them out with parent links and self times.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread and nest strictly, so the self times of
all spans under a root add up to the root's duration.

Private kernels (the dense J_y eigensystem, d-block synthesis and the
derivative block) are not wrapped: their time lands in the self time of
the public function that called them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import time

# layer -> (module defining the functions, function names)
LAYERS = {
    "cli": ("mzparity.cli", ("main",)),
    "states": (
        "mzparity.states",
        (
            "coherent_input",
            "single_fock_input",
            "dual_fock_input",
            "noon_internal",
            "noon_input",
            "yurke_input",
            "yuen_input",
            "pezze_smerzi_input",
            "berry_wiseman_internal",
            "combined_input",
        ),
    ),
    "interferometer": ("mzparity.interferometer", ("apply_beam_splitter", "apply_mzi")),
    "wigner": ("mzparity.wigner", ("d_element", "d_derivative", "d_block")),
    "detection.limit": ("mzparity.detection", ("phase_uncertainty_limit",)),
    "detection.point": ("mzparity.detection", ("phase_uncertainty",)),
    "detection.expectation": ("mzparity.detection", ("parity_expectation",)),
    "detection.derivative": ("mzparity.detection", ("parity_derivative",)),
    "detection.closed_form": (
        "mzparity.detection",
        (
            "closed_form_expectation",
            "closed_form_derivative",
            "closed_form_parts",
            "closed_form_uncertainty",
            "closed_form_uncertainty_limit",
        ),
    ),
}

# Modules whose globals may hold a wrapped function under its own name.
CALLER_MODULES = (
    "mzparity",
    "mzparity.cli",
    "mzparity.states",
    "mzparity.interferometer",
    "mzparity.wigner",
    "mzparity.detection",
)

# Layers whose first argument is a state; its blocks and amplitudes are counted.
COUNTED_LAYERS = ("detection.expectation", "detection.derivative")

# Peak-RSS growth is reported per layer group, counting only the outermost
# span of each group so that nested calls of one group are not added twice.
RSS_GROUPS = ("states", "interferometer", "detection")

ROOT_LAYER = "bench"

# Span fields, kept as lists for speed.
LAYER, NAME, PARENT, START, END, RSS_IN, RSS_OUT, BLOCKS, AMPLITUDES = range(9)


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _enter(self, layer: str, name: str, blocks: int = 0, amplitudes: int = 0) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [layer, name, parent, 0.0, 0.0, max_rss_kb(), 0, blocks, amplitudes]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[END] = time.perf_counter()
        span[RSS_OUT] = max_rss_kb()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        span = self._enter(ROOT_LAYER, name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, layer: str, fn):
        name = fn.__name__
        counted = layer in COUNTED_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            blocks = amplitudes = 0
            if counted:
                components = (args[0] if args else kwargs["state"]).components
                blocks = len(components)
                amplitudes = sum(vec.size for vec in components.values())
            span = self._enter(layer, name, blocks, amplitudes)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return traced

    def install(self) -> None:
        callers = [importlib.import_module(name) for name in CALLER_MODULES]
        for layer, (home, names) in LAYERS.items():
            module = importlib.import_module(home)
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(layer, original)
                for caller in callers:
                    if getattr(caller, name, None) is original:
                        setattr(caller, name, wrapper)
                        self._patches.append((caller, name, original))

    def uninstall(self) -> None:
        for caller, name, original in reversed(self._patches):
            setattr(caller, name, original)
        self._patches.clear()


def self_times(spans: list[list]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child for span, child in zip(spans, child_time)]


def _group(layer: str) -> str:
    return layer.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and peak-RSS growth of one traced pass."""
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = 0.0
    for group in RSS_GROUPS:
        metrics[f"{group}.rss_growth_mb"] = 0.0
    metrics["detection.blocks_visited"] = 0
    metrics["detection.amplitudes_visited"] = 0
    points_in_limits = 0
    in_limit = [False] * len(spans)
    # group_above[g][i]: some proper ancestor of span i belongs to group g.
    group_above = {group: [False] * len(spans) for group in RSS_GROUPS}
    for i, span in enumerate(spans):
        layer, parent = span[LAYER], span[PARENT]
        if parent >= 0:
            in_limit[i] = in_limit[parent] or spans[parent][LAYER] == "detection.limit"
            for group, above in group_above.items():
                above[i] = above[parent] or _group(spans[parent][LAYER]) == group
        if layer == ROOT_LAYER:
            continue
        metrics[f"{layer}.calls"] += 1
        metrics[f"{layer}.self_s"] += selfs[i]
        metrics["detection.blocks_visited"] += span[BLOCKS]
        metrics["detection.amplitudes_visited"] += span[AMPLITUDES]
        if layer == "detection.point" and in_limit[i]:
            points_in_limits += 1
        group = _group(layer)
        if group in group_above and not group_above[group][i]:
            metrics[f"{group}.rss_growth_mb"] += (span[RSS_OUT] - span[RSS_IN]) / 1024.0
    limits = metrics["detection.limit.calls"]
    metrics["detection.points_per_limit"] = points_in_limits / limits if limits else 0.0
    return metrics


def write_jsonl(spans: list[list], path: str) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = spans[0][START] if spans else 0.0
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for i, span in enumerate(spans):
            record = {
                "id": i,
                "parent": span[PARENT],
                "layer": span[LAYER],
                "name": span[NAME],
                "start_s": span[START] - origin,
                "duration_s": span[END] - span[START],
                "self_s": selfs[i],
                "rss_growth_kb": span[RSS_OUT] - span[RSS_IN],
            }
            handle.write(json.dumps(record) + "\n")
