"""Command-line surface: sweeps, reference-table and figure-data emission.

Every number takes one route.  ``build_state`` looks the family label up
in one label -> constructor table, after the parity check that
``states.parity_needed`` gives; then ``_limit_for`` yields the phi -> 0
limit, or ``_record`` yields one output row at N, the limit when phi is
None and the fixed-phi observables otherwise.  Sweeps and ``expectation``
write those records; the table and the fig3/fig4 curves are limits, where
a family outside its parity class leaves an empty cell (a warning and a
skipped row in a sweep).

Output is deterministic: a fixed config produces byte-identical files.
Floats are written with 17 significant digits so CSV round-trips exactly;
infinities appear as "inf" and absent optional fields as empty cells.

Exit codes: 0 success, 2 invalid arguments or invalid domain values,
3 numerical failure (a limit that neither converges nor diverges, or an
internal consistency check tripping).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from . import detection
from .detection import benchmark_limits
from .errors import DomainError, MzParityError
from .interferometer import apply_phase_shifter
from .states import (
    STATE_LABELS,
    CombinedStateParams,
    TwoModeState,
    berry_wiseman_internal,
    coherent_input,
    combined_input,
    dual_fock_input,
    noon_input,
    noon_internal,
    parity_needed,
    pezze_smerzi_input,
    single_fock_input,
    yuen_input,
    yurke_input,
)

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "build_state",
    "emit_figure_data",
    "main",
    "reproduce_table",
    "run_sweep",
]

DEFAULT_PHI = 1e-4

_CSV_COLUMNS = (
    "N",
    "phi",
    "expectation",
    "derivative",
    "variance",
    "delta_phi",
    "shot_noise",
    "heisenberg",
    "bw_povm",
)


class _ParityMismatch(DomainError):
    """N outside the family's parity class; sweeps skip, other commands fail."""


@dataclass(frozen=True)
class SweepConfig:
    state_label: str
    n_min: int
    n_max: int
    phi_mode: str = "fixed"  # "fixed" | "limit"
    phi: float = DEFAULT_PHI
    combined_params: CombinedStateParams | None = None
    output_path: str = "-"
    format: str = "csv"

    def __post_init__(self) -> None:
        if self.state_label not in STATE_LABELS:
            raise DomainError(
                f"unknown state label {self.state_label!r}; choose from "
                f"{', '.join(STATE_LABELS)}"
            )
        if self.n_min < 1 or self.n_max < self.n_min:
            raise DomainError(
                f"need 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}"
            )
        if self.phi_mode not in ("fixed", "limit"):
            raise DomainError(f"phi_mode must be 'fixed' or 'limit', got {self.phi_mode!r}")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be 'csv' or 'json', got {self.format!r}")
        if (self.combined_params is not None) != (self.state_label == "combined"):
            raise DomainError(
                "alpha/beta/theta parameters apply exactly when state is 'combined'"
            )


@dataclass(frozen=True)
class SweepRecord:
    n_total: int
    delta_phi: float
    shot_noise: float
    heisenberg: float
    bw_povm: float | None = None
    phi: float | None = None
    expectation_at_phi: float | None = None
    derivative: float | None = None
    variance: float | None = None

    def row(self) -> dict[str, float | int | None]:
        return {
            "N": self.n_total,
            "phi": self.phi,
            "expectation": self.expectation_at_phi,
            "derivative": self.derivative,
            "variance": self.variance,
            "delta_phi": self.delta_phi,
            "shot_noise": self.shot_noise,
            "heisenberg": self.heisenberg,
            "bw_povm": self.bw_povm,
        }


# label -> constructor at total photon number n.  Each entry looks its
# constructor up when called, so a traced run that patches these module
# globals sees every call.
_FAMILIES = {
    "coherent": lambda n, params: coherent_input(float(n)),
    "single-fock": lambda n, params: single_fock_input(n),
    "dual-fock": lambda n, params: dual_fock_input(n // 2),
    "yurke": lambda n, params: yurke_input(n),
    "yuen": lambda n, params: yuen_input(n, modified=False),
    "modified-yuen": lambda n, params: yuen_input(n, modified=True),
    "pezze-smerzi": lambda n, params: pezze_smerzi_input(n),
    "noon": lambda n, params: noon_input(n),
    "noon-internal": lambda n, params: noon_internal(n),
    "berry-wiseman": lambda n, params: berry_wiseman_internal(n),
    "combined": lambda n, params: combined_input(n, params or CombinedStateParams()),
}


def build_state(
    label: str, n: int, params: CombinedStateParams | None = None
) -> TwoModeState:
    """Construct the named family at total photon number n."""
    need = parity_needed(label, n)
    if need is not None:
        raise _ParityMismatch(f"{label} is defined for {need} N; N={n}")
    if label not in _FAMILIES:
        raise DomainError(f"unknown state label {label!r}")
    return _FAMILIES[label](n, params)


def _limit_for(label: str, state: TwoModeState) -> float:
    # The berry-wiseman state gives a flat parity signal at phi = 0, so its
    # phi -> 0 limit diverges.  Its finite limit belongs to parity
    # detection behind a pi/2 bias, where it equals 1/(2 Delta J_z), the
    # quantum Cramer-Rao bound; the engine computes it there.
    if label == "berry-wiseman":
        state = apply_phase_shifter(state, math.pi / 2.0)
    return detection.phase_uncertainty_limit(state)


def _record(
    label: str, n: int, params: CombinedStateParams | None, phi: float | None
) -> SweepRecord:
    """One output row at N: the phi -> 0 limit if phi is None, else the fixed-phi point."""
    state = build_state(label, n, params)
    point = {}
    if phi is None:
        delta_phi = _limit_for(label, state)
    else:
        result = detection.phase_uncertainty(state, phi)
        delta_phi = result.delta_phi
        point = {
            "phi": result.phi,
            "expectation_at_phi": result.expectation,
            "derivative": result.derivative,
            "variance": result.variance,
        }
    limits = benchmark_limits(n)
    return SweepRecord(
        n_total=n,
        delta_phi=delta_phi,
        shot_noise=limits.shot_noise,
        heisenberg=limits.heisenberg,
        bw_povm=limits.bw_povm,
        **point,
    )


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """One record per valid N; invalid parity class is skipped with a warning."""
    phi = None if config.phi_mode == "limit" else config.phi
    records: list[SweepRecord] = []
    for n in range(config.n_min, config.n_max + 1):
        try:
            records.append(_record(config.state_label, n, config.combined_params, phi))
        except _ParityMismatch as exc:
            print(f"warning: {exc} skipped", file=sys.stderr)
    return records


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def _csv_payload(header: tuple[str, ...], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(row.get(column)) for column in header))
    return "\n".join(lines) + "\n"


def _json_ready(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _json_payload(header: tuple[str, ...], rows: list[dict]) -> str:
    data = [{column: _json_ready(row.get(column)) for column in header} for row in rows]
    return json.dumps(data, indent=2) + "\n"


def _emit(payload: str, output_path: str) -> None:
    if output_path == "-":
        sys.stdout.write(payload)
        return
    with open(output_path, "w", encoding="ascii", newline="") as handle:
        handle.write(payload)


def _write_records(records: list[SweepRecord], output_path: str, fmt: str) -> None:
    payload = _json_payload if fmt == "json" else _csv_payload
    _emit(payload(_CSV_COLUMNS, [record.row() for record in records]), output_path)


_TABLE_HEADER = (
    "row",
    "state_label",
    "fock_state",
    "n_total",
    "computed",
    "closed_form",
    "abs_diff",
    "note",
)


def reproduce_table(output_path: str) -> list[dict]:
    """Eight-row reference table of small-phase uncertainties at N = 8 (9 for odd families)."""
    n = 8
    j = n / 2.0
    povm = benchmark_limits(n).bw_povm
    plan = [
        (1, "coherent", "|alpha>_a|0>_b", 8, 1.0 / math.sqrt(8.0), "shot-noise reference"),
        (2, "single-fock", "|8,0>", 8, 1.0 / math.sqrt(8.0), ""),
        (3, "dual-fock", "|4,4>", 8, math.sqrt(2.0) / math.sqrt(n * (n + 2.0)), ""),
        (4, "yurke", "(|4,4>+|5,3>)/sqrt2", 8, 1.0 / math.sqrt(j * (j + 1.0)), ""),
        (5, "modified-yuen", "(|5,4>+|4,5>)/sqrt2", 9, None, "sub-shot-noise"),
        (6, "pezze-smerzi", "(|5,3>+|3,5>)/sqrt2", 8, None, "sub-shot-noise"),
        (
            7,
            "berry-wiseman",
            "sum_k sqrt(2/(N+2)) sin((k+1)pi/(N+2)) |k,N-k> (internal)",
            8,
            None,
            "sub-shot-noise; optimal-povm reference %.6g" % povm,
        ),
        (8, "noon", "(|8,0>+|0,8>)/sqrt2 (internal)", 8, 1.0 / n, "Heisenberg reference"),
    ]
    rows = []
    for index, label, fock, n_row, closed, note in plan:
        state = build_state(label, n_row)
        computed = _limit_for(label, state)
        rows.append(
            {
                "row": index,
                "state_label": label,
                "fock_state": fock,
                "n_total": n_row,
                "computed": computed,
                "closed_form": closed,
                "abs_diff": None if closed is None else abs(computed - closed),
                "note": note,
            }
        )
    _emit(_csv_payload(_TABLE_HEADER, rows), output_path)
    return rows


def _fig2_payload() -> str:
    state = noon_input(100)
    vec = state.block(100)
    rows = []
    for i, amp in enumerate(vec):
        rows.append(
            {
                "two_mu": 100 - 2 * i,
                "re": float(amp.real),
                "im": float(amp.imag),
                "abs": float(abs(amp)),
            }
        )
    return _csv_payload(("two_mu", "re", "im", "abs"), rows)


def _limit_curves(ns: range, curves: list[tuple], references: tuple[str, ...]) -> str:
    """CSV of phi -> 0 limits, one row per N and one column per curve.

    Each curve is (column, label, params); the named ``benchmark_limits``
    fields follow.  A family outside its parity class at N leaves its cell
    empty.
    """
    header = ("N",) + tuple(column for column, _, _ in curves) + references
    rows = []
    for n in ns:
        row: dict = {"N": n}
        for column, label, params in curves:
            try:
                row[column] = _limit_for(label, build_state(label, n, params))
            except _ParityMismatch:
                pass
        limits = benchmark_limits(n)
        row.update((name, getattr(limits, name)) for name in references)
        rows.append(row)
    return _csv_payload(header, rows)


def _combined_curve(column: str, alpha_sq: float, theta: float) -> tuple:
    params = CombinedStateParams(math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq), theta)
    return column, "combined", params


def _fig3_payload() -> str:
    curves = [
        ("dual_fock", "dual-fock", None),
        _combined_curve("combined_23_0", 2.0 / 3.0, 0.0),
        _combined_curve("combined_13_0", 1.0 / 3.0, 0.0),
        _combined_curve("combined_12_0", 0.5, 0.0),
        _combined_curve("combined_12_pi", 0.5, math.pi),
        _combined_curve("combined_12_pi4", 0.5, math.pi / 4.0),
    ]
    return _limit_curves(range(2, 101, 2), curves, ("shot_noise", "heisenberg"))


def _fig4_payload() -> str:
    curves = [
        ("modified_yuen", "modified-yuen", None),
        ("pezze_smerzi", "pezze-smerzi", None),
        ("berry_wiseman", "berry-wiseman", None),
    ]
    references = ("shot_noise", "heisenberg", "bw_povm")
    return _limit_curves(range(2, 101), curves, references)


def emit_figure_data(figure_id: str, output_path: str) -> None:
    """fig2: internal superposition amplitudes at N=100; fig3/fig4: uncertainty curves."""
    payloads = {"fig2": _fig2_payload, "fig3": _fig3_payload, "fig4": _fig4_payload}
    if figure_id not in payloads:
        raise DomainError(
            f"unknown figure id {figure_id!r}; choose from {', '.join(sorted(payloads))}"
        )
    _emit(payloads[figure_id](), output_path)


_CONFIG_KEYS = {field.name for field in fields(SweepConfig)} - {"combined_params"}
_CONFIG_KEYS |= {"alpha", "beta", "theta"}


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


# config key -> type; the other keys stay strings
_CONFIG_TYPES = {
    "n_min": int,
    "n_max": int,
    "phi": float,
    "alpha": float,
    "beta": float,
    "theta": float,
}

# sweep flag -> config key; --limit sets phi_mode, and so does --phi
_FLAG_KEYS = {
    "state": "state_label",
    "n_min": "n_min",
    "n_max": "n_max",
    "phi": "phi",
    "out": "output_path",
    "format": "format",
    "alpha": "alpha",
    "beta": "beta",
    "theta": "theta",
}

# combined-state config key -> CombinedStateParams field
_COMBINED_FIELDS = {"alpha": "alpha_mag", "beta": "beta_mag", "theta": "theta"}


def _coerce_config(values: dict[str, str]) -> dict:
    out: dict = {}
    for key, value in values.items():
        try:
            out[key] = _CONFIG_TYPES.get(key, str)(value)
        except ValueError as exc:
            raise DomainError(f"config key {key!r}: bad value {value!r}") from exc
    return out


def _merge_sweep_config(args: argparse.Namespace) -> SweepConfig:
    settings: dict = {}
    if args.config:
        settings.update(_coerce_config(_parse_config_file(args.config)))
    if args.phi is not None and args.limit:
        raise DomainError("--phi and --limit are mutually exclusive")
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag) is not None:
            settings[key] = getattr(args, flag)
    if args.limit or args.phi is not None:
        settings["phi_mode"] = "limit" if args.limit else "fixed"

    if "state_label" not in settings:
        raise DomainError("missing state label (use --state or a config file)")
    if "n_min" not in settings:
        raise DomainError("missing --n-min")
    settings.setdefault("n_max", settings["n_min"])

    given = {
        field: settings.pop(key)
        for key, field in _COMBINED_FIELDS.items()
        if key in settings
    }
    if settings["state_label"] != "combined":
        if given:
            raise DomainError("--alpha/--beta/--theta apply only to the combined state")
        return SweepConfig(**settings)
    # one magnitude given: the other completes alpha^2 + beta^2 = 1
    for known, other in (("beta_mag", "alpha_mag"), ("alpha_mag", "beta_mag")):
        if known in given and other not in given:
            given[other] = math.sqrt(max(1.0 - given[known] * given[known], 0.0))
    return SweepConfig(combined_params=CombinedStateParams(**given), **settings)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", choices=STATE_LABELS, help="input state family")
    parser.add_argument("--n-min", type=int, help="first total photon number")
    parser.add_argument("--n-max", type=int, help="last total photon number (default: n-min)")
    parser.add_argument("--phi", type=float, help="fixed phase point (default 1e-4)")
    parser.add_argument(
        "--limit",
        action="store_true",
        help="exact phi -> 0 uncertainty limit instead of a fixed phi",
    )
    parser.add_argument("--alpha", type=float, help="combined state |alpha|")
    parser.add_argument("--beta", type=float, help="combined state |beta|")
    parser.add_argument("--theta", type=float, help="combined state relative phase")
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--config", help="key = value config file; flags override it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzparity",
        description=(
            "Parity-detection interferometry: photon-number sweeps of the "
            "phase-estimation uncertainty, reference table, and figure data."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser(
        "sweep", help="uncertainty versus total photon number for one state family"
    )
    _add_common_flags(sweep)

    expectation = subparsers.add_parser(
        "expectation", help="full observable bundle for a single state and phase"
    )
    _add_common_flags(expectation)

    table = subparsers.add_parser(
        "table", help="eight-row reference table of small-phase uncertainties"
    )
    table.add_argument("--out", default="-", help="output path ('-' for stdout)")

    figure = subparsers.add_parser("figure", help="figure data files (fig2, fig3, fig4)")
    figure.add_argument("figure_id", choices=("fig2", "fig3", "fig4"))
    figure.add_argument("--out", default="-", help="output path ('-' for stdout)")

    return parser


def _cmd_sweep(args: argparse.Namespace) -> None:
    config = _merge_sweep_config(args)
    _write_records(run_sweep(config), config.output_path, config.format)


def _cmd_expectation(args: argparse.Namespace) -> None:
    config = _merge_sweep_config(args)
    if config.n_min != config.n_max:
        raise DomainError("expectation takes a single N (n-min must equal n-max)")
    if config.phi_mode == "limit":
        raise DomainError("expectation reports a fixed-phi point; use sweep --limit")
    record = _record(config.state_label, config.n_min, config.combined_params, config.phi)
    _write_records([record], config.output_path, config.format)


_COMMANDS = {
    "sweep": _cmd_sweep,
    "expectation": _cmd_expectation,
    "table": lambda args: reproduce_table(args.out),
    "figure": lambda args: emit_figure_data(args.figure_id, args.out),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MzParityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
