"""Command-line surface: sweeps, reference-table and figure-data emission.

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

_EVEN_FAMILIES = frozenset({"dual-fock", "yurke", "pezze-smerzi", "combined"})
_ODD_FAMILIES = frozenset({"yuen", "modified-yuen"})

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


def build_state(
    label: str, n: int, params: CombinedStateParams | None = None
) -> TwoModeState:
    """Construct the named family at total photon number n."""
    if label in _EVEN_FAMILIES and n % 2 != 0:
        raise _ParityMismatch(f"{label} is defined for even N; N={n} skipped")
    if label in _ODD_FAMILIES and n % 2 != 1:
        raise _ParityMismatch(f"{label} is defined for odd N; N={n} skipped")
    if label == "coherent":
        return coherent_input(float(n))
    if label == "single-fock":
        return single_fock_input(n)
    if label == "dual-fock":
        return dual_fock_input(n // 2)
    if label == "yurke":
        return yurke_input(n)
    if label == "yuen":
        return yuen_input(n, modified=False)
    if label == "modified-yuen":
        return yuen_input(n, modified=True)
    if label == "pezze-smerzi":
        return pezze_smerzi_input(n)
    if label == "noon":
        return noon_input(n)
    if label == "noon-internal":
        return noon_internal(n)
    if label == "berry-wiseman":
        return berry_wiseman_internal(n)
    if label == "combined":
        if params is None:
            params = CombinedStateParams(
                1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0
            )
        return combined_input(n, params)
    raise DomainError(f"unknown state label {label!r}")


def _limit_for(label: str, state: TwoModeState) -> float:
    # The berry-wiseman state gives a flat parity signal at phi = 0, so its
    # phi -> 0 limit diverges.  Its finite limit belongs to parity
    # detection behind a pi/2 bias, where it equals 1/(2 Delta J_z), the
    # quantum Cramer-Rao bound; the engine computes it there.
    if label == "berry-wiseman":
        state = apply_phase_shifter(state, math.pi / 2.0)
    return detection.phase_uncertainty_limit(state)


def _point_record(n: int, state: TwoModeState, phi: float) -> SweepRecord:
    """The fixed-phi observables of one state, with the reference scales at N."""
    result = detection.phase_uncertainty(state, phi)
    limits = benchmark_limits(n)
    return SweepRecord(
        n_total=n,
        delta_phi=result.delta_phi,
        shot_noise=limits.shot_noise,
        heisenberg=limits.heisenberg,
        bw_povm=limits.bw_povm,
        phi=result.phi,
        expectation_at_phi=result.expectation,
        derivative=result.derivative,
        variance=result.variance,
    )


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """One record per valid N; invalid parity class is skipped with a warning."""
    records: list[SweepRecord] = []
    for n in range(config.n_min, config.n_max + 1):
        try:
            state = build_state(config.state_label, n, config.combined_params)
        except _ParityMismatch as exc:
            print(f"warning: {exc}", file=sys.stderr)
            continue
        if config.phi_mode == "limit":
            limits = benchmark_limits(n)
            records.append(
                SweepRecord(
                    n_total=n,
                    delta_phi=_limit_for(config.state_label, state),
                    shot_noise=limits.shot_noise,
                    heisenberg=limits.heisenberg,
                    bw_povm=limits.bw_povm,
                )
            )
        else:
            records.append(_point_record(n, state, config.phi))
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
    rows = [record.row() for record in records]
    if fmt == "json":
        _emit(_json_payload(_CSV_COLUMNS, rows), output_path)
    else:
        _emit(_csv_payload(_CSV_COLUMNS, rows), output_path)


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


_FIG3_COMBOS = (
    ("combined_23_0", 2.0 / 3.0, 0.0),
    ("combined_13_0", 1.0 / 3.0, 0.0),
    ("combined_12_0", 0.5, 0.0),
    ("combined_12_pi", 0.5, math.pi),
    ("combined_12_pi4", 0.5, math.pi / 4.0),
)


def _fig3_payload() -> str:
    header = (
        ("N", "dual_fock")
        + tuple(name for name, _, _ in _FIG3_COMBOS)
        + ("shot_noise", "heisenberg")
    )
    rows = []
    for n in range(2, 101, 2):
        limits = benchmark_limits(n)
        row: dict = {"N": n}
        row["dual_fock"] = detection.phase_uncertainty_limit(dual_fock_input(n // 2))
        for name, alpha_sq, theta in _FIG3_COMBOS:
            params = CombinedStateParams(
                math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq), theta
            )
            row[name] = detection.phase_uncertainty_limit(combined_input(n, params))
        row["shot_noise"] = limits.shot_noise
        row["heisenberg"] = limits.heisenberg
        rows.append(row)
    return _csv_payload(header, rows)


def _fig4_payload() -> str:
    header = (
        "N",
        "modified_yuen",
        "pezze_smerzi",
        "berry_wiseman",
        "shot_noise",
        "heisenberg",
        "bw_povm",
    )
    rows = []
    for n in range(2, 101):
        limits = benchmark_limits(n)
        row: dict = {
            "N": n,
            "modified_yuen": None,
            "pezze_smerzi": None,
            "berry_wiseman": _limit_for("berry-wiseman", berry_wiseman_internal(n)),
            "shot_noise": limits.shot_noise,
            "heisenberg": limits.heisenberg,
            "bw_povm": limits.bw_povm,
        }
        if n % 2 == 1:
            row["modified_yuen"] = detection.phase_uncertainty_limit(
                yuen_input(n, modified=True)
            )
        else:
            row["pezze_smerzi"] = detection.phase_uncertainty_limit(
                pezze_smerzi_input(n)
            )
        rows.append(row)
    return _csv_payload(header, rows)


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


def _coerce_config(values: dict[str, str]) -> dict:
    out: dict = {}
    for key, value in values.items():
        try:
            if key in ("n_min", "n_max"):
                out[key] = int(value)
            elif key in ("phi", "alpha", "beta", "theta"):
                out[key] = float(value)
            else:
                out[key] = value
        except ValueError as exc:
            raise DomainError(f"config key {key!r}: bad value {value!r}") from exc
    return out


def _merge_sweep_config(args: argparse.Namespace) -> SweepConfig:
    settings: dict = {}
    if args.config:
        settings.update(_coerce_config(_parse_config_file(args.config)))
    if args.state is not None:
        settings["state_label"] = args.state
    if args.n_min is not None:
        settings["n_min"] = args.n_min
    if args.n_max is not None:
        settings["n_max"] = args.n_max
    if args.phi is not None and args.limit:
        raise DomainError("--phi and --limit are mutually exclusive")
    if args.limit:
        settings["phi_mode"] = "limit"
    elif args.phi is not None:
        settings["phi_mode"] = "fixed"
        settings["phi"] = args.phi
    if args.out is not None:
        settings["output_path"] = args.out
    if args.format is not None:
        settings["format"] = args.format
    for key in ("alpha", "beta", "theta"):
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag

    if "state_label" not in settings:
        raise DomainError("missing state label (use --state or a config file)")
    if "n_min" not in settings:
        raise DomainError("missing --n-min")
    settings.setdefault("n_max", settings["n_min"])

    alpha = settings.pop("alpha", None)
    beta = settings.pop("beta", None)
    theta = settings.pop("theta", None)
    params = None
    if settings["state_label"] == "combined":
        root_half = 1.0 / math.sqrt(2.0)
        if alpha is None and beta is not None:
            alpha = math.sqrt(max(1.0 - beta * beta, 0.0))
        if beta is None and alpha is not None:
            beta = math.sqrt(max(1.0 - alpha * alpha, 0.0))
        params = CombinedStateParams(
            alpha if alpha is not None else root_half,
            beta if beta is not None else root_half,
            theta if theta is not None else 0.0,
        )
    elif alpha is not None or beta is not None or theta is not None:
        raise DomainError("--alpha/--beta/--theta apply only to the combined state")
    return SweepConfig(combined_params=params, **settings)


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


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _merge_sweep_config(args)
    records = run_sweep(config)
    _write_records(records, config.output_path, config.format)
    return 0


def _cmd_expectation(args: argparse.Namespace) -> int:
    config = _merge_sweep_config(args)
    if config.n_min != config.n_max:
        raise DomainError("expectation takes a single N (n-min must equal n-max)")
    if config.phi_mode == "limit":
        raise DomainError("expectation reports a fixed-phi point; use sweep --limit")
    state = build_state(config.state_label, config.n_min, config.combined_params)
    record = _point_record(config.n_min, state, config.phi)
    _write_records([record], config.output_path, config.format)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "expectation":
            return _cmd_expectation(args)
        if args.command == "table":
            reproduce_table(args.out)
            return 0
        if args.command == "figure":
            emit_figure_data(args.figure_id, args.out)
            return 0
        parser.error(f"unknown command {args.command!r}")
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MzParityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
