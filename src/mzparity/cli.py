"""Command-line surface: sweeps, reference-table and figure-data emission.

Every number takes one route, and each family group stays one flat batch
(one ``TwoModeState``) from its builder to its output lines.  ``_FAMILIES``
maps each label to a builder that takes an array of N in the family's
parity class (one mask over the N) and returns their states as one batch.
``_family_states`` builds the N in groups whose stored rows (N + 1 where
they grow with N, else 2) sum to at most ``_GROUP_ROWS``, as they are
needed; ``noon`` and ``combined`` are built inside the interferometer, so
their points and limits read their stored rows through Q in O(N).  A
sweep makes one detection call per group, ``detection._point_columns`` or
``detection._limit_column`` (on groups from ``_LIMIT_FAMILIES``, where
berry-wiseman is built behind a quarter turn); fig3, fig4 and the table
join all their groups and make one ``_limit_column`` call each.
Detection cuts what it is given into passes of bounded size, so memory
stays bounded at any N.  Output lines are formatted straight from the
returned columns, with no per-state object or per-N record.  In the table
and the fig3/fig4 curves a family outside its parity class leaves an
empty cell (a warning and a skipped row in a sweep).

Output is deterministic: a fixed config produces byte-identical files.
Floats are written with 17 significant digits so CSV round-trips exactly;
infinities appear as "inf" and absent optional fields as empty cells.

Exit codes: 0 success, 2 invalid arguments or invalid domain values,
3 numerical failure (a limit that neither converges nor diverges, or an
internal consistency check tripping).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import detection
from .detection import benchmark_limits
from .errors import DomainError, MzParityError
from .interferometer import _quarter_turn
from .states import (
    FAMILY_PARITY,
    STATE_LABELS,
    CombinedStateParams,
    TwoModeState,
    _MAX_PHOTONS,
    _cuts,
    _joined,
    _positive_int,
    _berry_wiseman_states,
    _coherent_states,
    _combined_states,
    _dual_fock_states,
    _noon_states,
    _pezze_smerzi_states,
    _single_fock_states,
    _yuen_states,
    _yurke_states,
    noon_input,
    parity_needed,
)

__all__ = [
    "SweepConfig",
    "build_state",
    "emit_figure_data",
    "main",
    "reproduce_table",
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
        for name in ("n_min", "n_max"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        if self.n_max >= _MAX_PHOTONS:
            raise DomainError(f"n_max = {self.n_max} photons, over the budget of 2^48")
        if self.phi_mode not in ("fixed", "limit"):
            raise DomainError(f"phi_mode must be 'fixed' or 'limit', got {self.phi_mode!r}")
        if self.format not in ("csv", "json"):
            raise DomainError(f"format must be 'csv' or 'json', got {self.format!r}")
        if (self.combined_params is not None) != (self.state_label == "combined"):
            raise DomainError(
                "alpha/beta/theta parameters apply exactly when state is 'combined'"
            )


# label -> builder of the family's states at an array of total photon
# numbers, all in its parity class.  NOON and combined are built in their
# inside form, the image of the at-input state under the inverse beam
# splitter.  Each entry looks its builder up when called, so a run that
# patches these module globals sees every call.
_FAMILIES = {
    "coherent": lambda ns, params: _coherent_states(ns),
    "single-fock": lambda ns, params: _single_fock_states(ns),
    "dual-fock": lambda ns, params: _dual_fock_states(ns),
    "yurke": lambda ns, params: _yurke_states(ns),
    "yuen": lambda ns, params: _yuen_states(ns, modified=False),
    "modified-yuen": lambda ns, params: _yuen_states(ns, modified=True),
    "pezze-smerzi": lambda ns, params: _pezze_smerzi_states(ns),
    "noon": lambda ns, params: _noon_states(ns, "noon-internal"),
    "noon-internal": lambda ns, params: _noon_states(ns, "noon-internal"),
    "berry-wiseman": lambda ns, params: _berry_wiseman_states(ns),
    "combined": lambda ns, params: _combined_states(ns, params or CombinedStateParams()),
}

# The builders whose groups the phi -> 0 limits are read on.  The
# berry-wiseman state gives a flat parity signal at phi = 0, so its limit
# diverges.  Its finite limit belongs to parity detection behind a pi/2
# bias, where it equals 1/(2 Delta J_z), the quantum Cramer-Rao bound; the
# engine computes it there, with the pi/2 phases applied exactly to each
# group as it is built, so the unbiased group does not outlive its
# builder call.
_LIMIT_FAMILIES = {
    **_FAMILIES,
    "berry-wiseman": lambda ns, params: _quarter_turn(_berry_wiseman_states(ns)),
}


def _outside_class(label: str, n: int) -> str | None:
    """Why N is outside the family's parity class, or None."""
    need = parity_needed(label, n)
    return None if need is None else f"{label} is defined for {need} N; N={n}"


def build_state(
    label: str, n: int, params: CombinedStateParams | None = None
) -> TwoModeState:
    """Construct the named family at total photon number n: its builder on a group of one N."""
    why = _outside_class(label, n)
    if why is not None:
        raise DomainError(why)
    if label not in _FAMILIES:
        raise DomainError(f"unknown state label {label!r}")
    return _FAMILIES[label]([n], params)


# Bound of one builder call, in the rows its states store: N + 1, the rows
# of a dense block, for the families in ``_GROWING``, whose stored rows grow
# with N, and 2 for the others, which store one or two.  Detection bounds
# its own passes (``detection._PASS_ENTRIES``), so a group goes to it whole.
_GROUP_ROWS = 2**13
_GROWING = frozenset({"coherent", "berry-wiseman", "combined"})


def _family_states(label, ns, params=None, warn=False, limit=False) -> Iterator[tuple]:
    """(N, batch) of each group of the N of ns (rising) in the family's parity class.

    Each group is built by one builder call as it is consumed, from
    ``_LIMIT_FAMILIES`` if limit, else from ``_FAMILIES``.  If warn,
    the N skipped below the next group's first N are warned of in one
    write before each group is built, and the rest at the end.
    """
    ns = np.asarray(ns)
    need = FAMILY_PARITY.get(label)
    kept = ns if need is None else ns[ns % 2 == (need == "odd")]
    skipped = ns[ns % 2 != (need == "odd")] if warn and need is not None else ns[:0]
    cuts = _cuts(kept + 1 if label in _GROWING else np.full(kept.size, 2), _GROUP_ROWS)
    told = 0
    for a, b in zip(cuts, cuts[1:]):
        upto = int(skipped.searchsorted(kept[b])) if b < kept.size else skipped.size
        _warn_skipped(label, skipped[told:upto])
        told = upto
        yield kept[a:b], (_LIMIT_FAMILIES if limit else _FAMILIES)[label](kept[a:b], params)
    _warn_skipped(label, skipped[told:])


def _warn_skipped(label: str, ns: np.ndarray) -> None:
    """Warn that the N of ns, outside the family's parity class, are skipped, in one write."""
    if ns.size:
        sys.stderr.write("".join(f"warning: {_outside_class(label, n)} skipped\n"
                                 for n in ns.tolist()))


def _sweep_rows(config: SweepConfig) -> Iterator[tuple]:
    """N, delta phi (after <P>, d<P>/dphi and Delta P at fixed phi) and the scales, per row.

    The N are laid out in windows of at most ``_GROUP_ROWS``, so no array
    spans the whole range.
    """
    limit = config.phi_mode == "limit"
    for first in range(config.n_min, config.n_max + 1, _GROUP_ROWS):
        ns = np.arange(first, min(first + _GROUP_ROWS, config.n_max + 1))
        for group, batch in _family_states(config.state_label, ns, config.combined_params,
                                           True, limit):
            columns = (detection._limit_column(batch) if limit
                       else detection._point_columns(batch, config.phi))
            for row in zip(group.tolist(), *np.atleast_2d(columns).tolist()):
                yield row + detection._scales(row[0])


def _sweep_payload(config: SweepConfig) -> str:
    """The sweep's output, from the columns: one CSV template, its phi cell formatted once."""
    fill = (None,) * 4 if config.phi_mode == "limit" else (float(config.phi),)
    if config.format == "json":
        return _json_payload(_CSV_COLUMNS, ((r[0], *fill, *r[1:]) for r in _sweep_rows(config)))
    cells = [_CELLS[type(value)] % value for value in fill]
    template = ",".join(["%d", *cells] + ["%.17g"] * (len(_CSV_COLUMNS) - 1 - len(fill)))
    return "\n".join([",".join(_CSV_COLUMNS), *[template % r for r in _sweep_rows(config)]]) + "\n"


# The CSV cell of each type of value: "%.0s" makes None an empty cell.
_CELLS = {int: "%d", float: "%.17g", str: "%s", type(None): "%.0s"}


def _quoted(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_payload(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    """CSV text of rows, tuples in header order, each row formatted in one step.

    ints are written as digits, floats with 17 significant digits (inf as
    "inf"), None as an empty cell, and strings quoted where they hold a
    comma, a quote or a newline.  Rows with the same types of values share
    one template.
    """
    lines, templates = [",".join(header)], {}
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_CELLS.__getitem__, kinds))
        if str in kinds:
            row = tuple(_quoted(value) if type(value) is str else value for value in row)
        lines.append(template % row)
    return "\n".join(lines) + "\n"


def _json_ready(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _json_payload(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    data = [{column: _json_ready(value) for column, value in zip(header, row)} for row in rows]
    return json.dumps(data, indent=2) + "\n"


def _emit(payload: str, output_path: str) -> None:
    if output_path == "-":
        sys.stdout.write(payload)
        return
    with open(output_path, "wb") as handle:
        handle.write(payload.encode("ascii"))


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
    batch = _joined([_LIMIT_FAMILIES[label]([n_row], None) for _, label, _, n_row, _, _ in plan])
    limits = detection._limit_column(batch).tolist()
    rows = []
    for (index, label, fock, n_row, closed, note), computed in zip(plan, limits):
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
    cells = (tuple(map(row.get, _TABLE_HEADER)) for row in rows)
    _emit(_csv_payload(_TABLE_HEADER, cells), output_path)
    return rows


def _fig2_payload() -> str:
    vec = noon_input(100).block(100)
    rows = (
        (100 - 2 * i, float(amp.real), float(amp.imag), float(abs(amp)))
        for i, amp in enumerate(vec)
    )
    return _csv_payload(("two_mu", "re", "im", "abs"), rows)


def _limit_curves(ns: np.ndarray, curves: list[tuple], povm: bool) -> str:
    """CSV of phi -> 0 limits, one row per N and one column per curve.

    Each curve is (column, label, params), built over ns in its family's
    groups; shot_noise and heisenberg follow, and bw_povm if povm.  A
    family outside its parity class at N leaves its cell empty.
    """
    references = ("shot_noise", "heisenberg", "bw_povm")[: 2 + povm]
    header = ("N",) + tuple(column for column, _, _ in curves) + references
    groups = [
        (c * ns.size + np.searchsorted(ns, group), batch)
        for c, (_, label, params) in enumerate(curves)
        for group, batch in _family_states(label, ns, params, limit=True)
    ]
    cells = np.full((len(curves), ns.size), math.nan)  # NaN: no limit at N, an empty cell
    limits = detection._limit_column(_joined([batch for _, batch in groups]))
    cells.flat[np.concatenate([at for at, _ in groups])] = limits
    return _csv_payload(header, (
        (n, *(None if math.isnan(cell) else cell for cell in row),
         *detection._scales(n)[: len(references)])
        for n, row in zip(ns.tolist(), cells.T.tolist())
    ))


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
    return _limit_curves(np.arange(2, 101, 2), curves, povm=False)


def _fig4_payload() -> str:
    curves = [
        ("modified_yuen", "modified-yuen", None),
        ("pezze_smerzi", "pezze-smerzi", None),
        ("berry_wiseman", "berry-wiseman", None),
    ]
    return _limit_curves(np.arange(2, 101), curves, povm=True)


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


@functools.cache
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
    _emit(_sweep_payload(config), config.output_path)


def _cmd_expectation(args: argparse.Namespace) -> None:
    config = _merge_sweep_config(args)
    if config.n_min != config.n_max:
        raise DomainError("expectation takes a single N (n-min must equal n-max)")
    if config.phi_mode == "limit":
        raise DomainError("expectation reports a fixed-phi point; use sweep --limit")
    why = _outside_class(config.state_label, config.n_min)
    if why is not None:
        raise DomainError(why)
    _emit(_sweep_payload(config), config.output_path)


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
