"""What one pass of each workload runs, and how its outputs are checked.

A pass calls the package's public entry points: ``mzparity.cli.main`` with
``--out`` to a file for the CLI workloads, the library functions for
``layers``.  Every function is looked up on its module at call time, so the
span recorder in ``spans.py`` sees the calls once it has patched the modules.

Checks run after the timer stops.  They compare against references with
relative tolerances, never against golden files, because a change of
algorithm (for instance an exact phi -> 0 limit in place of extrapolation)
legitimately moves trailing digits.  Each compared value is one result; a
command that raised or exited nonzero is one failed result.
"""

from __future__ import annotations

import csv
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from mzparity import cli, detection, interferometer, oracle, states, wigner

WORKLOADS = ("figures", "noon_limit", "point_sweeps", "layers")

PHI_RANGE = (1e-3, 0.5)
# Above phi ~ 0.1 every dual-Fock block leaves the factorial sum for the
# eigen-block fallback; below it the sweep is ten times cheaper.  Drawing
# from the upper part keeps that path exercised and keeps the cost of a
# pass independent of where a seed lands.
DUAL_FOCK_PHI_RANGE = (0.1, 0.5)
# Rotation angles for the d-block timings; synthesis cost does not depend
# on the angle once it is nonzero.
THETA_RANGE = (0.1, math.pi)
# Thetas per block size in the layers pass: the first call at each size
# also builds the J_y eigensystem, the rest time synthesis alone.
D_BLOCK_THETAS = {50: 8, 200: 8, 1000: 5}

LIMIT_RTOL = 1e-6  # worst seen at this baseline: 5e-8 (coherent, nbar = 100)
POINT_RTOL = 1e-8  # worst seen: 1.4e-12 relative
KERNEL_ATOL = 1e-9  # d-block entries are bounded by 1 in magnitude
NORM_TOL = 1e-12


class Tally:
    """Counts compared results and keeps the messages of failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def close(self, what: str, got, want: float, rtol: float, scale: float = 0.0) -> None:
        """|got - want| <= rtol * max(|want|, scale); NaN and None fail."""
        if got is None or want is None:
            ok = False
        elif math.isinf(want):
            ok = got == want
        else:
            ok = math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), scale)
        self.expect(ok, f"{what}: got {got!r}, want {want!r}")


def _number(text: str):
    return None if text == "" else float(text)


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="ascii", newline="") as handle:
        return [
            {key: (value if key in ("state_label", "fock_state", "note") else _number(value))
             for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]


def noon_limit_ref(n: int) -> float:
    return 1.0 / n


def dual_fock_limit_ref(n: int) -> float:
    return math.sqrt(2.0) / math.sqrt(n * (n + 2.0))


def dual_fock_point_ref(n: int, phi: float) -> tuple[float, float]:
    """<P> and d<P>/dphi for |N/2, N/2>: (-1)^(N/2) P_{N/2}(cos 2 phi).

    Legendre series by Clenshaw recurrence, independent of the Wigner
    kernel that both the engine and the quoted closed form use.
    """
    j = n // 2
    coeffs = np.zeros(j + 1)
    coeffs[j] = 1.0
    x = math.cos(2.0 * phi)
    sign = -1.0 if j % 2 else 1.0
    value = sign * float(legendre.legval(x, coeffs))
    slope = sign * float(legendre.legval(x, legendre.legder(coeffs))) * -2.0 * math.sin(2.0 * phi)
    return value, slope


def _check_n_column(tally: Tally, what: str, rows: list[dict], n_values: range) -> None:
    tally.expect([row["N"] for row in rows] == list(n_values), f"{what}: N column is not {n_values}")


def _check_scales(tally: Tally, what: str, row: dict, n: int) -> None:
    tally.close(f"{what} shot_noise", row["shot_noise"], 1.0 / math.sqrt(n), 1e-12)
    tally.close(f"{what} heisenberg", row["heisenberg"], 1.0 / n, 1e-12)


# -- CLI workloads -----------------------------------------------------------


@dataclass
class CliCommand:
    """One ``mzparity`` invocation, its output file and the check of its rows.

    ``key`` names the column holding the command's main result; the
    self-test perturbs it to show that the check notices.
    """

    tag: str
    argv: list[str]
    check: Callable[[list[dict], "Tally"], None]
    key: str


def check_fig2(rows: list[dict], tally: Tally) -> None:
    tally.expect(len(rows) == 101, f"fig2: {len(rows)} rows, want 101")
    vec = np.array([complex(row["re"], row["im"]) for row in rows])
    tally.close("fig2 norm", float(np.sum(np.abs(vec) ** 2)), 1.0, NORM_TOL)
    for row in rows:
        tally.close(f"fig2 abs at 2mu={row['two_mu']:g}", row["abs"], math.hypot(row["re"], row["im"]), 1e-12)
    # Undoing the beam splitter must give back the N = 100 NOON state.
    image = interferometer.apply_beam_splitter(
        states.TwoModeState({100: vec}, states.Frame.AT_INPUT, "fig2"), inverse=True
    )
    tally.close("fig2 NOON fidelity", states.fidelity(image, states.noon_internal(100)), 1.0, 1e-10)


def check_fig3(rows: list[dict], tally: Tally) -> None:
    _check_n_column(tally, "fig3", rows, range(2, 101, 2))
    for row in rows:
        n = int(row["N"])
        tally.close(f"fig3 dual_fock N={n}", row["dual_fock"], dual_fock_limit_ref(n), LIMIT_RTOL)
        # The quoted combined-state closed form is discrepant, so the curves
        # are held to the Heisenberg bound delta_phi >= 1/N instead.
        for name in (key for key in row if key.startswith("combined_")):
            value = row[name]
            tally.expect(
                value is not None and math.isfinite(value) and value >= (1.0 - LIMIT_RTOL) / n,
                f"fig3 {name} N={n}: {value!r} is not a finite value >= 1/N",
            )
        _check_scales(tally, f"fig3 N={n}", row, n)


def check_fig4(rows: list[dict], tally: Tally) -> None:
    _check_n_column(tally, "fig4", rows, range(2, 101))
    for row in rows:
        n = int(row["N"])
        column, label = ("modified_yuen", "modified-yuen") if n % 2 else ("pezze_smerzi", "pezze-smerzi")
        want = detection.closed_form_uncertainty_limit(label, n)
        tally.close(f"fig4 {column} N={n}", row[column], want, LIMIT_RTOL)
        want = detection.closed_form_uncertainty_limit("berry-wiseman", n)
        tally.close(f"fig4 berry_wiseman N={n}", row["berry_wiseman"], want, LIMIT_RTOL)
        povm = 1.0 if n == 2 else math.tan(math.pi / (n + 2))
        tally.close(f"fig4 bw_povm N={n}", row["bw_povm"], povm, 1e-12)
        _check_scales(tally, f"fig4 N={n}", row, n)


# Exact phi -> 0 limits at N = 8 for the table rows that print a closed form.
_TABLE_EXACT = {
    "coherent": 1.0 / math.sqrt(8.0),
    "single-fock": 1.0 / math.sqrt(8.0),
    "dual-fock": dual_fock_limit_ref(8),
    "yurke": 1.0 / math.sqrt(4.0 * 5.0),
    "noon": noon_limit_ref(8),
}


def check_table(rows: list[dict], tally: Tally) -> None:
    tally.expect(len(rows) == 8, f"table: {len(rows)} rows, want 8")
    for row in rows:
        label, n = row["state_label"], int(row["n_total"])
        what = f"table row {row['row']:g} {label}"
        if label in _TABLE_EXACT:
            want = _TABLE_EXACT[label]
            tally.close(f"{what} closed_form column", row["closed_form"], want, 1e-12)
        else:
            want = detection.closed_form_uncertainty_limit(label, n)
        tally.close(what, row["computed"], want, LIMIT_RTOL)


def check_noon_limits(n_values: range):
    def check(rows: list[dict], tally: Tally) -> None:
        _check_n_column(tally, "noon limit", rows, n_values)
        for row in rows:
            n = int(row["N"])
            tally.close(f"noon limit N={n}", row["delta_phi"], noon_limit_ref(n), LIMIT_RTOL)
            _check_scales(tally, f"noon limit N={n}", row, n)

    return check


def check_point_sweep(label: str, phi: float, n_values: range):
    """Engine point values against the closed form (and oracle for N <= 12)."""

    def check(rows: list[dict], tally: Tally) -> None:
        _check_n_column(tally, f"{label} sweep", rows, n_values)
        for row in rows:
            n = int(row["N"])
            what = f"{label} N={n} phi={phi!r}"
            tally.close(f"{what} phi column", row["phi"], phi, 0.0)
            expectation = detection.closed_form_expectation(label, n, phi)
            derivative = detection.closed_form_derivative(label, n, phi)
            tally.close(f"{what} expectation", row["expectation"], expectation, POINT_RTOL, 1.0)
            tally.close(f"{what} derivative", row["derivative"], derivative, POINT_RTOL, 1.0)
            if label == "dual-fock":
                expectation, derivative = dual_fock_point_ref(n, phi)
                tally.close(f"{what} expectation (Legendre)", row["expectation"], expectation, POINT_RTOL, 1.0)
                tally.close(f"{what} derivative (Legendre)", row["derivative"], derivative, POINT_RTOL, 1.0)
            # Coherent states carry blocks far above N, beyond the oracle's cap.
            if label != "coherent" and n <= oracle.MAX_ORACLE_PHOTONS:
                want = oracle.bruteforce_parity_expectation(cli.build_state(label, n), phi)
                tally.close(f"{what} expectation (oracle)", row["expectation"], want, POINT_RTOL, 1.0)
            variance = math.sqrt(max(1.0 - row["expectation"] ** 2, 0.0))
            tally.close(f"{what} variance", row["variance"], variance, POINT_RTOL, 1.0)
            slope = abs(row["derivative"])
            delta_phi = variance / slope if slope >= 1e-14 else math.inf  # the package's floor
            tally.close(f"{what} delta_phi", row["delta_phi"], delta_phi, POINT_RTOL)

    return check


def _sweep(label: str, n_min: int, n_max: int, mode: list[str]) -> list[str]:
    return ["sweep", "--state", label, "--n-min", str(n_min), "--n-max", str(n_max)] + mode


def cli_commands(workload: str, seed: int) -> list[CliCommand]:
    if workload == "figures":
        return [
            CliCommand("fig2", ["figure", "fig2"], check_fig2, "re"),
            CliCommand("fig3", ["figure", "fig3"], check_fig3, "dual_fock"),
            CliCommand("fig4", ["figure", "fig4"], check_fig4, "pezze_smerzi"),
            CliCommand("table", ["table"], check_table, "computed"),
        ]
    if workload == "noon_limit":
        # The second band fills the per-theta block cache to ~290 MB, so the
        # memory cliff shows at a size that many repeated runs can afford.
        return [
            CliCommand(f"noon_limit_{lo}_{hi}", _sweep("noon", lo, hi, ["--limit"]),
                       check_noon_limits(range(lo, hi + 1)), "delta_phi")
            for lo, hi in ((1, 200), (400, 420))
        ]
    if workload == "point_sweeps":
        rng = random.Random(seed)
        commands = []
        for label, n_min, n_max, step, phi_range in (
            ("coherent", 1, 150, 1, PHI_RANGE),
            ("noon", 1, 250, 1, PHI_RANGE),
            ("dual-fock", 2, 300, 2, DUAL_FOCK_PHI_RANGE),
        ):
            phi = rng.uniform(*phi_range)
            commands.append(
                CliCommand(f"{label}_sweep", _sweep(label, n_min, n_max, ["--phi", repr(phi)]),
                           check_point_sweep(label, phi, range(n_min, n_max + 1, step)), "expectation")
            )
        return commands
    raise ValueError(f"{workload!r} is not a CLI workload")


def run_cli(commands: list[CliCommand], work_dir: str) -> dict[str, str | None]:
    """Run each command; map its tag to None on success or to the error."""
    outcome: dict[str, str | None] = {}
    for command in commands:
        path = os.path.join(work_dir, command.tag + ".csv")
        try:
            code = cli.main(command.argv + ["--out", path])
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            outcome[command.tag] = f"{type(exc).__name__}: {exc}"
            continue
        outcome[command.tag] = None if code == 0 else f"exit code {code}"
    return outcome


def check_cli(commands: list[CliCommand], outcome: dict, work_dir: str, tally: Tally) -> None:
    for command in commands:
        error = outcome.get(command.tag, "not run")
        if error is not None:
            tally.expect(False, f"{command.tag}: {error}")
            continue
        command.check(read_csv(os.path.join(work_dir, command.tag + ".csv")), tally)


# -- layers workload -----------------------------------------------------------


class LayerInputs:
    """Seeded thetas and phis for one layers pass."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.thetas = {two_j: [rng.uniform(*THETA_RANGE) for _ in range(k)]
                       for two_j, k in D_BLOCK_THETAS.items()}
        self.mzi_phi = rng.uniform(*PHI_RANGE)
        self.phi = rng.uniform(*PHI_RANGE)
        self.sample_seed = rng.randrange(2**31)


def run_layers(inputs: LayerInputs) -> tuple[dict, dict[str, list[float]]]:
    """Time each layer call once, in a fixed order; return values and ms.

    The order matters for what a call includes: the first d_block at each
    size also builds that size's J_y eigensystem, which ``noon_input(200)``
    then finds cached.  A derivative is taken at the phi of the expectation
    before it, as ``phase_uncertainty`` does, so it reuses that d-block.
    """
    values: dict = {}
    times: dict[str, list[float]] = {}

    def timed(key: str, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        times.setdefault(key, []).append((time.perf_counter() - start) * 1e3)
        return value

    for two_j, thetas in inputs.thetas.items():
        blocks = []
        for index, theta in enumerate(thetas):
            key = f"wigner.d_block_first_ms.n{two_j}" if index == 0 else f"wigner.d_block_ms.n{two_j}"
            blocks.append(timed(key, wigner.d_block, two_j / 2, theta))
        values[f"d_block.n{two_j}"] = blocks
    built = {
        "noon200": timed("states.noon_input_ms.n200", states.noon_input, 200),
        "coherent100": timed("states.coherent_input_ms.nbar100", states.coherent_input, 100.0),
        "dual_fock100": timed("states.dual_fock_input_ms.n100", states.dual_fock_input, 50),
    }
    values["states"] = built
    values["mzi"] = timed("interferometer.apply_mzi_ms.noon200", interferometer.apply_mzi,
                          built["noon200"], inputs.mzi_phi)
    for tag, state in built.items():
        for kind, fn, args in (
            ("expectation", detection.parity_expectation, (state, inputs.phi)),
            ("derivative", detection.parity_derivative, (state, inputs.phi)),
            ("limit", detection.phase_uncertainty_limit, (state,)),
        ):
            values[f"{kind}.{tag}"] = timed(f"detection.{kind}_ms.{tag}", fn, *args)
    return values, times


def _point_refs(tag: str, phi: float) -> tuple[float, float]:
    """Closed-form <P> and d<P>/dphi for the layers states; Legendre for dual-Fock."""
    if tag == "dual_fock100":
        return dual_fock_point_ref(100, phi)
    label, n = {"noon200": ("noon", 200), "coherent100": ("coherent", 100.0)}[tag]
    return (detection.closed_form_expectation(label, n, phi),
            detection.closed_form_derivative(label, n, phi))


_LIMIT_REFS = {
    "noon200": noon_limit_ref(200),
    "coherent100": 1.0 / math.sqrt(100.0),
    "dual_fock100": dual_fock_limit_ref(100),
}


def check_layers(inputs: LayerInputs, values: dict, tally: Tally) -> None:
    rng = np.random.default_rng(inputs.sample_seed)
    for two_j, thetas in inputs.thetas.items():
        for theta, block in zip(thetas, values[f"d_block.n{two_j}"]):
            what = f"d_block 2j={two_j} theta={theta!r}"
            d = block.elements
            off = float(np.max(np.abs(d @ d.T - np.eye(two_j + 1))))
            tally.expect(off <= 1e-10, f"{what}: |D D^T - 1| = {off!r}")
            for row, col in rng.integers(0, two_j + 1, size=(6, 2)):
                want = wigner.d_element(two_j / 2, two_j / 2 - row, two_j / 2 - col, theta)
                tally.close(f"{what} entry ({row}, {col})", float(d[row, col]), want, KERNEL_ATOL, 1.0)
    for name, state in values["states"].items():
        tally.close(f"{name} norm", state.norm(), 1.0, NORM_TOL)
    mzi = values["mzi"]
    tally.close("apply_mzi norm", mzi.norm(), 1.0, NORM_TOL)
    # <P> at phi = 0 after the rotation is <P>(phi) of the input state.
    tally.close("apply_mzi parity", detection.parity_expectation(mzi, 0.0),
                detection.closed_form_expectation("noon", 200, inputs.mzi_phi), POINT_RTOL, 1.0)
    for tag in values["states"]:
        expectation, derivative = _point_refs(tag, inputs.phi)
        tally.close(f"{tag} expectation", values[f"expectation.{tag}"], expectation, POINT_RTOL, 1.0)
        tally.close(f"{tag} derivative", values[f"derivative.{tag}"], derivative, POINT_RTOL, 1.0)
        tally.close(f"{tag} limit", values[f"limit.{tag}"], _LIMIT_REFS[tag], LIMIT_RTOL)


# -- one pass ------------------------------------------------------------------


class Pass:
    """The inputs of one workload at one seed; run() is the timed part."""

    def __init__(self, workload: str, seed: int, work_dir: str) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.work_dir = work_dir
        if workload == "layers":
            self.inputs = LayerInputs(seed)
        else:
            self.commands = cli_commands(workload, seed)
        self.call_ms: dict[str, list[float]] = {}

    def run(self):
        if self.workload == "layers":
            values, self.call_ms = run_layers(self.inputs)
            return values
        return run_cli(self.commands, self.work_dir)

    def check(self, outputs, tally: Tally) -> None:
        if self.workload == "layers":
            check_layers(self.inputs, outputs, tally)
        else:
            check_cli(self.commands, outputs, self.work_dir, tally)
