"""Beam-splitter, phase-shifter and full-interferometer transforms.

Conventions, fixed once and cross-checked against the brute-force oracle:

* the 50:50 beam splitter is exp(-i pi/2 J_x) (``inverse=False``) or its
  adjoint exp(+i pi/2 J_x) (``inverse=True``), realized through the
  factorization exp(-i pi/2 J_x) = exp(i pi/2 J_z) exp(-i pi/2 J_y)
  exp(-i pi/2 J_z): diagonal phases around a J_y rotation by -+ pi/2.
  Applying it toggles the frame tag.
* the phase shifter multiplies |j,mu> by exp(-i mu phi) and acts only on
  inside-interferometer states.
* the full interferometer is exp(-i phi J_y), applied block by block:
  a block is projected on its J_y eigenvectors, phased and mapped back
  (``wigner._rotate``), or, when its only nonzero rows are mu = +-j,
  rotated through the closed-form edge columns of d (no d-block is
  formed);
  the composition beam splitter -> phase shifter -> inverse beam splitter
  reproduces it exactly (not merely up to phase), which the tests check.
* every transform returns its state in stored form: the rotated blocks
  are dense, and their nonzero rows are written straight into the flat
  arrays (``states._nonzero_rows``), so exact zeros, such as the
  underflowed tails of ``noon_input`` at large N, are not stored.

The parity operator on one output mode, P = (-1)^(j - J_z), is diagonal
in this basis; conjugating it through the output beam splitter gives the
inside-frame detection operator Q = exp(-i pi/2 J_x) P exp(+i pi/2 J_x),
whose exact matrix elements are <j,nu|Q|j,mu> = i^N (-1)^(j-nu)
delta_{nu,-mu} with N = 2j.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, FrameError
from .states import Frame, TwoModeState, _nonzero_rows
from .wigner import _I_POWERS, _rotate

__all__ = [
    "apply_beam_splitter",
    "apply_mzi",
    "apply_phase_shifter",
    "q_apply",
]


def _output(state: TwoModeState, dense: list[np.ndarray], frame: Frame) -> TwoModeState:
    """The state whose blocks, in the order of state's, have the dense vectors ``dense``."""
    stored = _nonzero_rows(state.two_js, dense)
    return TwoModeState._from_rows(*stored, frame, state.label, state.truncation_tail)


def _finite_phase(phi) -> float:
    phi = float(phi)
    if not math.isfinite(phi):
        raise DomainError(f"phase phi must be finite, got {phi!r}")
    return phi


def apply_mzi(state: TwoModeState, phi: float) -> TwoModeState:
    """Full interferometer exp(-i phi J_y), block by block."""
    if state.frame is not Frame.AT_INPUT:
        raise FrameError(
            "apply_mzi needs an at-input state; use apply_phase_shifter for "
            "inside-interferometer states"
        )
    phi = _finite_phase(phi)
    dense = [_rotate(two_j, rows, amps, phi) for two_j, rows, amps in state.stored_blocks()]
    return _output(state, dense, state.frame)


# exp(i pi k / 4) for k = 0 .. 7, exact to the last bit
_HALF = math.sqrt(0.5)
_EIGHTH_TURNS = np.array(
    [1, _HALF + _HALF * 1j, 1j, -_HALF + _HALF * 1j,
     -1, -_HALF - _HALF * 1j, -1j, _HALF - _HALF * 1j]
)


def _quarter_phases(two_js, rows) -> np.ndarray:
    """exp(-i pi mu / 2) on rows r of blocks 2j (mu = j - r): exp(i pi k / 4), k = 2r - 2j, exact."""
    return _EIGHTH_TURNS[(2 * rows - two_js) % 8]


def apply_beam_splitter(state: TwoModeState, inverse: bool = False) -> TwoModeState:
    """50:50 beam splitter exp(-+ i pi/2 J_x); toggles the frame tag.

    The phases exp(-+ i pi mu / 2) around the J_y rotation are read from
    the eight values exp(i pi k / 4) at k = -+2mu mod 8, so they carry no
    rounding that grows with mu.
    """
    middle = -0.5 * math.pi if inverse else 0.5 * math.pi
    dense = []
    for two_j, rows, amps in state.stored_blocks():
        inner = _quarter_phases(two_j, rows) * amps
        two_mu = two_j - 2 * np.arange(two_j + 1)
        dense.append(_EIGHTH_TURNS[two_mu % 8] * _rotate(two_j, rows, inner, middle))
    flipped = (
        Frame.INSIDE_INTERFEROMETER
        if state.frame is Frame.AT_INPUT
        else Frame.AT_INPUT
    )
    return _output(state, dense, flipped)


def _shifted(state: TwoModeState, phases: np.ndarray) -> TwoModeState:
    """The inside state whose stored amplitudes are state's times phases."""
    if state.frame is not Frame.INSIDE_INTERFEROMETER:
        raise FrameError("apply_phase_shifter needs an inside-interferometer state")
    return TwoModeState._from_rows(
        state.two_js,
        state.offsets,
        state.rows,
        phases * state.amplitudes,
        state.frame,
        state.label,
        state.truncation_tail,
    )


def apply_phase_shifter(state: TwoModeState, phi: float) -> TwoModeState:
    """Phase accumulation exp(-i phi J_z) between the beam splitters."""
    phi = _finite_phase(phi)
    mu = (np.repeat(state.two_js, state.sizes) - 2.0 * state.rows) / 2.0
    return _shifted(state, np.exp(-1j * phi * mu))


def _quarter_turn(state: TwoModeState) -> TwoModeState:
    """The phase shifter at phi = pi/2, its phases exact (``_quarter_phases``).

    ``math.pi / 2`` is not pi/2, so apply_phase_shifter's phases there
    drift by about mu x 1e-16, which at large N the phi -> 0 limit of
    the biased state reads as a first-order term.
    """
    return _shifted(state, _quarter_phases(np.repeat(state.two_js, state.sizes), state.rows))


def q_apply(two_j: int, vec: np.ndarray) -> np.ndarray:
    """Q = exp(-i pi/2 J_x) P exp(+i pi/2 J_x) on one dense block.

    (Q v)_i = i^N (-1)^i v_(N-i): an anti-diagonal with alternating
    signs and a global i^N.  The detection engine applies the same map to
    the stored rows of a state directly; this dense form is the reference
    the tests hold it to.
    """
    signs = np.where(np.arange(two_j + 1) % 2 == 0, 1.0, -1.0)
    return _I_POWERS[two_j % 4] * signs * vec[::-1]
