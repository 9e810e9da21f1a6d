"""Two-mode interferometry with parity detection, in the Schwinger basis.

The package computes photon-parity expectation values at the output of a
Mach-Zehnder interferometer, the error-propagation phase uncertainty, and
its small-phase limit, for a catalog of input and internal states.  The
rotation kernel reads every Wigner d number from the J_y eigenvectors it
needs, built per call by a three-term recurrence with nothing cached; an
independent dense Fock-space oracle cross-checks every observable at
small photon number.
"""

from .detection import (
    DISCREPANT_CLOSED_FORMS,
    BenchmarkLimits,
    DetectionResult,
    benchmark_limits,
    closed_form_derivative,
    closed_form_expectation,
    closed_form_parts,
    closed_form_uncertainty,
    closed_form_uncertainty_limit,
    parity_derivative,
    parity_expectation,
    phase_uncertainties,
    phase_uncertainty,
    phase_uncertainty_limit,
    phase_uncertainty_limits,
)
from .errors import (
    ConsistencyError,
    DomainError,
    FrameError,
    MzParityError,
    NormalizationError,
    NumericalLimitError,
)
from .halfint import HalfInt
from .interferometer import (
    apply_beam_splitter,
    apply_mzi,
    apply_phase_shifter,
    q_apply,
)
from .oracle import MAX_ORACLE_PHOTONS, bruteforce_parity_expectation
from .states import (
    STATE_LABELS,
    CombinedStateParams,
    Frame,
    TwoModeState,
    berry_wiseman_internal,
    coherent_input,
    combined_input,
    dual_fock_input,
    fidelity,
    noon_input,
    noon_internal,
    pezze_smerzi_input,
    single_fock_input,
    yuen_input,
    yurke_input,
)
from .wigner import WignerBlock, d_block, d_derivative, d_element

__version__ = "0.1.0"

__all__ = [
    "BenchmarkLimits",
    "CombinedStateParams",
    "ConsistencyError",
    "DISCREPANT_CLOSED_FORMS",
    "DetectionResult",
    "DomainError",
    "Frame",
    "FrameError",
    "HalfInt",
    "MAX_ORACLE_PHOTONS",
    "MzParityError",
    "NormalizationError",
    "NumericalLimitError",
    "STATE_LABELS",
    "TwoModeState",
    "WignerBlock",
    "apply_beam_splitter",
    "apply_mzi",
    "apply_phase_shifter",
    "benchmark_limits",
    "berry_wiseman_internal",
    "bruteforce_parity_expectation",
    "closed_form_derivative",
    "closed_form_expectation",
    "closed_form_parts",
    "closed_form_uncertainty",
    "closed_form_uncertainty_limit",
    "coherent_input",
    "combined_input",
    "d_block",
    "d_derivative",
    "d_element",
    "dual_fock_input",
    "fidelity",
    "noon_input",
    "noon_internal",
    "parity_derivative",
    "parity_expectation",
    "pezze_smerzi_input",
    "phase_uncertainties",
    "phase_uncertainty",
    "phase_uncertainty_limit",
    "phase_uncertainty_limits",
    "q_apply",
    "single_fock_input",
    "yuen_input",
    "yurke_input",
]
