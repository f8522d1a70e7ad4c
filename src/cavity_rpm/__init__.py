"""Spectra, transfer dynamics and N00N statistics for coupled optical cavities.

Two models of a microwave cavity pair share one photon-number sector: a
harmonic pair coupled by tunneling, and an anharmonic pair whose photons
are dressed by a resonant two-level emitter in each cavity.  The package
computes the edge-state spectral weights of that sector three independent
ways (closed forms, dense eigensolver, recursive resolvent projection),
propagates return and transition amplitudes, and scores how close the
dynamics comes to a N00N superposition.
"""

__version__ = "1.0.0"

from .core import (
    AmplitudeSeries,
    LineSpectrum,
    ModelParams,
    NearPoleError,
    NumericalFailureError,
    UnsupportedModelError,
    amplitude_from_lines,
    merge_degenerate_lines,
    resolvent_from_lines,
    smoothed_density,
)
from .dynamics import default_time_grid, evolve, first_transfer_time
from .effective import (
    EigenDecomposition,
    SectorHamiltonian,
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
    spectra_from_eigen,
)
from .entanglement import (
    JointHistogram,
    NoonFeasibility,
    default_sampling_window,
    noon_feasibility,
    noon_score,
    sample_joint,
    score_samples,
)
from .harmonic import harmonic_amplitudes, harmonic_line_spectra, harmonic_overlap
from .jc import (
    DressedState,
    dressed_photon_matrix_element,
    dressed_state,
    jc_energy,
    rabi_amplitudes,
    rabi_line_spectra,
)
from .rpm import (
    check_sign_symmetry,
    pair_coupling_sq,
    pair_energy,
    rpm_resolvent,
    rpm_spectra,
    rpm_walk,
)
from .validation import CheckResult, ValidationReport, run_checks

__all__ = [
    "AmplitudeSeries",
    "CheckResult",
    "DressedState",
    "EigenDecomposition",
    "JointHistogram",
    "LineSpectrum",
    "ModelParams",
    "NearPoleError",
    "NoonFeasibility",
    "NumericalFailureError",
    "SectorHamiltonian",
    "UnsupportedModelError",
    "ValidationReport",
    "amplitude_from_lines",
    "build_sector_hamiltonian",
    "check_sign_symmetry",
    "default_sampling_window",
    "default_time_grid",
    "diagonalize",
    "dressed_photon_matrix_element",
    "dressed_state",
    "evolve",
    "first_transfer_time",
    "harmonic_amplitudes",
    "harmonic_line_spectra",
    "harmonic_overlap",
    "jc_energy",
    "merge_degenerate_lines",
    "noon_feasibility",
    "noon_score",
    "pair_coupling_sq",
    "parity_chain_spectra",
    "pair_energy",
    "rabi_amplitudes",
    "rabi_line_spectra",
    "resolvent_from_lines",
    "rpm_resolvent",
    "rpm_spectra",
    "rpm_walk",
    "run_checks",
    "sample_joint",
    "score_samples",
    "smoothed_density",
    "spectra_from_eigen",
    "__version__",
]
