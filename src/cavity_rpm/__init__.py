"""Spectra, transfer dynamics and N00N statistics for coupled optical cavities.

Two models of a microwave cavity pair share one photon-number sector: a
harmonic pair coupled by tunneling, and an anharmonic pair whose photons
are dressed by a resonant two-level emitter in each cavity.  The package
computes the edge-state spectral weights of that sector three independent
ways (closed forms, dense eigensolver, recursive resolvent projection),
propagates return and transition amplitudes, and scores how close the
dynamics comes to a N00N superposition.

The package namespace holds ``ModelParams`` and the functions that reach
those results; other types, exceptions and helpers come from their modules.
"""

__version__ = "1.0.0"

from .core import ModelParams, amplitude_from_lines, edge_lines, smoothed_density
from .dynamics import evolve, first_transfer_time
from .effective import (
    build_sector_hamiltonian,
    diagonalize,
    parity_chain_spectra,
    spectra_from_eigen,
)
from .entanglement import noon_feasibility, sample_joint
from .harmonic import harmonic_amplitudes, harmonic_line_spectra
from .jc import rabi_amplitudes
from .rpm import rpm_resolvent, rpm_spectra

__all__ = [
    "ModelParams",
    "amplitude_from_lines",
    "build_sector_hamiltonian",
    "diagonalize",
    "edge_lines",
    "evolve",
    "first_transfer_time",
    "harmonic_amplitudes",
    "harmonic_line_spectra",
    "noon_feasibility",
    "parity_chain_spectra",
    "rabi_amplitudes",
    "rpm_resolvent",
    "rpm_spectra",
    "sample_joint",
    "smoothed_density",
    "spectra_from_eigen",
    "__version__",
]
