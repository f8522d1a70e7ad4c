"""The dense form of the sector matrix, for tests that check against dense
linear algebra.  The package itself never forms it."""

import numpy as np


def dense(h):
    """The ``(N+1) x (N+1)`` matrix of the tridiagonal ``SectorHamiltonian`` h."""
    m = np.diag(h.diag)
    m += np.diag(h.offdiag, 1) + np.diag(h.offdiag, -1)
    return m
