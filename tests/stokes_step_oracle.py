"""The step matrix of the linear Stokes problem and its spectral radius.

With no convection (``GepupOperators(convection=False)``), no forcing and
zero wall data, one step of the scheme is a linear map R of the projected
velocity.  ``spectral_radius`` forms R column by column: column j is one
``advance_step`` from the state of the j-th unit vector of the two
stacked velocity components (``state_at`` at t = 0 with Phi = 0, so W = U
= e_j and Q and F are those of e_j).  A fixed step is stable in every
mode when rho(R) <= 1.  R at a vanishing step is the projection, not the
identity, on vectors outside its range, so local order is measured from
states the scheme produces, not from these columns.
"""

import numpy as np

from gepup import UNIT_SQUARE
from gepup.imex import advance_step, load_tableau
from gepup.operators import GepupOperators


def spectral_radius(tableau: str, r: float, case, degree: int = 2, cells: int = 4) -> float:
    """rho(R) for the step dt = r (h/k)^2 / nu on ``cells`` x ``cells`` cells of
    the unit square; ``case`` must have zero wall data and no forcing."""
    ops = GepupOperators(UNIT_SQUARE, (cells, cells), degree, convection=False)
    tab = load_tableau(tableau)
    dt = r * (1.0 / (cells * degree)) ** 2 / case.nu
    n = ops.space.n_dofs
    R = np.empty((2 * n, 2 * n))
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1.0
        state = ops.state_at(0.0, [e[:n], e[n:]], np.zeros(n), case)
        R[:, j] = np.concatenate(advance_step(state, dt, tab, case, ops).U)
    return float(np.abs(np.linalg.eigvals(R)).max())
