"""Reference ERK-ESDIRK step that keeps every stage's F_j and A W_j.

This is the stage loop ``imex.advance_step`` ran before it summed the
right-hand sides as it went: per component and stage, the explicit load
F_j and A W_j are stored side by side in one (2, n, 2, N) record, and a
stage's right-hand side is one GEMV over its first 2s rows.  The tests
compare the running sums against it; it raises no phase information.
"""

import numpy as np


def advance_step_with_record(state, dt, tableau, case, ops):
    n = tableau.n_stages
    AE, AI, b, c = tableau.a_explicit, tableau.a_implicit, tableau.b, tableau.c
    nu = case.nu
    momentum = ops.momentum_operator(nu * dt * tableau.gamma)
    t0 = state.t
    t1 = t0 + dt
    N = ops.space.n_dofs
    loads = np.empty((2, n, 2, N))
    F, AW = loads[:, :, 0], loads[:, :, 1]
    coeffs = np.stack([dt * AE, -nu * dt * AI], axis=2)  # (stage, j, [F, AW])
    W = [ops.x_pass(w) for w in state.W]
    MWn = [w.mass for w in W]
    AW[:, 0] = [w.stiffness for w in W]
    F[:, 0] = state.F
    for s in range(1, n):
        ts = t0 + c[s] * dt
        gb = ops.boundary_values(case, ts)
        W = []
        for d in range(2):
            rhs = coeffs[s, :s].ravel() @ loads[d, :s].reshape(2 * s, N)
            rhs += MWn[d]
            W.append(momentum.solve(rhs, gb[d]))
            AW[d, s] = W[d].stiffness
        U_s, _ = ops.leray_project(W, case, ts)
        MW_s = [w.mass for w in W]
        del W
        F[:, s] = ops.pressure(U_s, case, ts, False)[1]
    W_star = []
    for d in range(2):
        rhs = (dt * (b - AE[n - 1])) @ F[d]
        rhs += MW_s[d]
        W_star.append(ops.solve_mass(rhs))
    U1, Phi1 = ops.leray_project(W_star, case, t1)
    return ops.state_at(t1, U1, Phi1, case)
