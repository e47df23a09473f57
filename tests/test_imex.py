import numpy as np
import pytest
import scipy.linalg

from gepup import (
    UNIT_SQUARE,
    ButcherTableau,
    build_space,
    build_mesh,
    interpolate,
    load_tableau,
    single_vortex_case,
    taylor_green_case,
    error_norms,
    validate_tableau,
)
from gepup.imex import advance_step, courant_dt
from gepup.linsolve import FastDiagonalization
from gepup.tensorops import TensorOperator
from gepup.operators import CaseDefinition, GepupOperators
from fem_oracle import assemble_mass, assemble_stiffness
from ark_order_oracle import (
    esdirk_stability,
    max_residual_through_order,
)


# ---- tableau data -------------------------------------------------------------


def test_ark4_shape():
    tab = load_tableau("ark4")
    assert tab.n_stages == 6
    assert tab.order == 4
    assert np.allclose(tab.b, tab.a_implicit[-1], atol=1e-16)


def test_ark5_shape():
    tab = load_tableau("ark5")
    assert tab.n_stages == 8
    assert tab.order == 5
    assert np.allclose(tab.b, tab.a_implicit[-1], atol=1e-16)


def test_unknown_tableau_id():
    with pytest.raises(ValueError, match="unknown tableau"):
        load_tableau("rk99")


def test_validate_tableau_passes_shipped_tableaus():
    for name in ("ark4", "ark5"):
        assert validate_tableau(load_tableau(name), tol=1e-13) == []


def test_full_additive_order_conditions():
    # complete two-color tree conditions: order 4 for ark4, order 5 for ark5
    t4 = load_tableau("ark4")
    assert max_residual_through_order(t4.a_explicit, t4.a_implicit, t4.b, t4.c, 4) < 1e-13
    t5 = load_tableau("ark5")
    assert max_residual_through_order(t5.a_explicit, t5.a_implicit, t5.b, t5.c, 5) < 1e-12


def test_validate_rejects_degenerate_forward_euler():
    fe = ButcherTableau(
        "fe", 1, 1,
        np.zeros((1, 1)), np.zeros((1, 1)),
        np.array([1.0]), np.array([0.0]), 0.0,
    )
    problems = validate_tableau(fe)
    assert any("2 stages" in p for p in problems)


def test_validate_flags_perturbed_weights():
    tab = load_tableau("ark4")
    b_bad = tab.b.copy()
    b_bad[0] += 1e-6
    bad = ButcherTableau(
        tab.name, tab.order, tab.n_stages, tab.a_explicit, tab.a_implicit, b_bad, tab.c, tab.gamma
    )
    problems = validate_tableau(bad)
    assert any("sum(b)" in p for p in problems)
    assert any("stiffly" in p for p in problems)


def test_checksum_rejects_corruption(monkeypatch):
    import gepup.imex as imex

    tampered = dict(imex._TABLEAU_DATA["ark4"])
    tampered["sha256"] = "0" * 64
    monkeypatch.setitem(imex._TABLEAU_DATA, "ark4", tampered)
    with pytest.raises(ValueError, match="checksum"):
        load_tableau("ark4")


def test_final_correction_is_explicit_only():
    # stiff accuracy makes the implicit part of the end-of-step update vanish,
    # while the explicit weights differ from the last explicit row
    for name in ("ark4", "ark5"):
        tab = load_tableau(name)
        assert np.allclose(tab.b, tab.a_implicit[-1], atol=1e-16)
        assert np.abs(tab.b - tab.a_explicit[-1]).max() > 1e-3


def test_lstability_of_implicit_half():
    # |R(z)| -> 0 as z -> -inf and |R(iy)| <= 1 on the imaginary axis
    for name in ("ark4", "ark5"):
        tab = load_tableau(name)
        assert abs(esdirk_stability(tab, -1e8)) < 1e-6
        for y in np.linspace(0.1, 50, 25):
            assert abs(esdirk_stability(tab, 1j * y)) <= 1.0 + 1e-12


# ---- courant step control --------------------------------------------------------


def test_courant_dt_unit_speed():
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 3), 3)
    U = [np.ones(space.n_dofs), np.zeros(space.n_dofs)]
    dt = courant_dt(space, U, 0.8)
    assert dt == pytest.approx(0.8 / 24.0, rel=1e-12)


def test_courant_dt_rest_state_returns_cap():
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 2), 2)
    U = [np.zeros(space.n_dofs), np.zeros(space.n_dofs)]
    assert courant_dt(space, U, 0.8, dt_max=0.75) == 0.75


def test_courant_dt_taylor_green_fine_mesh():
    case = taylor_green_case(100.0)
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 6), 3)
    U = [
        interpolate(space, lambda x, y, t, d=d: case.exact_u(x, y, 0.0)[d])
        for d in range(2)
    ]
    dt = courant_dt(space, U, 0.8)
    assert dt == pytest.approx(0.8 / 192.0, rel=1e-9)  # max speed 1 at t=0


# ---- stepping -----------------------------------------------------------------------


def zero_case():
    z2 = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
    return CaseDefinition(
        name="rest", nu=0.02, g=z2, u0=lambda x, y: z2(x, y, 0.0)
    )


def test_rest_state_is_exact():
    ops = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 2), 2)
    tab = load_tableau("ark4")
    case = zero_case()
    state = ops.initial_state(case, 0.0)
    for dt in (1e-3, 0.1, 0.9):
        state = advance_step(state, dt, tab, case, ops)
        for w in state.W:
            assert np.abs(w).max() < 1e-13
        assert np.abs(state.Q).max() < 1e-12


def test_helmholtz_operator_is_spd(rng):
    ops = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 2), 3)
    coeff = 0.05
    mom = ops.momentum_operator(coeff)
    interior = ops.space.interior_dofs
    M, A = assemble_mass(ops.space), assemble_stiffness(ops.space)
    K = (M + coeff * A)[np.ix_(interior, interior)].toarray()
    assert np.abs(K - K.T).max() <= 1e-15 * np.abs(K).max()
    assert np.linalg.eigvalsh(K).min() > 0.0
    # the tensor-product interior block the direct solve diagonalizes is K
    for _ in range(3):
        x = rng.standard_normal(len(interior))
        assert np.abs(mom.K @ x - K @ x).max() <= 1e-14 * np.abs(K @ x).max()


def test_richardson_differences_sit_on_the_spatial_floor():
    # at Courant-scale steps the temporal error of the fourth-order pair is
    # far below the per-step projection defect, which lives near the boundary
    # and shrinks with h at the spatial rate; step-pattern differences
    # therefore measure that floor, not the temporal order (no test isolates
    # the temporal order yet: that needs a finer mesh or a higher degree)
    case = taylor_green_case(100.0)
    tab = load_tableau("ark4")
    dt = 0.02
    floors = []
    for level in (3, 4):
        ops = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), level), 3)

        def run(steps, delta):
            state = ops.initial_state(case, 0.0)
            for _ in range(steps):
                state = advance_step(state, delta, tab, case, ops)
            return state

        y1 = run(1, dt)
        y4 = run(4, dt / 4)
        zero = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
        floors.append(
            error_norms(ops.space, [y1.U[0] - y4.U[0], y1.U[1] - y4.U[1]], zero, 0.0)["L2"]
        )
    assert floors[0] < 2e-5   # measured 4.4e-6 at h = 1/8
    assert floors[1] < floors[0] / 8.0  # measured ~28x drop to h = 1/16


def test_taylor_green_q4_l6_step_meets_default_tolerance():
    # the pressure solve's round-off floor at this size lies above 1e-12
    # relative residual; the normwise backward error stays far below it
    case = taylor_green_case(100.0)
    ops = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 6), 4)
    state = ops.initial_state(case, 0.0)
    tab = load_tableau("ark4")
    dt = courant_dt(ops.space, state.U, 0.8)
    state = advance_step(state, dt, tab, case, ops)
    assert all(0.0 < r <= ops.rel_tol for r in ops.residuals.values()), ops.residuals
    err = error_norms(ops.space, state.U, case.exact_u, dt)["L2"]
    assert err < 1e-9


def test_stage_solve_matches_scalar_amplification_oracle():
    # convection/projection/pressure disabled: each step is an ESDIRK update
    # of the heat equation, so every (A, M) eigenmode is multiplied by the
    # scalar stability function at z = -nu dt lambda
    class PureDiffusionOps(GepupOperators):
        def eval_Fw_both(self, U, Q, case, t, conv=None):
            return [np.zeros(self.space.n_dofs), np.zeros(self.space.n_dofs)]

        def leray_project(self, W, case, t):
            return [w.copy() for w in W], np.zeros(self.space.n_dofs)

        def compute_pressure(self, U, case, t):
            return np.zeros(self.space.n_dofs), None

    ops = PureDiffusionOps(build_mesh(UNIT_SQUARE, (1, 1), 2), 2)
    case = zero_case()
    tab = load_tableau("ark4")
    interior = ops.space.interior_dofs
    A_ii = assemble_stiffness(ops.space)[np.ix_(interior, interior)].toarray()
    M_ii = assemble_mass(ops.space)[np.ix_(interior, interior)].toarray()
    lam, vecs = scipy.linalg.eigh(A_ii, M_ii)
    dt = 0.07
    nu = case.nu
    for mode in (0, len(lam) // 2, len(lam) - 1):
        v = vecs[:, mode]
        W0 = np.zeros(ops.space.n_dofs)
        W0[interior] = v
        state = ops.initial_state(case, 0.0)
        state.W = [W0.copy(), np.zeros_like(W0)]
        state.U = [W0.copy(), np.zeros_like(W0)]
        state.conv = None
        out = advance_step(state, dt, tab, case, ops)
        z = -nu * dt * lam[mode]
        expected = esdirk_stability(tab, z).real * v
        assert np.abs(out.W[0][interior] - expected).max() < 1e-9
        assert np.abs(out.W[1]).max() < 1e-10


@pytest.mark.parametrize(
    "tableau, fdm_applies, matvecs, mass_checks", [("ark4", 24, 62, 14), ("ark5", 32, 82, 18)]
)
def test_work_per_step(monkeypatch, tableau, fdm_applies, matvecs, mass_checks):
    # per stage: two momentum solves and two Poisson solves, and no 2D mass
    # solve in the projection; the end-of-step update adds the two W* mass
    # solves.  A 2D mass solve back in the projection would add 2 applies
    # and 2 matvecs per projection (36 / 74 for ark4, 48 / 98 for ark5)
    ops = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 2), 2)
    case = taylor_green_case(100.0)
    state = ops.initial_state(case, 0.0)
    counts = {"fdm": 0, "matvec": 0, "mass": 0}

    def counted(key, method, solve_class=None):
        def wrapper(self, *args):
            counts[key] += solve_class is None or args[0] == solve_class
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(FastDiagonalization, "apply", counted("fdm", FastDiagonalization.apply))
    monkeypatch.setattr(TensorOperator, "__matmul__", counted("matvec", TensorOperator.__matmul__))
    monkeypatch.setattr(GepupOperators, "record_solve", counted("mass", GepupOperators.record_solve, "mass"))
    advance_step(state, 0.01, load_tableau(tableau), case, ops)
    assert counts == {"fdm": fdm_applies, "matvec": matvecs, "mass": mass_checks}


def test_kinetic_energy_decays_without_forcing():
    # no-slip, zero forcing: the L-stable scheme must not create energy
    for case, degree in ((single_vortex_case(5000.0), 3), (decaying_tg_case(), 3)):
        ops = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 3), degree)
        tab = load_tableau("ark4")
        state = ops.initial_state(case, 0.0)
        dt = courant_dt(ops.space, state.U, 0.8, dt_max=0.05)
        energy = ops.kinetic_energy(state.W)
        for _ in range(5):
            state = advance_step(state, dt, tab, case, ops)
            e_new = ops.kinetic_energy(state.W)
            assert e_new <= energy * (1.0 + 1e-10)
            energy = e_new


def decaying_tg_case():
    tg = taylor_green_case(200.0)
    z2 = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
    return CaseDefinition(
        name="tg-noslip", nu=tg.nu, g=z2, u0=tg.u0
    )
