import dataclasses
import os
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import gepup
from gepup import (
    UNIT_SQUARE,
    ButcherTableau,
    build_space,
    load_tableau,
    single_vortex_case,
    taylor_green_case,
    error_norms,
    validate_tableau,
)
from gepup.imex import StepperConfig, advance_step, courant_dt
from gepup.linsolve import REL_TOL, FastDiagonalization
from gepup.tensorops import XPass
from gepup.operators import CaseDefinition, GepupOperators
from fem_oracle import assemble_mass, assemble_stiffness, interior_dofs, interpolate, kinetic_energy, sampled_speed_sq
from stage_record_oracle import advance_step_with_record
from stokes_step_oracle import spectral_radius
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
        assert validate_tableau(load_tableau(name)) == []


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


# b and gamma as Kennedy & Carpenter (Appl. Numer. Math. 44, 2003) list them
PUBLISHED_B_GAMMA = {
    "ark4": (
        (Fraction(82889, 524892), 0, Fraction(15625, 83664), Fraction(69875, 102672), Fraction(-2260, 8211)),
        Fraction(1, 4),
    ),
    "ark5": (
        (
            Fraction(-872700587467, 9133579230613),
            0,
            0,
            Fraction(22348218063261, 9555858737531),
            Fraction(-1143369518992, 8141816002931),
            Fraction(-39379526789629, 19018526304540),
            Fraction(32727382324388, 42900044865799),
        ),
        Fraction(41, 200),
    ),
}


@pytest.mark.parametrize("name", ["ark4", "ark5"])
def test_abscissae_are_the_exact_explicit_row_sums(name):
    # c comes from the checksummed explicit table: each exact rational row sum,
    # rounded once; b and gamma from the implicit one, as its last row and last
    # diagonal entry (stiff accuracy), and they are the published values
    import gepup.imex as imex

    rows = imex._TABLEAU_DATA[name]["explicit"]
    exact = [float(sum(row, Fraction(0))) for row in rows]
    tab = load_tableau(name)
    assert tab.c.tolist() == exact
    b, gamma = PUBLISHED_B_GAMMA[name]
    assert tab.b.tolist() == [float(v) for v in (*b, gamma)]
    assert tab.gamma == float(gamma)
    assert not {"b", "c", "gamma"} & set(imex._TABLEAU_DATA[name])


def test_final_correction_is_explicit_only():
    # stiff accuracy (b is the last implicit row by construction, and the
    # published b is pinned by test_abscissae_are_the_exact_explicit_row_sums)
    # makes the implicit part of the end-of-step update vanish, while the
    # explicit weights differ from the last explicit row
    for name in ("ark4", "ark5"):
        tab = load_tableau(name)
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
    space = build_space(UNIT_SQUARE, (8, 8), 3)
    U = [np.ones(space.n_dofs), np.zeros(space.n_dofs)]
    dt = courant_dt(space, sampled_speed_sq(space, U), 0.8, dt_max=1.0)
    assert dt == pytest.approx(0.8 / 24.0, rel=1e-12)


def test_courant_dt_rest_state_returns_cap():
    space = build_space(UNIT_SQUARE, (4, 4), 2)
    U = [np.zeros(space.n_dofs), np.zeros(space.n_dofs)]
    assert courant_dt(space, sampled_speed_sq(space, U), 0.8, dt_max=0.75) == 0.75


def test_courant_dt_taylor_green_fine_mesh():
    case = taylor_green_case(100.0)
    space = build_space(UNIT_SQUARE, (64, 64), 3)
    U = [
        interpolate(space, lambda x, y, t, d=d: case.exact_u(x, y, 0.0)[d])
        for d in range(2)
    ]
    dt = courant_dt(space, sampled_speed_sq(space, U), 0.8, dt_max=1.0)
    assert dt == pytest.approx(0.8 / 192.0, rel=1e-9)  # max speed 1 at t=0


# ---- stepping -----------------------------------------------------------------------


def zero_case():
    z2 = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
    return CaseDefinition(
        name="rest", nu=0.02, g=z2, u0=lambda x, y: z2(x, y, 0.0)
    )


def test_rest_state_is_exact():
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 2)
    tab = load_tableau("ark4")
    case = zero_case()
    state = ops.initial_state(case, 0.0)
    for dt in (1e-3, 0.1, 0.9):
        state = advance_step(state, dt, tab, case, ops)
        for w in state.W:
            assert np.abs(w).max() < 1e-13
        assert np.abs(state.Q).max() < 1e-12


def test_helmholtz_operator_is_spd():
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 3)
    coeff = 0.05
    interior = interior_dofs(ops.space)
    M, A = assemble_mass(ops.space), assemble_stiffness(ops.space)
    full = (M + coeff * A).toarray()
    K = full[np.ix_(interior, interior)]
    assert np.abs(K - K.T).max() <= 1e-15 * np.abs(K).max()
    assert np.linalg.eigvalsh(K).min() > 0.0
    # the momentum check's norm bound covers M + c A, and so the interior block
    assert ops.momentum_operator(coeff).norm >= np.abs(full).sum(axis=1).max() * (1 - 1e-14)


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
        ops = GepupOperators(UNIT_SQUARE, (2**level, 2**level), 3)

        def run(steps, delta):
            state = ops.initial_state(case, 0.0)
            for _ in range(steps):
                state = advance_step(state, delta, tab, case, ops)
            return state

        y1 = run(1, dt)
        y4 = run(4, dt / 4)
        zero = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
        flat = lambda x, y, t: (zero(x, y, t),) * 2
        floors.append(error_norms(ops.space, [y1.U[0] - y4.U[0], y1.U[1] - y4.U[1]], zero, 0.0, flat)["L2"])
    assert floors[0] < 2e-5   # measured 4.4e-6 at h = 1/8
    assert floors[1] < floors[0] / 8.0  # measured ~28x drop to h = 1/16


def test_taylor_green_q4_l6_step_meets_default_tolerance():
    # the pressure solve's round-off floor at this size lies above 1e-12
    # relative residual; the normwise backward error stays far below it
    case = taylor_green_case(100.0)
    ops = GepupOperators(UNIT_SQUARE, (64, 64), 4)
    state = ops.initial_state(case, 0.0)
    tab = load_tableau("ark4")
    dt = courant_dt(ops.space, state.speed_sq, 0.8, dt_max=1.0)
    state = advance_step(state, dt, tab, case, ops)
    assert all(0.0 < r <= REL_TOL for r in ops.residuals.values()), ops.residuals
    # margin: measured at most 1.2e-15 in every solve class
    assert all(r <= REL_TOL / 100 for r in ops.residuals.values()), ops.residuals
    err = error_norms(ops.space, state.U, case.exact_u, dt, case.exact_u_grads)["L2"]
    assert err < 1e-9


def test_stage_solve_matches_scalar_amplification_oracle():
    # convection/projection/pressure disabled: each step is an ESDIRK update
    # of the heat equation, so every (A, M) eigenmode is multiplied by the
    # scalar stability function at z = -nu dt lambda
    class PureDiffusionOps(GepupOperators):
        def leray_project(self, W, case, t):
            return [self.x_pass(w).x.copy() for w in W], np.zeros(self.space.n_dofs)

        def pressure(self, U, case, t, monitors):
            zeros = [np.zeros(self.space.n_dofs) for _ in range(3)]
            return zeros[0], zeros[1:], self.eval_Fq(U, case, t, monitors)[2]

    ops = PureDiffusionOps(UNIT_SQUARE, (4, 4), 2)
    case = zero_case()
    tab = load_tableau("ark4")
    interior = interior_dofs(ops.space)
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
        out = advance_step(state, dt, tab, case, ops)
        z = -nu * dt * lam[mode]
        expected = esdirk_stability(tab, z).real * v
        assert np.abs(out.W[0][interior] - expected).max() < 1e-9
        assert np.abs(out.W[1]).max() < 1e-10


@pytest.mark.parametrize(
    "tableau, fdm_applies, mass_checks, x_passes, x_products",
    [("ark4", 24, 14, 38, 80), ("ark5", 32, 18, 50, 106)],
    ids=["ark4", "ark5"],
)
def test_work_per_step(monkeypatch, tableau, fdm_applies, mass_checks, x_passes, x_products):
    # per stage: two momentum solves and two Poisson solves, and no 2D mass
    # solve in the projection; the end-of-step update adds the two W* mass
    # solves.  A 2D mass solve back in the projection would add 2 applies
    # per projection (36 for ark4, 48 for ark5).
    # Each field gets one x-pass, shared by its backward-error check and the
    # scheme: W^n at the start of the step, the two W_s, Phi and Q of each
    # stage, the two W*, Phi and Q at its end.  Q^n has no pass of its own:
    # the state carries its explicit loads F, formed by the pressure call
    # that solved for it.  A pass takes each of its x-factor products once:
    # M, K and C^T for W_s,x; M and K for W_s,y and W^n; M, K and C for Phi,
    # a stage's Q and the end-of-step Q; M and C^T for W*_x; M for W*_y.
    # The only other passes are the M Z_d of each projection's two mass
    # checks (M).  The boundary lift of a momentum solve is no pass: it is
    # zero more than k rows or columns from the ring, and ``subtract_lift``
    # forms it there from 1D products of the ring's sides.
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 2)
    case = taylor_green_case(100.0)
    state = ops.initial_state(case, 0.0)
    counts = {"fdm": 0, "mass": 0, "x_pass": 0, "x_product": 0}

    def counted(key, method, solve_class=None):
        def wrapper(self, *args):
            counts[key] += solve_class is None or args[0] == solve_class
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(FastDiagonalization, "apply", counted("fdm", FastDiagonalization.apply))
    monkeypatch.setattr(GepupOperators, "record_solve", counted("mass", GepupOperators.record_solve, "mass"))
    monkeypatch.setattr(XPass, "__init__", counted("x_pass", XPass.__init__))
    monkeypatch.setattr(XPass, "_times", counted("x_product", XPass._times))
    advance_step(state, 0.01, load_tableau(tableau), case, ops)
    assert counts == {
        "fdm": fdm_applies,
        "mass": mass_checks,
        "x_pass": x_passes,
        "x_product": x_products,
    }


@pytest.mark.parametrize("tableau", ["ark4", "ark5"])
def test_every_pressure_load_goes_through_eval_Fq(tableau, monkeypatch):
    # one pressure load per pressure call: the initial state's with its
    # monitors, then in a step one per stage after the first and the
    # end-of-step state's, again with monitors
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 2)
    case = taylor_green_case(100.0)
    tab = load_tableau(tableau)
    monitors = []
    eval_Fq = GepupOperators.eval_Fq

    def counted(self, U, case, t, with_monitors):
        monitors.append(with_monitors)
        return eval_Fq(self, U, case, t, with_monitors)

    monkeypatch.setattr(GepupOperators, "eval_Fq", counted)
    state = ops.initial_state(case, 0.0)
    assert monitors == [True]
    monitors.clear()
    advance_step(state, 0.01, tab, case, ops)
    assert monitors == [False] * (tab.n_stages - 1) + [True]
    assert len(monitors) == {"ark4": 6, "ark5": 8}[tableau]


@pytest.mark.parametrize("tableau, calls", [("ark4", 1175), ("ark5", 1565)], ids=["ark4", "ark5"])
def test_python_calls_per_step(tableau, calls):
    # the Python-level calls into the package during one step at Q2 on 4x4
    # cells, after a first step has built what is built on first use.  Small
    # grids are call-bound, so this count is their work measure; counting
    # package code only keeps it independent of numpy's internals.  A change
    # in work fails here until the pin moves with it
    root = os.path.dirname(gepup.__file__) + os.sep
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 2)
    case = taylor_green_case(100.0)
    tab = load_tableau(tableau)
    state = advance_step(ops.initial_state(case, 0.0), 0.01, tab, case, ops)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code.co_filename.startswith(root)

    sys.setprofile(profile)
    try:
        advance_step(state, 0.01, tab, case, ops)
    finally:
        sys.setprofile(None)
    assert count == calls


def forced_tg_case():
    return dataclasses.replace(
        taylor_green_case(100.0), name="tg-forced", f=lambda x, y, t: (np.sin(3 * x) * np.cos(y) + t, x * y - 0.5)
    )


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("convection", [True, False], ids=["convection", "no-convection"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("tableau", ["ark4", "ark5"])
def test_running_sums_match_the_stored_record_step(tableau, k, convection, forced):
    # the right-hand sides summed in place as each stage's terms come in give
    # the step of the stored (2, n, 2, N) record with one GEMV per stage, to
    # the rounding of the other summation order.  The pressure is measured
    # against the dynamic pressure |u|^2 as well: without convection the
    # Taylor-Green pressure is only about 2e-4, the rounding of the terms
    # that cancel in it
    rel = 1e-13
    case = forced_tg_case() if forced else taylor_green_case(100.0)
    ops = GepupOperators(UNIT_SQUARE, (4, 3), k, convection=convection)
    tab = load_tableau(tableau)
    state = ops.initial_state(case, 0.0)
    for _ in range(2):
        ref = advance_step_with_record(state, 0.05, tab, case, ops)
        state = advance_step(state, 0.05, tab, case, ops)
        assert state.t == ref.t
        u_max = max(np.abs(u).max() for u in ref.U)
        for u, u_ref in zip(state.U, ref.U):
            assert np.abs(u - u_ref).max() <= rel * u_max
        assert np.abs(state.Q - ref.Q).max() <= rel * max(np.abs(ref.Q).max(), u_max**2)


@pytest.mark.parametrize("tableau", ["ark4", "ark5"])
def test_a_step_holds_running_sums_not_a_stage_record(tableau):
    # one step at Q3 L5 holds the (2, n, N) running sums and the working set
    # of a stage: the passes of its fields, the projection, the pressure
    # solve, and the three (n_elements, n_local) contribution arrays of the
    # quadrature pass.  Measured for both tableaus: 26.2 N doubles besides
    # the sums, the contributions' 5.2 N included; the bound allows 24 N and
    # the contributions.  The stored (2, n, 2, N) record adds 2 n N and
    # exceeds it
    ops = GepupOperators(UNIT_SQUARE, (32, 32), 3)
    case = taylor_green_case(100.0)
    tab = load_tableau(tableau)
    state = advance_step(ops.initial_state(case, 0.0), 0.01, tab, case, ops)  # work arrays built on first use
    N = ops.space.n_dofs
    n_el, n_local = ops.space.element_dofs.shape
    bound = 8 * (2 * tab.n_stages * N + 24 * N + 3 * n_el * n_local)
    peaks = []
    for step in (advance_step, advance_step_with_record):
        tracemalloc.start()
        try:
            step(state, 0.01, tab, case, ops)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= bound < peaks[1], (peaks, bound)


@pytest.mark.parametrize("cells, pencils, distinct_axes", [((8, 8), 2, 1), ((8, 4), 4, 2)])
def test_setup_work_per_operator(monkeypatch, cells, pencils, distinct_axes):
    # each distinct axis computes the eigenpairs of its full and interior
    # blocks by cell frequency: per pencil, two stacked eigh calls (the mass
    # blocks' whitening, then the reduced stiffness blocks) for the inner
    # frequencies and two for each end, every matrix at most k by k, and no
    # Cholesky factor or inverse; it forms its dense M^{-1} C from them, with
    # no linear solve.  The two axes of a square grid are one.  Nothing is
    # kept between operators: a second one does it all again
    k = 2
    case = taylor_green_case(100.0)
    counts = {"eigh": 0, "cholesky": 0, "inv": 0, "solve": 0}
    sizes = set()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def sized(fn):
        def wrapper(a):
            sizes.add(a.shape[-1])
            return fn(a)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", sized(np.linalg.eigh)))
    for name in ("cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for n_ops in (1, 2):
        ops = GepupOperators(UNIT_SQUARE, cells, k)
        ops.initial_state(case, 0.0)
        assert len({id(axis) for axis in ops.space.axes}) == distinct_axes
        assert counts == {"eigh": n_ops * 6 * pencils, "cholesky": 0, "inv": 0, "solve": 0}
    assert max(sizes) <= k


def test_only_the_full_solver_forms_a_neumann_scale():
    # the two Poisson solves use the full solver's pseudo-inverse; the interior
    # solver serves only the momentum solves and never forms one
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 2)
    case = taylor_green_case(100.0)
    advance_step(ops.initial_state(case, 0.0), 0.01, load_tableau("ark4"), case, ops)
    assert "_work" in ops.interior_eig.__dict__
    assert "neumann_scale" not in ops.interior_eig.__dict__
    assert "neumann_scale" in ops.eig.__dict__


def test_initial_state_samples_the_initial_velocity_once():
    case = taylor_green_case(100.0)
    calls = []
    u0 = case.u0
    case.u0 = lambda x, y: calls.append(x.shape) or u0(x, y)
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 3)
    ops.initial_state(case, 0.0)
    assert calls == [ops.space.node_axes[0].shape]


@pytest.mark.parametrize(
    "field, value",
    [
        ("courant", float("nan")),
        ("courant", 0.0),
        ("courant", float("inf")),
        ("dt_max", float("nan")),
        ("dt_max", 0.0),
        ("dt_max", -1.0),
    ],
)
def test_stepper_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        StepperConfig(**{field: value})


def test_kinetic_energy_decays_without_forcing():
    # no-slip, zero forcing: the L-stable scheme must not create energy
    for case, degree in ((single_vortex_case(5000.0), 3), (decaying_tg_case(), 3)):
        ops = GepupOperators(UNIT_SQUARE, (8, 8), degree)
        tab = load_tableau("ark4")
        state = ops.initial_state(case, 0.0)
        dt = courant_dt(ops.space, state.speed_sq, 0.8, dt_max=0.05)
        energy = kinetic_energy(ops, state.W)
        for _ in range(5):
            state = advance_step(state, dt, tab, case, ops)
            e_new = kinetic_energy(ops, state.W)
            assert e_new <= energy * (1.0 + 1e-10)
            energy = e_new


# ---- linear Stokes stability ---------------------------------------------------------

# ROADMAP item 1: the explicit pressure gradients G_dQ_j that the end-of-step
# correction carries through the approximate projection make both tableaus
# unstable beyond a diffusive step size (moving the curl term was ruled
# out); measured growth per step at r = 0.1, 1, 10, 100: Q2 L3 ark4 0.98,
# 0.82, 1.43, 14.3 and ark5 0.98, 5.3, 52, 524; Q3 L3 ark4 0.987, 0.912,
# 2.08, 20.7 and ark5 0.987, 7.59, 76.5, 765.  The fix of item 1 flips the
# four ark4 marks only; the ark5 marks belong to item 15.
STOKES_UNSTABLE = {("ark4", 10), ("ark4", 100), ("ark5", 1), ("ark5", 10), ("ark5", 100)}
UNSTABLE_MARK = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
STOKES_CASES = [
    pytest.param(tab, r, marks=UNSTABLE_MARK if (tab, r) in STOKES_UNSTABLE else ())
    for tab in ("ark4", "ark5")
    for r in (0.1, 1, 10, 100)
]


def linear_stokes_growth(tableau, r, k, n):
    """Per-step growth of the projected velocity of the linear Stokes problem.

    No convection, no forcing, g = 0: the semi-discrete problem is linear
    and dissipative.  The step is fixed at dt = r (h/k)^2 / nu and the
    growth is taken over the last 5 of 30 steps, after the start-up
    transient.
    """
    case = zero_case()
    ops = GepupOperators(UNIT_SQUARE, (n, n), k, convection=False)
    W = [
        interpolate(ops.space, lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y) + x * y),
        interpolate(ops.space, lambda x, y, t: np.cos(x + 2 * y)),
    ]  # smooth, not solenoidal, not zero on the boundary
    U, Phi = ops.leray_project(W, case, 0.0)
    state = dataclasses.replace(ops.state_at(0.0, U, Phi, case), W=W)
    dt = r * (1.0 / (n * k)) ** 2 / case.nu
    tab = load_tableau(tableau)
    norms = []
    for _ in range(30):
        state = advance_step(state, dt, tab, case, ops)
        norms.append(np.sqrt(sum(u @ u for u in state.U)))
    assert np.isfinite(norms[-1])
    return (norms[-1] / norms[-6]) ** 0.2


@pytest.mark.parametrize("tableau, r", STOKES_CASES)
def test_linear_stokes_steps_do_not_grow(tableau, r):
    assert linear_stokes_growth(tableau, r, k=2, n=8) <= 1.0


@pytest.mark.parametrize("tableau, r", STOKES_CASES)
def test_linear_stokes_steps_do_not_grow_q3(tableau, r):
    assert linear_stokes_growth(tableau, r, k=3, n=8) <= 1.0


# ROADMAP item 14: the exact step matrix R on 4x4 Q2 cells (stokes_step_oracle).
# Measured rho(R) at r = 0.1, 0.3, 1, 3, 10, 100: ark4 0.921, 0.781, 0.440,
# 0.358, 1.149, 11.44 (item 1) and ark5 0.921, 1.258, 4.187, 12.55, 41.81,
# 417.8 (item 15: past 1 already at r = 0.3, below the growth tests' grid)
STEP_MATRIX_UNSTABLE = {
    ("ark4", 10): "ROADMAP item 1",
    ("ark4", 100): "ROADMAP item 1",
    **{("ark5", r): "ROADMAP item 15" for r in (0.3, 1, 3, 10, 100)},
}
STEP_MATRIX_CASES = [
    pytest.param(
        tab,
        r,
        marks=pytest.mark.xfail(strict=True, reason=STEP_MATRIX_UNSTABLE[tab, r])
        if (tab, r) in STEP_MATRIX_UNSTABLE
        else (),
    )
    for tab in ("ark4", "ark5")
    for r in (0.1, 0.3, 1, 3, 10, 100)
]


@pytest.mark.parametrize("tableau, r", STEP_MATRIX_CASES)
def test_linear_stokes_step_matrix_is_stable(tableau, r):
    assert spectral_radius(tableau, r, zero_case()) <= 1.0


def decaying_tg_case():
    tg = taylor_green_case(200.0)
    z2 = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
    return CaseDefinition(
        name="tg-noslip", nu=tg.nu, g=z2, u0=tg.u0
    )
