import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

from gepup import (
    UNIT_SQUARE,
    CaseDefinition,
    RectDomain,
    error_norms,
    interpolate,
    taylor_green_case,
)
from gepup.linsolve import SolverError
from gepup.operators import GepupOperators, check_boundary_compatibility
from fem_oracle import assemble_mass
from load_oracle import derivative_load, fphi_terms, fq_terms, fu_terms, fw_terms, value_load


def zero_vec(x, y, t=0.0):
    z = np.zeros_like(np.asarray(x, dtype=float))
    return (z, z)


def make_case(nu=0.01, g=zero_vec, f=None, dg_dt=None):
    return CaseDefinition(
        name="synthetic", nu=nu, g=g, u0=lambda x, y: zero_vec(x, y), f=f, dg_dt=dg_dt
    )


@pytest.fixture(scope="module")
def ops():
    return GepupOperators(UNIT_SQUARE, (8, 8), 3)


def interp2(space, fn):
    return [
        interpolate(space, lambda x, y, t, d=d: fn(x, y)[d]) for d in range(2)
    ]


# ---- momentum load ------------------------------------------------------------


def test_Fw_all_zero(ops):
    N = ops.space.n_dofs
    z = np.zeros(N)
    load = ops.eval_Fw_both([z, z], z, make_case(), 0.0)[0]
    assert np.allclose(load, 0.0, atol=1e-15)


def test_Fw_constant_forcing_gives_mass_row_sums(ops):
    N = ops.space.n_dofs
    z = np.zeros(N)
    case = make_case(f=lambda x, y, t: (np.ones_like(x), np.zeros_like(x)))
    load = ops.eval_Fw_both([z, z], z, case, 0.0)[0]
    assert np.allclose(load, ops.mass_weights, atol=1e-14)
    assert np.allclose(ops.eval_Fw_both([z, z], z, case, 0.0)[1], 0.0, atol=1e-15)


def test_Fw_shear_field_has_no_self_advection():
    # u = (y, 0): u . grad u_x = y * 0 + 0 * 1 = 0 pointwise
    ops1 = GepupOperators(UNIT_SQUARE, (1, 1), 2)
    U = interp2(ops1.space, lambda x, y: (y, np.zeros_like(x)))
    load = ops1.eval_Fw_both(U, np.zeros(ops1.space.n_dofs), make_case(), 0.0)[0]
    assert np.allclose(load, 0.0, atol=1e-14)


def test_Fw_includes_pressure_gradient(ops):
    N = ops.space.n_dofs
    z = np.zeros(N)
    Q = interpolate(ops.space, lambda x, y, t: x)
    load = ops.eval_Fw_both([z, z], Q, make_case(), 0.0)[0]
    # (-dq/dx, eta_i) with q = x: every entry is -(1, eta_i)
    assert np.allclose(load, -ops.mass_weights, atol=1e-13)


# ---- potential load -------------------------------------------------------------


def test_Fphi_constant_field_matching_boundary(ops):
    W = interp2(ops.space, lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -1.0)))
    case = make_case(g=lambda x, y, t: (np.full_like(x, 2.0), np.full_like(x, -1.0)))
    load = ops.eval_Fphi(W, case, 0.0)
    assert np.abs(load).max() < 1e-13  # divergence theorem on constants


def test_Fphi_zero_everything(ops):
    z = np.zeros(ops.space.n_dofs)
    load = ops.eval_Fphi([z, z], make_case(), 0.0)
    assert np.array_equal(load, np.zeros_like(load))


def test_Fphi_total_equals_minus_boundary_flux(ops):
    # sum_i load_i = -int g.n: zero for a compliant field, -1 for g = (x, 0)
    W = interp2(ops.space, lambda x, y: (x, -y))
    case = make_case(g=lambda x, y, t: (x, -y))
    load = ops.eval_Fphi(W, case, 0.0)
    assert abs(load.sum()) < 1e-13

    W2 = interp2(ops.space, lambda x, y: (x, np.zeros_like(y)))
    case2 = make_case(g=lambda x, y, t: (x, np.zeros_like(x)))
    load2 = ops.eval_Fphi(W2, case2, 0.0)
    assert load2.sum() == pytest.approx(-1.0, abs=1e-13)


# ---- projection ---------------------------------------------------------------


def test_leray_identity_on_divergence_free_constant(ops):
    W = interp2(ops.space, lambda x, y: (np.full_like(x, 1.5), np.full_like(x, -0.25)))
    case = make_case(g=lambda x, y, t: (np.full_like(x, 1.5), np.full_like(x, -0.25)))
    U, Phi = ops.leray_project(W, case, 0.0)
    assert np.abs(Phi).max() < 1e-10
    for d in range(2):
        assert np.abs(U[d] - W[d]).max() < 1e-10


def test_leray_removes_interpolated_gradient():
    # psi has zero normal derivative on the boundary, so W = U + grad(psi)
    # projects back to U up to discretization error that shrinks ~h^k
    errs = []
    for level in (2, 3):
        ops_l = GepupOperators(UNIT_SQUARE, (2**level, 2**level), 3)
        space = ops_l.space
        case = taylor_green_case(100.0)
        U0 = interp2(space, lambda x, y: case.exact_u(x, y, 0.0))
        U, _ = ops_l.leray_project(U0, case, 0.0)
        gpsi = lambda x, y: (
            -0.3 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            -0.3 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        )
        W = [U[d] + interp2(space, gpsi)[d] for d in range(2)]
        U2, _ = ops_l.leray_project(W, case, 0.0)
        err = error_norms(
            space,
            [U2[0] - U[0], U2[1] - U[1]],
            lambda x, y, t: (np.zeros_like(x), np.zeros_like(x)),
            0.0,
        )["L2"]
        errs.append(err)
    assert errs[0] < 2e-3
    assert errs[1] < errs[0] / 6.0  # at least ~Or(h^2.6) decay observed


def test_leray_is_idempotent_up_to_discretization():
    # the re-projection defect comes from projecting grad(phi) into the C0
    # space, so it shrinks at the discretization rate; at h = 1/32 it sits
    # below 1e-9 (measured 8.6e-06 / 2.9e-07 / 1.1e-08 / 4.2e-10 for
    # h = 1/4 .. 1/32 with cubic elements)
    case = taylor_green_case(100.0)
    defects = []
    for level in (2, 3, 5):
        ops_l = GepupOperators(UNIT_SQUARE, (2**level, 2**level), 3)
        V = interp2(ops_l.space, lambda x, y: case.exact_u(x, y, 0.0))
        U1, _ = ops_l.leray_project(V, case, 0.0)
        U2, _ = ops_l.leray_project(U1, case, 0.0)
        defects.append(
            error_norms(
                ops_l.space,
                [U2[0] - U1[0], U2[1] - U1[1]],
                lambda x, y, t: (np.zeros_like(x), np.zeros_like(x)),
                0.0,
            )["L2"]
        )
    assert defects[1] < defects[0] / 8.0
    assert defects[2] <= 1e-9


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_projection_passes_the_mass_check(monkeypatch):
    ops, U, W, Q, Phi, case = load_setup(3)
    ops.reset_residuals()
    ops.leray_project(W, case, 0.4)
    assert 0.0 < ops.residuals["mass"] <= ops.rel_tol
    # a non-finite potential fails the check of its gradient's mass solve
    Phi[7] = np.nan
    monkeypatch.setattr(ops, "solve_poisson", lambda load, counter: ops.x_pass(Phi))
    with pytest.raises(SolverError, match="mass solve"):
        ops.leray_project(W, case, 0.4)
    monkeypatch.undo()
    # a non-finite velocity fails the potential solve's check before it gets there
    W[1][3] = np.nan
    with pytest.raises(SolverError, match="poisson_phi solve"):
        ops.leray_project(W, case, 0.4)


# ---- pressure load and extraction ------------------------------------------------


def test_Fq_zero_state(ops):
    z = np.zeros(ops.space.n_dofs)
    load, _ = ops.eval_Fq([z, z], make_case(), 0.0)
    assert np.allclose(load, 0.0, atol=1e-15)


def test_Fq_constant_curl_has_zero_boundary_term(ops):
    # rigid rotation: curl = 2 everywhere; the closed-contour integral of a
    # tangential gradient vanishes, so the nu-dependent part must vanish
    U = interp2(ops.space, lambda x, y: (-y, x))
    load_nu = ops.eval_Fq(U, make_case(nu=0.7), 0.0)[0]
    load_00 = ops.eval_Fq(U, make_case(nu=0.0), 0.0)[0]
    assert np.abs(load_nu - load_00).max() < 1e-12


def test_Fq_boundary_term_sign_on_shear(ops):
    # u = (y^2, 0): curl = -2y; on the right face (tangent +e_y) the term
    # integrates -2y d(eta)/dy against nu, nonzero -> loads must differ
    U = interp2(ops.space, lambda x, y: (y**2, np.zeros_like(x)))
    load_nu = ops.eval_Fq(U, make_case(nu=1.0), 0.0)[0]
    load_00 = ops.eval_Fq(U, make_case(nu=0.0), 0.0)[0]
    assert np.abs(load_nu - load_00).max() > 1e-3


def test_pressure_zero_for_rest_state(ops):
    z = np.zeros(ops.space.n_dofs)
    Q = ops.compute_pressure([z, z], make_case(), 0.0)[0].x
    assert np.abs(Q).max() < 1e-12


def test_pressure_from_manufactured_gradient_forcing():
    # f = grad(psi), u = 0  =>  q = psi - mean(psi), at discretization accuracy
    psi = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    gpsi = lambda x, y, t: (
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
    )
    errs = []
    for level in (2, 3):
        ops_l = GepupOperators(UNIT_SQUARE, (2**level, 2**level), 3)
        space = ops_l.space
        case = make_case(f=gpsi)
        z = np.zeros(space.n_dofs)
        Q = ops_l.compute_pressure([z, z], case, 0.0)[0].x
        mean = 4.0 / np.pi**2  # int of sin sin over the unit square
        errs.append(error_norms(space, Q, lambda x, y, t: psi(x, y) - mean, 0.0)["L2"])
    assert errs[0] < 2e-4
    assert errs[1] < errs[0] / 10.0  # k+1 = 4 expected; demand at least ~3.3


def test_pressure_approximates_known_field_from_velocity():
    case = taylor_green_case(100.0)
    errs = []
    for level in (2, 3):
        ops_l = GepupOperators(UNIT_SQUARE, (2**level, 2**level), 3)
        space = ops_l.space
        U = interp2(space, lambda x, y: case.exact_u(x, y, 0.0))
        Q = ops_l.compute_pressure(U, case, 0.0)[0].x
        errs.append(error_norms(space, Q, lambda x, y, t: case.exact_p(x, y, 0.0), 0.0)["L2"])
    assert errs[1] < errs[0] / 10.0  # ~ (k+1)-order decay under refinement


def test_pressure_is_mass_mean_zero_and_gauge_invariant(ops, rng):
    case = taylor_green_case(50.0)
    U = interp2(ops.space, lambda x, y: case.exact_u(x, y, 0.0))
    Q = ops.compute_pressure(U, case, 0.0)[0].x
    w = ops.mass_weights
    assert abs(w @ Q) <= 1e-10 * np.linalg.norm(Q) * np.linalg.norm(w)
    # shifting the potential by a constant must not change the projected velocity
    W = interp2(ops.space, lambda x, y: case.exact_u(x, y, 0.0))
    Phi = rng.standard_normal(ops.space.n_dofs)
    u1 = W[0] - ops.grad.l2_projection(Phi, 0)
    u2 = W[0] - ops.grad.l2_projection(Phi + 5.0, 0)
    assert np.abs(u1 - u2).max() < 1e-10


# ---- tensor-form loads against element quadrature ---------------------------------

LOAD_DOMAIN = RectDomain((0.25, -1.0), (2.0, 3.0))


@pytest.mark.parametrize("domain, cells", [(UNIT_SQUARE, (8, 8)), (LOAD_DOMAIN, (4, 2))])
def test_pass_products_match_the_direct_products(domain, cells):
    # what a field's one x-pass shares between a solve's check and the
    # scheme: M W, A W and the potential loads of W; A Phi and G_d Phi; G_d Q.
    # The loads are checked against element-by-element quadrature.
    ops = GepupOperators(domain, cells, 3)
    space = ops.space
    rng = np.random.default_rng(31)
    n = space.n_dofs
    W = [rng.standard_normal(n) for _ in range(2)]
    Phi, Q = rng.standard_normal((2, n))

    def assert_close(shared, direct):
        assert np.abs(shared - direct).max() <= 1e-14 * np.abs(direct).max()

    for d, w in enumerate(W):
        p = ops.x_pass(w)
        assert_close(p.mass, ops.fast_M @ w)
        assert_close(p.stiffness, ops.fast_A @ w)
        assert_close(p.gradient_transpose(d), derivative_load(space, space.values_at_quad(w), d))
    for field in (Phi, Q):
        p = ops.x_pass(field)
        assert_close(p.stiffness, ops.fast_A @ field)
        for d in range(2):
            assert_close(p.gradient(d), value_load(space, space.grads_at_quad(field)[d]))
    # the scheme's entry points read the passes they are given
    case = make_case()
    passes = [ops.x_pass(w) for w in W]
    assert np.array_equal(ops.eval_Fphi(passes, case, 0.0), ops.eval_Fphi(W, case, 0.0))
    conv = [np.zeros(n)] * 2
    assert np.array_equal(
        ops.eval_Fw_both(W, ops.x_pass(Q), case, 0.0, conv), ops.eval_Fw_both(W, Q, case, 0.0, conv)
    )


def load_setup(k, convection=True):
    """Q_k operators on 4 x 2 cells (hx != hy), random fields and a case with every data term."""
    ops = GepupOperators(LOAD_DOMAIN, (4, 2), k, convection=convection)
    rng = np.random.default_rng(100 + k)
    U, W = ([rng.standard_normal(ops.space.n_dofs) for _ in range(2)] for _ in range(2))
    Q, Phi = (rng.standard_normal(ops.space.n_dofs) for _ in range(2))
    case = CaseDefinition(
        name="loads",
        nu=0.3,
        g=lambda x, y, t: (np.cos(x + y) + t, np.sin(x * y)),
        u0=zero_vec,
        f=lambda x, y, t: (np.sin(x) * np.cos(y), x * y - t),
        dg_dt=lambda x, y, t: (x**2, 1.0 - y),
    )
    return ops, U, W, Q, Phi, case


def assert_matches_terms(load, terms):
    # rounding relative to the largest term, not to the (possibly cancelled) sum
    scale = max(np.abs(term).max() for term in terms)
    assert scale > 0.0
    assert np.abs(load - sum(terms)).max() <= 1e-13 * scale


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projection_matches_the_assembled_mass_solve(k):
    # the 1D factors M^{-1} C of the projection must reproduce the solve of
    # M U_d = (w_d, eta_i) - (dphi/dx_d, eta_i) with the assembled 2D mass matrix
    ops, U, W, Q, Phi, case = load_setup(k)
    for axis, D in zip(ops.space.axes, (ops.grad.Dx, ops.grad.Dy)):
        C = axis.C.toarray()
        assert np.abs(axis.M @ D - C).max() <= 1e-13 * np.abs(C).max()
    U, Phi = ops.leray_project(W, case, 0.4)
    M = assemble_mass(ops.space)
    for d in range(2):
        expected = scipy.sparse.linalg.spsolve(M.tocsc(), sum(fu_terms(ops.space, W[d], Phi, d)))
        assert np.abs(U[d] - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_Fphi_tensor_form_matches_quadrature(k):
    ops, U, W, Q, Phi, case = load_setup(k)
    assert_matches_terms(ops.eval_Fphi(W, case, 0.4), fphi_terms(ops.space, W, case, 0.4))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_Fw_tensor_form_matches_quadrature(k):
    ops, U, W, Q, Phi, case = load_setup(k)
    expected = fw_terms(ops.space, U, Q, case, 0.4)
    for d, load in enumerate(ops.eval_Fw_both(U, Q, case, 0.4)):
        assert_matches_terms(load, expected[d])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_Fq_and_its_convection_loads_match_quadrature(k):
    ops, U, W, Q, Phi, case = load_setup(k)
    load, conv = ops.eval_Fq(U, case, 0.4)
    assert_matches_terms(load, fq_terms(ops.space, U, case, 0.4))
    expected = fw_terms(ops.space, U, Q, case, 0.4)
    for d in range(2):
        assert_matches_terms(conv[d], expected[d][:2])
    # the loads handed on are exactly those eval_Fw_both computes on its own
    fw_own = ops.eval_Fw_both(U, Q, case, 0.4)
    fw_reused = ops.eval_Fw_both(U, Q, case, 0.4, conv=conv)
    _, conv2 = ops.compute_pressure(U, case, 0.4)
    for d in range(2):
        assert np.array_equal(fw_own[d], fw_reused[d])
        assert np.array_equal(conv2[d], conv[d])


def test_loads_without_convection_keep_forcing_and_pressure():
    ops, U, W, Q, Phi, case = load_setup(2, convection=False)
    expected = fw_terms(ops.space, U, Q, case, 0.4)
    for d, load in enumerate(ops.eval_Fw_both(U, Q, case, 0.4)):
        assert_matches_terms(load, [expected[d][0], expected[d][2]])
    load, _ = ops.eval_Fq(U, case, 0.4)
    terms = fq_terms(ops.space, U, case, 0.4)
    assert_matches_terms(load, terms[:2] + terms[4:])


def test_state_carries_convection_loads_of_its_velocity():
    ops, U, W, Q, Phi, case = load_setup(2)
    w0 = lambda x, y: (np.sin(y), np.cos(x))  # not solenoidal
    W = interp2(ops.space, w0)
    U, _ = ops.leray_project(W, case, 0.0)
    _, conv = ops.compute_pressure(U, case, 0.0)
    state = ops.initial_state(dataclasses.replace(case, u0=w0), 0.0)
    _, conv_of_U = ops.eval_Fq(U, case, 0.0)
    for d in range(2):
        assert np.array_equal(conv[d], conv_of_U[d])
        assert np.array_equal(state.U[d], U[d])
        assert np.array_equal(state.conv[d], conv_of_U[d])


# ---- divergence monitor -----------------------------------------------------------


def test_divergence_of_constant_field(ops):
    W = interp2(ops.space, lambda x, y: (np.full_like(x, 3.0), np.full_like(x, 2.0)))
    assert ops.divergence_l2(W) < 1e-13


def test_divergence_of_solenoidal_linear_field(ops):
    W = interp2(ops.space, lambda x, y: (x, -y))
    assert ops.divergence_l2(W) < 1e-13


def test_divergence_of_linear_expanding_field(ops):
    W = interp2(ops.space, lambda x, y: (x, y))
    assert ops.divergence_l2(W) == pytest.approx(2.0, rel=1e-13)


# ---- case compatibility check ------------------------------------------------------


def test_compatibility_check_rejects_net_inflow():
    bad = make_case(g=lambda x, y, t: (np.ones_like(x), np.zeros_like(x)))
    ok = make_case(g=lambda x, y, t: (x, -y))

    with pytest.raises(ValueError, match="flux"):
        check_boundary_compatibility(
            CaseDefinition(name="bad", nu=1.0, g=lambda x, y, t: (x, np.zeros_like(x)), u0=zero_vec)
        )
    check_boundary_compatibility(ok)
    check_boundary_compatibility(taylor_green_case(100.0), times=(0.0, 0.5, 1.0))


def test_boundary_flux_on_a_shifted_rectangle():
    # [0.25, 2.25] x [-1, 2]: g = (x, 0) has net flux int div g = |Omega| = 6
    def outflow(x, y, t):
        return x, np.zeros_like(x)

    case = CaseDefinition(name="outflow", nu=1.0, g=outflow, u0=zero_vec, domain=LOAD_DOMAIN)
    with pytest.raises(ValueError, match="net boundary flux 6.000e"):
        check_boundary_compatibility(case)
    check_boundary_compatibility(
        CaseDefinition(name="through", nu=1.0, g=lambda x, y, t: (x, -y), u0=zero_vec, domain=LOAD_DOMAIN)
    )
    ops_r = GepupOperators(LOAD_DOMAIN, (4, 2), 3)
    W = interp2(ops_r.space, lambda x, y: outflow(x, y, 0.0))
    assert ops_r.eval_Fphi(W, case, 0.0).sum() == pytest.approx(-6.0, abs=1e-12)


def test_nan_boundary_data_fails_the_flux_check():
    def nan_g(x, y, t):
        return np.full_like(x, np.nan), np.full_like(x, np.nan)

    case = CaseDefinition(name="nan", nu=1.0, g=nan_g, u0=zero_vec)
    with pytest.raises(ValueError, match="net boundary flux nan"):
        check_boundary_compatibility(case)
