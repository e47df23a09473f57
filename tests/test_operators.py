import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from gepup import (
    UNIT_SQUARE,
    CaseDefinition,
    RectDomain,
    error_norms,
    lid_cavity_case,
    taylor_green_case,
)
from gepup import fem
from gepup.imex import advance_step, load_tableau
from gepup.linsolve import REL_TOL, SolverError
from gepup.operators import GepupOperators, check_boundary_compatibility
from fem_oracle import (
    assemble_mass,
    assemble_stiffness,
    combination,
    divergence_l2,
    full_grid_lift,
    grads_at_quad,
    interpolate,
    lift_magnitude,
    sampled_speed_sq,
    support_points,
    values_at_quad,
)
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


# F = conv - G Q: the convection loads come from eval_Fq, G Q from the pass of Q


def test_Fw_all_zero(ops):
    N = ops.space.n_dofs
    z = np.zeros(N)
    conv = ops.eval_Fq([z, z], make_case(), 0.0, False)[1]
    assert np.allclose(conv[0], 0.0, atol=1e-15)
    assert np.allclose(ops.x_pass(z).gradient(0), 0.0, atol=1e-15)


def test_Fw_constant_forcing_gives_mass_row_sums(ops):
    N = ops.space.n_dofs
    z = np.zeros(N)
    case = make_case(f=lambda x, y, t: (np.ones_like(x), np.zeros_like(x)))
    conv = ops.eval_Fq([z, z], case, 0.0, False)[1]
    assert np.allclose(conv[0], ops.mass_weights, atol=1e-14)
    assert np.allclose(conv[1], 0.0, atol=1e-15)


def test_Fw_shear_field_has_no_self_advection():
    # u = (y, 0): u . grad u_x = y * 0 + 0 * 1 = 0 pointwise
    ops1 = GepupOperators(UNIT_SQUARE, (1, 1), 2)
    U = interp2(ops1.space, lambda x, y: (y, np.zeros_like(x)))
    conv = ops1.eval_Fq(U, make_case(), 0.0, False)[1]
    assert np.allclose(conv[0], 0.0, atol=1e-14)


def test_Fw_includes_pressure_gradient(ops):
    Q = interpolate(ops.space, lambda x, y, t: x)
    # (dq/dx, eta_i) with q = x: every entry is (1, eta_i)
    assert np.allclose(ops.x_pass(Q).gradient(0), ops.mass_weights, atol=1e-13)


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
        zero = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
        flat = lambda x, y, t: (zero(x, y, t),) * 2
        err = error_norms(space, [U2[0] - U[0], U2[1] - U[1]], zero, 0.0, flat)["L2"]
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
        zero = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
        flat = lambda x, y, t: (zero(x, y, t),) * 2
        defects.append(error_norms(ops_l.space, [U2[0] - U1[0], U2[1] - U1[1]], zero, 0.0, flat)["L2"])
    assert defects[1] < defects[0] / 8.0
    assert defects[2] <= 1e-9


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_projection_passes_the_mass_check(monkeypatch):
    ops, U, W, Q, Phi, case = load_setup(3)
    ops.reset_residuals()
    ops.leray_project(W, case, 0.4)
    assert 0.0 < ops.residuals["mass"] <= REL_TOL
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
    load, _, _ = ops.eval_Fq([z, z], make_case(), 0.0, False)
    assert np.allclose(load, 0.0, atol=1e-15)


def test_Fq_constant_curl_has_zero_boundary_term(ops):
    # rigid rotation: curl = 2 everywhere; the closed-contour integral of a
    # tangential gradient vanishes, so the nu-dependent part must vanish
    U = interp2(ops.space, lambda x, y: (-y, x))
    load_nu = ops.eval_Fq(U, make_case(nu=0.7), 0.0, False)[0]
    load_00 = ops.eval_Fq(U, make_case(nu=0.0), 0.0, False)[0]
    assert np.abs(load_nu - load_00).max() < 1e-12


def test_Fq_boundary_term_sign_on_shear(ops):
    # u = (y^2, 0): curl = -2y; on the right face (tangent +e_y) the term
    # integrates -2y d(eta)/dy against nu, nonzero -> loads must differ
    U = interp2(ops.space, lambda x, y: (y**2, np.zeros_like(x)))
    load_nu = ops.eval_Fq(U, make_case(nu=1.0), 0.0, False)[0]
    load_00 = ops.eval_Fq(U, make_case(nu=0.0), 0.0, False)[0]
    assert np.abs(load_nu - load_00).max() > 1e-3


def test_pressure_zero_for_rest_state(ops):
    z = np.zeros(ops.space.n_dofs)
    Q = ops.pressure([z, z], make_case(), 0.0, False)[0]
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
        Q = ops_l.pressure([z, z], case, 0.0, False)[0]
        mean = 4.0 / np.pi**2  # int of sin sin over the unit square
        errs.append(error_norms(space, Q, lambda x, y, t: psi(x, y) - mean, 0.0, gpsi)["L2"])
    assert errs[0] < 2e-4
    assert errs[1] < errs[0] / 10.0  # k+1 = 4 expected; demand at least ~3.3


def test_pressure_approximates_known_field_from_velocity():
    case = taylor_green_case(100.0)
    errs = []
    for level in (2, 3):
        ops_l = GepupOperators(UNIT_SQUARE, (2**level, 2**level), 3)
        space = ops_l.space
        U = interp2(space, lambda x, y: case.exact_u(x, y, 0.0))
        Q = ops_l.pressure(U, case, 0.0, False)[0]
        errs.append(error_norms(space, Q, case.exact_p, 0.0, case.exact_p_grad)["L2"])
    assert errs[1] < errs[0] / 10.0  # ~ (k+1)-order decay under refinement


def test_pressure_is_mass_mean_zero_and_gauge_invariant(ops, rng):
    case = taylor_green_case(50.0)
    U = interp2(ops.space, lambda x, y: case.exact_u(x, y, 0.0))
    Q = ops.pressure(U, case, 0.0, False)[0]
    w = ops.mass_weights
    assert abs(w @ Q) <= 1e-10 * np.linalg.norm(Q) * np.linalg.norm(w)
    # shifting the potential by a constant must not change the projected velocity
    W = interp2(ops.space, lambda x, y: case.exact_u(x, y, 0.0))
    Phi = rng.standard_normal(ops.space.n_dofs)
    u1 = W[0] - ops.x_pass(Phi).l2_projection(0)
    u2 = W[0] - ops.x_pass(Phi + 5.0).l2_projection(0)
    assert np.abs(u1 - u2).max() < 1e-10


# ---- tensor-form loads against element quadrature ---------------------------------

LOAD_DOMAIN = RectDomain((0.25, -1.0), (2.0, 3.0))


@pytest.mark.parametrize("domain, cells", [(UNIT_SQUARE, (8, 8)), (LOAD_DOMAIN, (4, 2))])
def test_pass_products_match_the_direct_products(domain, cells):
    # what a field's one x-pass shares between a solve's check and the
    # scheme: M W, A W and the potential loads of W; A Phi and G_d Phi; G_d Q;
    # and the momentum solve's lift (M + c A) W.  The products are checked
    # against the assembled matrices, the loads against element-by-element
    # quadrature.
    ops = GepupOperators(domain, cells, 3)
    space = ops.space
    M, A = assemble_mass(space), assemble_stiffness(space)
    rng = np.random.default_rng(31)
    n = space.n_dofs
    W = [rng.standard_normal(n) for _ in range(2)]
    Phi, Q = rng.standard_normal((2, n))

    def assert_close(shared, direct):
        assert np.abs(shared - direct).max() <= 1e-14 * np.abs(direct).max()

    for d, w in enumerate(W):
        p = ops.x_pass(w)
        assert_close(p.mass, M @ w)
        assert_close(p.stiffness, A @ w)
        for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.3)):
            assert_close(combination(p, alpha, beta), (alpha * M + beta * A) @ w)
        assert_close(p.gradient_transpose(d), derivative_load(space, values_at_quad(space, w), d))
    for field in (Phi, Q):
        p = ops.x_pass(field)
        assert_close(p.stiffness, A @ field)
        for d in range(2):
            assert_close(p.gradient(d), value_load(space, grads_at_quad(space, field)[d]))
    # the potential load reads the passes it is given
    case = make_case()
    passes = [ops.x_pass(w) for w in W]
    assert np.array_equal(ops.eval_Fphi(passes, case, 0.0), ops.eval_Fphi(W, case, 0.0))


def load_setup(k, convection=True, cells=(4, 2)):
    """Q_k operators on ``cells`` (hx != hy), random fields and a case with every data term."""
    ops = GepupOperators(LOAD_DOMAIN, cells, k, convection=convection)
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


FRAME_DOMAIN = RectDomain((0.3, -0.2), (1.0, 0.7))  # hx != hy for every pair of cell counts below


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lift_frame_matches_the_full_grid_lift(k):
    # the lift is zero more than k rows or columns from the ring; its four
    # strips sum the full-grid product's terms in another order.  One cell
    # leaves k - 1 interior rows, and below 2k of them (one and two cells) the
    # bottom and top strips overlap; the strips of the two axes overlap at the
    # corners, and 16 cells leave most rows in no strip.  Each order
    # is within some number of roundings of the exact entry, relative to the
    # sum of its absolute terms (``lift_magnitude``, u = 2^-53).  The full grid
    # takes at most 4k + 5 along any path of a term (two inner products of
    # 2k + 1 terms, a scaling by the coefficient and two additions).  A strip
    # takes at most 2k + 5 (one inner product, the scaling, the sum with the
    # other factor's product, the outer product with an end column, the sum of
    # the strip's two outer products), and three more where four strips add
    # up: 2k + 8.  The two differ by at most (6k + 13) u of the magnitude
    rng = np.random.default_rng(47 + k)
    u = np.finfo(float).eps / 2
    for nx in (1, 2, 3, 4, 5, 7, 16):
        for ny in (1, 2, 3, 4, 5, 7, 16):
            domain = UNIT_SQUARE if nx == ny else FRAME_DOMAIN
            ops = GepupOperators(domain, (nx, ny), k)
            op = ops.momentum_operator(0.37)
            ring = rng.standard_normal(len(ops.space.boundary_dofs))
            lift = full_grid_lift(ops, op.coeff, ring)
            magnitude = lift_magnitude(ops, op.coeff, ring)
            strips = np.zeros_like(lift)
            op.subtract_lift(ring, strips)
            assert np.all(np.abs(strips + lift) <= (6 * k + 13) * u * magnitude), (nx, ny)
            assert lift.size == 0 or np.abs(lift).max() > 0.0


def test_lift_holds_strips_not_a_full_grid():
    # one lift at Q3 L6 (n = 193) holds the strips of one side, k rows by n:
    # the two outer products and their sum, and O(n) arrays besides (the ring's
    # lines and sides, and the 1D products of two passes); measured: 22.7 n
    # doubles.  The bound allows four strips and 16 n.  The full-grid lift
    # holds the ring scattered into an n^2 grid and its products and exceeds it
    ops = GepupOperators(UNIT_SQUARE, (64, 64), 3)
    op = ops.momentum_operator(0.37)
    ring = np.random.default_rng(53).standard_normal(len(ops.space.boundary_dofs))
    b = np.zeros((ops.space.ndof_y - 2, ops.space.ndof_x - 2))
    op.subtract_lift(ring, b)  # the axes' factors and end columns are built on first use
    n, k = ops.space.ndof_x, ops.space.degree
    bound = 8 * (4 * k * n + 16 * n)
    peaks = []
    for lift in (lambda: op.subtract_lift(ring, b), lambda: full_grid_lift(ops, op.coeff, ring)):
        tracemalloc.start()
        try:
            lift()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= bound < peaks[1], (peaks, bound)


def test_each_boundary_load_samples_its_data_once():
    # the potential load samples g, the pressure load dg/dt, once each: one
    # call on the Gauss points of all four sides
    ops, U, W, _, _, case = load_setup(3)
    calls = []

    def counted(fn):
        return lambda x, y, t: calls.append(x.shape) or fn(x, y, t)

    counted_case = dataclasses.replace(case, g=counted(case.g), dg_dt=counted(case.dg_dt))
    ops.eval_Fphi(W, counted_case, 0.4)
    ops.eval_Fq(U, counted_case, 0.4, False)
    ax, ay = ops.space.axes
    assert calls == [(2 * ax.n_cells + 2 * ay.n_cells, ops.space.degree + 2)] * 2


def ring_data(x, y, t):
    return (x * x - 3.0 * y + t, x * y * y + 0.5)


@pytest.mark.parametrize(
    "case, domain, cells, k",
    [
        (make_case(g=ring_data), RectDomain((0.25, -1.0), (2.0, 3.0)), (3, 5), 3),
        (lid_cavity_case(100.0), UNIT_SQUARE, (4, 4), 2),
    ],
    ids=["shifted-rectangle", "lid"],
)
def test_boundary_values_sample_g_once_at_the_boundary_support_points(case, domain, cells, k):
    # one call of g on the ring coordinates, in boundary_dofs order, equal bit
    # for bit to g at the support points of the boundary dofs
    ops = GepupOperators(domain, cells, k)
    calls = []
    counted = dataclasses.replace(case, g=lambda x, y, t: calls.append(x.shape) or case.g(x, y, t))
    values = ops.boundary_values(counted, 0.4)
    pts = np.ascontiguousarray(support_points(ops.space)[ops.space.boundary_dofs].T)
    assert calls == [(len(ops.space.boundary_dofs),)]
    for got, want in zip(values, case.g(*pts, 0.4), strict=True):
        assert np.array_equal(got, np.broadcast_to(want, got.shape))
    if case.name == "lid-cavity":  # the corners belong to the resting walls
        corners = np.isin(pts[0], (0.0, 1.0)) & np.isin(pts[1], (0.0, 1.0))
        assert corners.sum() == 4
        assert not np.any(values[0][corners]) and not np.any(values[1][corners])
        assert np.any(values[0] == 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projection_matches_the_assembled_mass_solve(k):
    # the 1D factors M^{-1} C of the projection must reproduce the solve of
    # M U_d = (w_d, eta_i) - (dphi/dx_d, eta_i) with the assembled 2D mass matrix
    ops, U, W, Q, Phi, case = load_setup(k)
    for axis in ops.space.axes:
        C = axis.C.toarray()
        assert np.abs(axis.M @ axis.D - C).max() <= 1e-13 * np.abs(C).max()
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
    ops, U, W, _, Phi, case = load_setup(k)
    Q, F, _ = ops.pressure(U, case, 0.4, False)
    expected = fw_terms(ops.space, U, Q, case, 0.4)
    for d, load in enumerate(F):
        assert_matches_terms(load, expected[d])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_Fq_and_its_convection_loads_match_quadrature(k):
    ops, U, W, Q, Phi, case = load_setup(k)
    load, conv, _ = ops.eval_Fq(U, case, 0.4, False)
    assert_matches_terms(load, fq_terms(ops.space, U, case, 0.4))
    expected = fw_terms(ops.space, U, Q, case, 0.4)
    for d in range(2):
        assert_matches_terms(conv[d], expected[d][:2])
    # pressure's explicit loads are exactly these convection loads less G Q
    Q, F, _ = ops.pressure(U, case, 0.4, False)
    for d in range(2):
        assert np.array_equal(F[d], conv[d] - ops.x_pass(Q).gradient(d))


@pytest.mark.parametrize("convection", [True, False])
@pytest.mark.parametrize(
    "block, bands", [(8, [8]), (2, [2, 2, 2, 2]), (6, [6, 2])], ids=["one-block", "four-blocks", "partial-last-block"]
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_blocked_pass_matches_quadrature(k, block, bands, convection, monkeypatch):
    # the 2 x 4 elements in one band, in four full one-row bands, and in a
    # band of three rows and a partial last band of one; the case has a
    # forcing, so each band samples it too
    monkeypatch.setattr(fem, "BLOCK_ELEMENTS", block)
    ops, U, W, Q, Phi, case = load_setup(k, convection, cells=(2, 4))
    assert [elements.stop - elements.start for elements, _ in ops.space.element_bands()] == bands
    load, conv, _ = ops.eval_Fq(U, case, 0.4, False)
    value_terms = fw_terms(ops.space, U, Q, case, 0.4)
    grad_terms = fq_terms(ops.space, U, case, 0.4)
    if not convection:
        value_terms = [terms[:1] for terms in value_terms]
        grad_terms = grad_terms[:2] + grad_terms[4:]
    for d in range(2):
        assert_matches_terms(conv[d], value_terms[d][:2])
    assert_matches_terms(load, grad_terms)


def test_pressure_pass_allocates_no_full_grid_samples(monkeypatch):
    # one pressure pass at Q3 L5 holds at most the three (n_elements, n_local)
    # contribution arrays, the three loads and one block's buffers (u and its
    # derivatives gathered, five sample arrays), plus a few arrays of the
    # ring for the boundary loads; a pass over full-grid samples exceeds it
    ops = GepupOperators(UNIT_SQUARE, (32, 32), 3)
    space = ops.space
    case = taylor_green_case(100.0)
    U = [np.ascontiguousarray(u) for u in case.exact_u(*support_points(space).T, 0.0)]
    ops.eval_Fq(U, case, 0.0, False)  # the axes' factors are built on first use
    n_el, n_local = space.element_dofs.shape
    n_quad = len(space.wdet)
    for block in (fem.BLOCK_ELEMENTS, 128):
        monkeypatch.setattr(fem, "BLOCK_ELEMENTS", block)
        bound = 8 * (3 * n_el * n_local + 3 * space.n_dofs + block * (2 * n_local + 5 * n_quad))
        bound += 8 * 8 * (space.ndof_x + space.ndof_y)
        tracemalloc.start()
        try:
            ops.eval_Fq(U, case, 0.0, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (block, peak, bound)


def test_loads_without_convection_keep_forcing_and_pressure():
    ops, U, W, _, Phi, case = load_setup(2, convection=False)
    Q, F, _ = ops.pressure(U, case, 0.4, False)
    expected = fw_terms(ops.space, U, Q, case, 0.4)
    for d, load in enumerate(F):
        assert_matches_terms(load, [expected[d][0], expected[d][2]])
    load, _, _ = ops.eval_Fq(U, case, 0.4, False)
    terms = fq_terms(ops.space, U, case, 0.4)
    assert_matches_terms(load, terms[:2] + terms[4:])


def test_state_carries_the_explicit_loads_of_its_fields():
    # F = conv(U) - G Q at the state's own (U, Q, t), after the initial
    # projection and after a step, to the bit
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 2)
    case = taylor_green_case(100.0)
    first = ops.initial_state(case, 0.0)
    for state in (first, advance_step(first, 0.01, load_tableau("ark4"), case, ops)):
        assert state.W is state.U
        conv = ops.eval_Fq(state.U, case, state.t, False)[1]
        for d in range(2):
            assert np.array_equal(state.F[d], conv[d] - ops.x_pass(state.Q).gradient(d))


# ---- divergence monitor -----------------------------------------------------------


@pytest.mark.parametrize("convection", [True, False])
def test_state_monitors_equal_the_full_grid_formulas(convection):
    # state_at reads div_l2 and the quadrature speeds off the pressure pass;
    # without convection the pass still samples u for them
    ops, U, _, _, Phi, case = load_setup(3, convection)
    state = ops.state_at(0.4, U, Phi, case)
    assert state.div_l2 == divergence_l2(ops.space, U)
    assert state.speed_sq == sampled_speed_sq(ops.space, U)
    Q, F, _ = ops.pressure(U, case, 0.4, False)
    assert np.array_equal(state.Q, Q)
    assert all(np.array_equal(a, b) for a, b in zip(state.F, F))


def test_divergence_of_constant_field(ops):
    W = interp2(ops.space, lambda x, y: (np.full_like(x, 3.0), np.full_like(x, 2.0)))
    assert divergence_l2(ops.space, W) < 1e-13


def test_divergence_of_solenoidal_linear_field(ops):
    W = interp2(ops.space, lambda x, y: (x, -y))
    assert divergence_l2(ops.space, W) < 1e-13


def test_divergence_of_linear_expanding_field(ops):
    W = interp2(ops.space, lambda x, y: (x, y))
    assert divergence_l2(ops.space, W) == pytest.approx(2.0, rel=1e-13)


# ---- case compatibility check ------------------------------------------------------


def test_compatibility_check_rejects_net_inflow():
    # g = (x, 0) leaves through the right side only: net flux 1
    bad = make_case(g=lambda x, y, t: (x, np.zeros_like(x)))
    ok = make_case(g=lambda x, y, t: (x, -y))

    with pytest.raises(ValueError, match="flux"):
        check_boundary_compatibility(bad, times=(0.0,))
    check_boundary_compatibility(ok, times=(0.0,))
    check_boundary_compatibility(taylor_green_case(100.0), times=(0.0, 0.5, 1.0))


def test_boundary_flux_on_a_shifted_rectangle():
    # [0.25, 2.25] x [-1, 2]: g = (x, 0) has net flux int div g = |Omega| = 6
    def outflow(x, y, t):
        return x, np.zeros_like(x)

    case = CaseDefinition(name="outflow", nu=1.0, g=outflow, u0=zero_vec, domain=LOAD_DOMAIN)
    with pytest.raises(ValueError, match="net boundary flux 6.000e"):
        check_boundary_compatibility(case, times=(0.0,))
    through = CaseDefinition(name="through", nu=1.0, g=lambda x, y, t: (x, -y), u0=zero_vec, domain=LOAD_DOMAIN)
    check_boundary_compatibility(through, times=(0.0,))
    ops_r = GepupOperators(LOAD_DOMAIN, (4, 2), 3)
    W = interp2(ops_r.space, lambda x, y: outflow(x, y, 0.0))
    assert ops_r.eval_Fphi(W, case, 0.0).sum() == pytest.approx(-6.0, abs=1e-12)


def test_nan_boundary_data_fails_the_flux_check():
    def nan_g(x, y, t):
        return np.full_like(x, np.nan), np.full_like(x, np.nan)

    case = CaseDefinition(name="nan", nu=1.0, g=nan_g, u0=zero_vec)
    with pytest.raises(ValueError, match="net boundary flux nan"):
        check_boundary_compatibility(case, times=(0.0,))
