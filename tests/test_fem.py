import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gepup import (
    UNIT_SQUARE,
    RectDomain,
    build_space,
    error_norms,
)
from gepup.fem import Axis, basis_1d, lagrange_1d
from gepup.linsolve import FOLD_MIN_DOFS, mirrored_basis
from gepup.operators import CaseDefinition
from eigen_oracle import dense_eigenpairs
from fem_oracle import (
    assemble_mass,
    assemble_stiffness,
    combination,
    exact_global_matrices,
    interpolate,
    permutation_to_space,
    quad_coords,
    shape_eval,
    support_points,
    values_at_quad,
)


# ---- reference element ------------------------------------------------------


def test_kronecker_property_q1_corner():
    vals, _ = shape_eval(1, (0.0, 0.0))
    assert np.allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kronecker_property_all_nodes(k):
    nodes = basis_1d(k).nodes
    node_points = [(x, y) for y in nodes for x in nodes]  # row-major, x fastest
    for n, pt in enumerate(node_points):
        vals, _ = shape_eval(k, pt)
        expect = np.zeros(len(node_points))
        expect[n] = 1.0
        assert np.allclose(vals, expect, atol=1e-12)


def test_q2_midpoint_node():
    vals, _ = shape_eval(2, (0.5, 0.5))
    expect = np.zeros(9)
    expect[4] = 1.0  # centre node in row-major numbering
    assert np.allclose(vals, expect, atol=1e-14)


@given(
    k=st.integers(1, 4),
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_partition_of_unity(k, x, y):
    vals, grads = shape_eval(k, (x, y))
    assert sum(vals) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-10)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        shape_eval(0, (0.5, 0.5))
    with pytest.raises(ValueError):
        shape_eval(7, (0.5, 0.5))
    with pytest.raises(ValueError):
        basis_1d(5)
    with pytest.raises(ValueError):
        build_space(UNIT_SQUARE, (2, 2), 0)


def test_quadrature_weights_sum_to_reference_area():
    for k in range(1, 5):
        weights = basis_1d(k).weights
        assert np.outer(weights, weights).sum() == pytest.approx(1.0, abs=1e-14)


# ---- space construction -----------------------------------------------------


def test_dof_count_8x8_cubic():
    space = build_space(UNIT_SQUARE, (8, 8), 3)
    assert space.n_dofs == 625


def test_dof_count_matches_single_level_benchmark():
    space = build_space(UNIT_SQUARE, (512, 512), 3)
    assert space.n_dofs == 2_362_369  # 512x512 mesh, cubic elements


def test_dof_count_unit_cell_q1():
    space = build_space(UNIT_SQUARE, (1, 1), 1)
    assert space.n_dofs == 4


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (1, 3), (2, 3), (3, 3)])
def test_dof_count_formula_exhaustive(k, nx, ny):
    space = build_space(RectDomain((0, 0), (1.0, 2.0)), (nx, ny), k)
    assert space.n_dofs == (k * nx + 1) * (k * ny + 1)
    # C0 continuity: every interior edge dof is shared, so the element-dof
    # table must reference each global index the right number of times
    counts = np.bincount(space.element_dofs.ravel(), minlength=space.n_dofs)
    assert counts.min() >= 1 and counts.max() <= 4


def test_boundary_dof_set_matches_support_points():
    space = build_space(UNIT_SQUARE, (4, 4), 3)
    pts = support_points(space)
    on_boundary = (
        np.isclose(pts[:, 0], 0.0)
        | np.isclose(pts[:, 0], 1.0)
        | np.isclose(pts[:, 1], 0.0)
        | np.isclose(pts[:, 1], 1.0)
    )
    assert np.array_equal(np.flatnonzero(on_boundary), space.boundary_dofs)


# ---- mass and stiffness -----------------------------------------------------

Q1_MASS = np.array(
    [
        [1 / 9, 1 / 18, 1 / 18, 1 / 36],
        [1 / 18, 1 / 9, 1 / 36, 1 / 18],
        [1 / 18, 1 / 36, 1 / 9, 1 / 18],
        [1 / 36, 1 / 18, 1 / 18, 1 / 9],
    ]
)
Q1_STIFFNESS = np.array(
    [
        [4, -1, -1, -2],
        [-1, 4, -2, -1],
        [-1, -2, 4, -1],
        [-2, -1, -1, 4],
    ]
) / 6.0


def test_single_q1_element_exact_matrices(space_q1_1el):
    M = assemble_mass(space_q1_1el).toarray()
    A = assemble_stiffness(space_q1_1el).toarray()
    assert np.allclose(M, Q1_MASS, atol=1e-15)
    assert np.allclose(A, Q1_STIFFNESS, atol=1e-14)


def test_mass_total_is_domain_area(space_q3_8x8):
    M = assemble_mass(space_q3_8x8)
    assert M.sum() == pytest.approx(1.0, abs=1e-13)


def test_mass_symmetry_and_spd(space_q3_8x8, rng):
    M = assemble_mass(space_q3_8x8)
    assert abs(M - M.T).max() < 1e-15
    for _ in range(5):
        x = rng.standard_normal(space_q3_8x8.n_dofs)
        assert x @ (M @ x) > 0.0


def test_stiffness_nullspace_and_coercivity(space_q3_8x8, rng):
    A = assemble_stiffness(space_q3_8x8)
    ones = np.ones(space_q3_8x8.n_dofs)
    assert np.abs(A @ ones).max() < 1e-12  # rows sum to zero
    for _ in range(5):
        x = rng.standard_normal(space_q3_8x8.n_dofs)
        x -= x.mean()
        assert x @ (A @ x) > 1e-10


def test_csr_indices_sorted_and_pattern_symmetric(space_q3_8x8):
    M = assemble_mass(space_q3_8x8)
    for row in range(M.shape[0]):
        cols = M.indices[M.indptr[row] : M.indptr[row + 1]]
        assert np.all(np.diff(cols) > 0)
    A = assemble_stiffness(space_q3_8x8)
    assert (A != 0).nnz == (A.T != 0).nnz


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("cells", [(1, 1), (2, 1), (2, 2)])
def test_assembly_matches_exact_integration_oracle(k, cells):
    space = build_space(UNIT_SQUARE, cells, k)
    M = assemble_mass(space).toarray()
    A = assemble_stiffness(space).toarray()
    Mo, Ao, coords = exact_global_matrices(UNIT_SQUARE, cells, k)
    perm = permutation_to_space(space, coords)
    Mo_p = np.zeros_like(M)
    Ao_p = np.zeros_like(A)
    Mo_p[np.ix_(perm, perm)] = Mo
    Ao_p[np.ix_(perm, perm)] = Ao
    assert np.abs(M - Mo_p).max() <= 1e-13 * np.abs(Mo_p).max()
    assert np.abs(A - Ao_p).max() <= 1e-13 * np.abs(Ao_p).max()


def test_assembly_is_deterministic(space_q3_8x8):
    M1 = assemble_mass(space_q3_8x8)
    M2 = assemble_mass(space_q3_8x8)
    assert np.array_equal(M1.data, M2.data)
    assert np.array_equal(M1.indices, M2.indices)


# ---- interpolation ----------------------------------------------------------


def test_interpolate_constant(space_q3_8x8):
    c = interpolate(space_q3_8x8, lambda x, y, t: np.full_like(x, 4.25))
    assert np.allclose(c, 4.25, atol=1e-15)


def test_interpolate_reproduces_qk_polynomials(space_q3_8x8):
    f = lambda x, y, t: x**3 * y**2 - 2 * x * y + 0.5 * y**3
    coeffs = interpolate(space_q3_8x8, f)
    vals = values_at_quad(space_q3_8x8, coeffs)
    x, y = quad_coords(space_q3_8x8)
    assert np.abs(vals - f(x, y, 0.0)).max() < 1e-13


def test_interpolate_taylor_green_velocity_sample():
    # u_x(0, 0.5, t=0) = -cos(0) sin(pi/2) = -1 lands on a support point
    space = build_space(UNIT_SQUARE, (2, 2), 2)
    ux = interpolate(space, lambda x, y, t: -np.cos(np.pi * x) * np.sin(np.pi * y))
    x, y = support_points(space).T
    j = np.flatnonzero(np.isclose(x, 0.0) & np.isclose(y, 0.5))
    assert len(j) == 1
    assert ux[j[0]] == pytest.approx(-1.0, abs=1e-15)


# ---- error norms --------------------------------------------------------------


def test_error_norm_unit_constant(space_q3_8x8):
    zero = np.zeros(space_q3_8x8.n_dofs)
    flat = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
    err = error_norms(space_q3_8x8, zero, lambda x, y, t: np.ones_like(x), 0.0, flat)["L2"]
    assert err == pytest.approx(1.0, abs=1e-13)


def test_error_norm_linear_closed_form(space_q3_8x8):
    # ||x||_{L2(0,1)^2} = sqrt(int x^2) = 1/sqrt(3)
    zero = np.zeros(space_q3_8x8.n_dofs)
    grad = lambda x, y, t: (np.ones_like(x), np.zeros_like(x))
    err = error_norms(space_q3_8x8, zero, lambda x, y, t: x, 0.0, grad)["L2"]
    assert err == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-13)


def test_error_norm_consistency_for_exact_interpolant(space_q3_8x8):
    f = lambda x, y, t: x**2 * y - y**3 + 1.0
    grad = lambda x, y, t: (2 * x * y, x**2 - 3 * y**2)
    coeffs = interpolate(space_q3_8x8, f)
    errs = error_norms(space_q3_8x8, coeffs, f, 0.0, exact_grads=grad)
    assert errs["L2"] < 1e-13
    assert errs["H1"] < 1e-12
    assert errs["Linf"] < 1e-13


def test_error_norm_h1_includes_l2_part(space_q3_8x8):
    zero = np.zeros(space_q3_8x8.n_dofs)
    f = lambda x, y, t: x
    g = lambda x, y, t: (np.ones_like(x), np.zeros_like(x))
    h1 = error_norms(space_q3_8x8, zero, f, 0.0, exact_grads=g)["H1"]
    assert h1 == pytest.approx(np.sqrt(1.0 / 3.0 + 1.0), rel=1e-12)


@pytest.mark.parametrize("k, level", [(3, 4), (4, 5)])
def test_error_norm_seminorm_ignores_a_constant_offset(k, level):
    # an interpolant of sin(x + 2y) + 1 against sin(x + 2y): the error is 1
    # plus the interpolation error, whose seminorm is the offset-free one.
    # Derived bound, u = 2^-53, n local dofs, L the largest Euclidean norm of
    # (sum_i |d phi_i/dx|, sum_i |d phi_i/dy|) at a quadrature point: the
    # offset coefficients fl(s_i + 1) are off by at most u each, and the
    # constant's gradients cancel exactly, so the true gradients differ by at
    # most u L; each gathered gradient product rounds by at most n u sum
    # |c_i| |d phi_i|, |c_i| <= 2 offset and <= 1 free, so 3 n u L for the
    # two; by the triangle inequality in the weighted norm over the unit
    # square the seminorms differ by at most the largest difference of the
    # gradient samples, with 1e-12 of the seminorm for the sums' rounding.
    # sqrt(H1^2 - L2^2) reads 0.0 at Q4 L5 and is off by 1.7 bounds at Q3 L4
    space = build_space(UNIT_SQUARE, (2**level, 2**level), k)
    exact = lambda x, y, t: np.sin(x + 2 * y)
    grads = lambda x, y, t: (np.cos(x + 2 * y), 2 * np.cos(x + 2 * y))
    free = error_norms(space, interpolate(space, exact), exact, 0.0, grads)
    offset = error_norms(space, interpolate(space, lambda x, y, t: exact(x, y, t) + 1.0), exact, 0.0, grads)
    L = np.hypot(np.abs(space.quad_dx).sum(axis=0), np.abs(space.quad_dy).sum(axis=0)).max()
    u = 2.0**-53
    bound = (1 + 3 * space.element_dofs.shape[1]) * u * L + 1e-12 * free["H1semi"]
    assert abs(offset["H1semi"] - free["H1semi"]) <= bound
    assert offset["L2"] == pytest.approx(1.0, abs=1e-11)
    assert offset["H1"] == np.sqrt(offset["L2"] ** 2 + offset["H1semi"] ** 2)


def test_galerkin_orthogonality_proxy(ops_q3_l3):
    # for u in the space, A @ coeffs(u) equals the load (grad u, grad eta_i):
    # the pressure load of a resting, inviscid flow forced by grad u
    space = ops_q3_l3.space
    f = lambda x, y, t: x**3 - 2 * x * y**2 + y
    coeffs = interpolate(space, f)
    A = assemble_stiffness(space)
    zero = lambda x, y, t=0.0: (np.zeros_like(x), np.zeros_like(x))
    case = CaseDefinition("grad-u", 0.0, zero, zero, f=lambda x, y, t: (3 * x**2 - 2 * y**2, -4 * x * y + 1.0))
    z = np.zeros(space.n_dofs)
    load, _, _ = ops_q3_l3.eval_Fq([z, z], case, 0.0, False)
    assert np.abs(A @ coeffs - load).max() < 1e-12


# ---- nested spaces -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prolongation_embeds_exactly(k):
    # a coarse Q_k field evaluated at the support points of the space one
    # level finer reproduces the fine interpolant of the same Q_k polynomial
    coarse = build_space(UNIT_SQUARE, (4, 4), k)
    fine = build_space(UNIT_SQUARE, (8, 8), k)
    f = lambda x, y, t: (x**k) * (y ** min(k, 2)) + 3 * x - y
    cc = interpolate(coarse, f)
    cf = interpolate(fine, f)
    n, h = 4, 0.25  # the coarse grid
    x, y = support_points(fine).T
    i = np.minimum((x / h).astype(int), n - 1)
    j = np.minimum((y / h).astype(int), n - 1)
    nodes = basis_1d(k).nodes
    vx, _ = lagrange_1d(nodes, x / h - i)
    vy, _ = lagrange_1d(nodes, y / h - j)
    phi = (vy[:, :, None] * vx[:, None, :]).reshape(len(x), -1)  # row-major local numbering
    embedded = np.sum(phi * cc[coarse.element_dofs[j * n + i]], axis=1)
    assert np.abs(embedded - cf).max() < 1e-12


# ---- 1D tensor factors ----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_dimensional_factors_match_cellwise_loop(k):
    from gepup.fem import Axis, gauss_legendre_01

    n_cells, length = 5, 1.5
    h = length / n_cells
    q, w = gauss_legendre_01(k + 2)
    vals, ders = lagrange_1d(basis_1d(k).nodes, q)
    locals_1d = (
        vals.T @ (w[:, None] * vals) * h,
        ders.T @ (w[:, None] * ders) / h,
        vals.T @ (w[:, None] * ders),
    )
    n = k * n_cells + 1
    axis = Axis(n_cells, length, k, 0.0)
    assert (axis.n_cells, axis.h) == (n_cells, h)
    for local, assembled in zip(locals_1d, (axis.M, axis.K, axis.C)):
        ref = np.zeros((n, n))
        for e in range(n_cells):
            sl = slice(k * e, k * e + k + 1)
            ref[sl, sl] += local
        assert np.array_equal(assembled.toarray(), ref)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.3)])
def test_tensor_matvec_is_bitwise_the_dense_times_csr_product(k, alpha, beta, rng):
    # every axis of this grid is one panel, whose block is the whole factor: the
    # pass's products are then the GEMMs with the dense factors (the x factors
    # transposed and contiguous, as the panels keep them), bit for bit
    from gepup.tensorops import XPass, norm_bound

    space = build_space(RectDomain((0.25, -1.0), (2.0, 3.0)), (4, 2), k)
    ax, ay = space.axes
    assert all(len(F.panels) == 1 for F in (ax.M, ax.K, ay.M, ay.K))
    MxT, KxT = (np.ascontiguousarray(F.toarray().T) for F in (ax.M, ax.K))
    My, Ky = ay.M.toarray(), ay.K.toarray()
    x = rng.standard_normal(space.n_dofs)
    X = x.reshape(space.ndof_y, space.ndof_x)
    P1 = X @ MxT
    expected = My @ (alpha * P1 + beta * (X @ KxT)) + beta * (Ky @ P1)
    product = combination(XPass(space.axes, x), alpha, beta)
    assert np.array_equal(product, expected.ravel())
    K = alpha * assemble_mass(space) + beta * assemble_stiffness(space)
    assert np.abs(product - K @ x).max() <= 1e-14 * np.abs(K @ x).max()
    assert norm_bound(ax.row_sums, ay.row_sums, alpha, beta) >= abs(K).sum(axis=1).max() * (1 - 1e-14)


FACTORS = {"M": lambda axis: axis.M, "K": lambda axis: axis.K, "C": lambda axis: axis.C, "CT": lambda axis: axis.CT}


@pytest.mark.parametrize("name", FACTORS)
@pytest.mark.parametrize("cells", [1, 2, 5, 13, 64])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_banded_factor_products_match_the_dense_products(k, cells, name, rng):
    # n = k * cells + 1 falls below and above ``PANEL_ROWS``: one panel up to
    # 21 dofs, a short last panel on 13 cells above Q2 (27 .. 53 dofs) and a
    # last panel of one row on 64 cells (65 .. 257 dofs).  Each entry of a
    # product is an inner product of at most 2k + 1 nonzero terms (zeros add
    # nothing), which the panels and the dense GEMM sum in different orders:
    # each is within (2k + 1) u of the exact value, relative to the sum of the
    # absolute terms (u = 2^-53), so the two differ by at most (4k + 2) u <= 18 u
    # of it, and the bound is 2e-15 (18.01 u)
    axis = Axis(cells, 1.5, k, 0.25)
    F = FACTORS[name](axis)
    dense = F.toarray()
    assert np.all(np.triu(dense, k + 1) == 0.0) and np.all(np.tril(dense, -k - 1) == 0.0)
    n = axis.n
    Z = rng.standard_normal((n, 7))
    Y = rng.standard_normal((n, 3 * n))[:, ::3]  # strided along both axes
    z = Y[:, 1]  # strided, as a column of the curl load's Ux
    cases = [
        (F @ Z, dense @ Z, np.abs(dense) @ np.abs(Z)),
        (F.times_t(Z.T), Z.T @ dense.T, np.abs(Z.T) @ np.abs(dense.T)),
        (F @ Y, dense @ Y, np.abs(dense) @ np.abs(Y)),
        (F.times_t(Y.T), Y.T @ dense.T, np.abs(Y.T) @ np.abs(dense.T)),
        (F @ z, dense @ z, np.abs(dense) @ np.abs(z)),
        (F.times_t(z), z @ dense.T, np.abs(z) @ np.abs(dense.T)),
    ]
    sums = np.abs(dense).sum(axis=1)
    cases.append((F.abs_row_sums(), sums, sums))
    for product, expected, magnitude in cases:
        assert product.shape == expected.shape and product.flags.c_contiguous
        assert np.all(np.abs(product - expected) <= 2e-15 * magnitude)


# ---- the space as a product of its axes ------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_space_geometry_and_tables_come_from_the_axes(k):
    nx, ny = 6, 4
    space = build_space(RectDomain((0.25, -1.0), (2.0, 3.0)), (nx, ny), k)
    h = np.array([2.0 / nx, 3.0 / ny])
    b = basis_1d(k)
    quad_points = np.array([(x, y) for y in b.points for x in b.points])  # y slow, as the local numbering
    node_points = np.array([(x, y) for y in b.nodes for x in b.nodes])
    # the quadrature axes, laid out in element order, are the oracle's points bit for bit
    on_axes = np.stack([space.quad_order(c, slice(None)) for c in np.broadcast_arrays(*space.quad_axes)], axis=-1)
    assert np.array_equal(on_axes, np.stack(quad_coords(space), axis=-1))
    pts = support_points(space)
    for e in range(nx * ny):
        j, i = divmod(e, nx)
        origin = np.array([0.25, -1.0]) + np.array([i, j]) * h
        assert np.abs(on_axes[e] - (origin + quad_points * h)).max() <= 1e-15
        nodes = pts[space.element_dofs[e]]
        assert np.abs(nodes - (origin + node_points * h)).max() <= 1e-15
    # the Kronecker tables are the point-by-point shape functions, scaled once by 1/h
    quad = [shape_eval(k, pt) for pt in quad_points]
    at_nodes = [shape_eval(k, pt) for pt in node_points]
    assert np.array_equal(space.quad_phi, np.array([v for v, _ in quad]).T)
    for d, (quad_d, node_d) in enumerate(((space.quad_dx, space.node_dx), (space.quad_dy, space.node_dy))):
        assert np.array_equal(quad_d, np.array([g[:, d] for _, g in quad]).T * (1.0 / h[d]))
        assert np.array_equal(node_d, np.array([g[:, d] for _, g in at_nodes]).T * (1.0 / h[d]))
    assert np.array_equal(space.wdet, np.outer(b.weights, b.weights).ravel() * (h[0] * h[1]))
    for table in (space.quad_phi, space.quad_dx, space.quad_dy, space.node_dx, space.node_dy):
        assert table.flags.c_contiguous


# ---- the axes' own quantities -----------------------------------------------


def test_square_grid_shares_one_axis_and_a_rectangle_has_two():
    square = build_space(UNIT_SQUARE, (8, 8), 2)
    assert square.axes[0] is square.axes[1]
    # no process-wide cache: a second space on the same grid builds its own axis
    assert build_space(UNIT_SQUARE, (8, 8), 2).axes[0] is not square.axes[0]
    rectangle = build_space(UNIT_SQUARE, (8, 4), 2)
    assert rectangle.axes[0] is not rectangle.axes[1]
    shifted = build_space(RectDomain((0.0, 0.5), (1.0, 1.0)), (8, 8), 2)
    assert shifted.axes[0] is not shifted.axes[1]


def test_an_axis_that_only_integrates_loads_assembles_no_factor():
    axis = Axis(6, 1.5, 3, 0.25)
    axis.load(np.ones(axis.points.shape))
    lazy = ("M", "K", "C", "row_sums", "eig", "interior_eig", "D", "CT", "end_columns")
    assert not set(lazy) & set(vars(axis))
    assert axis.M is axis.M


AXIS_ARRAYS = {
    "eig.S": lambda axis: axis.eig.S,
    "eig.lam": lambda axis: axis.eig.lam,
    "eig.lam_e": lambda axis: axis.eig.lam_e,
    "eig.Ye": lambda axis: axis.eig.Ye,
    "eig.lam_o": lambda axis: axis.eig.lam_o,
    "eig.Yo": lambda axis: axis.eig.Yo,
    "interior_eig.S": lambda axis: axis.interior_eig.S,
    "interior_eig.Ye": lambda axis: axis.interior_eig.Ye,
    "interior_eig.Yo": lambda axis: axis.interior_eig.Yo,
    "D": lambda axis: axis.D,
    "M.panel": lambda axis: axis.M.panels[0][2],
    "K.panel_t": lambda axis: axis.K.panels[0][3],
    "C.panel": lambda axis: axis.C.panels[0][2],
    "CT.panel_t": lambda axis: axis.CT.panels[0][3],
    "end_columns.M": lambda axis: axis.end_columns[0],
    "end_columns.K": lambda axis: axis.end_columns[1],
    "nodes": lambda axis: axis.nodes,
    "row_sums.M": lambda axis: axis.row_sums[0],
    "row_sums.K": lambda axis: axis.row_sums[1],
}


@pytest.mark.parametrize("name", AXIS_ARRAYS)
def test_axis_arrays_are_read_only(name):
    # x and y of a square grid are one axis; writes that keep every value, so
    # that one that got through corrupts nothing
    array = AXIS_ARRAYS[name](build_space(UNIT_SQUARE, (4, 4), 3).axes[0])
    with pytest.raises(ValueError, match="read-only"):
        array *= 1
    with pytest.raises(ValueError, match="read-only"):
        array[0] = array[0]


def test_only_an_axis_below_the_fold_size_holds_full_size_eigenvectors():
    # a Q3 axis of 64 cells transforms through its half-size pairs alone; one of 16 cells
    # keeps the full-size S it applies
    big, small = Axis(64, 1.0, 3, 0.0), Axis(16, 1.0, 3, 0.0)
    assert small.n < FOLD_MIN_DOFS <= big.n - 2
    for basis in (big.eig, big.interior_eig, small.eig, small.interior_eig):
        n = len(basis.lam)
        arrays = [a for v in vars(basis).values() for a in (v if isinstance(v, tuple) else (v,)) if a is not None]
        assert not any(a.flags.writeable for a in arrays)
        assert basis.Ye.shape == (n - n // 2,) * 2 and basis.Yo.shape == (n // 2,) * 2
        if n >= FOLD_MIN_DOFS:
            assert basis.S is None
            assert all(a.ndim < 2 or max(a.shape) < n for a in arrays)
        else:
            assert basis.S.shape == (n, n)


EIGEN_AXES = {  # Axis arguments: odd n for k = 1..4, even n, and a one-cell Q1 axis with an empty interior
    "1": (6, 1.5, 1, 0.25),
    "2": (6, 1.5, 2, 0.25),
    "3": (6, 1.5, 3, 0.25),
    "4": (6, 1.5, 4, 0.25),
    "q1-n4": (3, 1.5, 1, 0.0),
    "q3-n16": (5, 1.5, 3, 0.0),
    "q1-one-cell": (1, 1.5, 1, 0.0),
    # 1, 2, 3, 4, 7 and 16 cells at each degree: the two end frequencies alone (one
    # cell), one inner frequency, both parities of the cell count, and a one-dof Q1
    # interior (two cells); and a Q3 axis above the fold size (64 cells)
    **{f"q{k}-c{c}": (c, 0.7, k, -0.3) for k in (1, 2, 3, 4) for c in (1, 2, 3, 4, 7, 16)},
    "q3-c64": (64, 1.0, 3, 0.0),
}


@pytest.mark.parametrize("axis", EIGEN_AXES)
@pytest.mark.parametrize("block", ["full", "interior"])
def test_axis_eigenpairs_diagonalize_its_factors(axis, block):
    axis = Axis(*EIGEN_AXES[axis])
    cut = slice(None) if block == "full" else slice(1, -1)
    M, K = (F.toarray()[cut, cut] for F in (axis.M, axis.K))
    basis = axis.eig if block == "full" else axis.interior_eig
    lam, S = basis.lam, mirrored_basis(basis.Ye, basis.Yo)
    # below the fold size the axis keeps S, assembled from its halves
    if len(lam) < FOLD_MIN_DOFS:
        assert np.array_equal(basis.S, S)
    else:
        assert basis.S is None
    # the eigenvalues of the cell-frequency blocks are those of the full-size pencil,
    # laid out even block first, then odd block, each ascending
    oracle = scipy.linalg.eigh(K, M, eigvals_only=True)
    assert lam.shape == oracle.shape and S.shape == M.shape
    assert np.abs(np.sort(lam) - oracle).max(initial=0.0) <= 1e-12 * np.abs(oracle).max(initial=0.0)
    assert np.array_equal(lam, np.concatenate([basis.lam_e, basis.lam_o]))
    assert np.all(np.diff(basis.lam_e) >= 0.0) and np.all(np.diff(basis.lam_o) >= 0.0)
    assert np.array_equal(S[::-1, : len(basis.lam_e)], S[:, : len(basis.lam_e)])
    assert np.array_equal(S[::-1, len(basis.lam_e) :], -S[:, len(basis.lam_e) :])
    # residuals relative to the sizes of the two products, column by column
    KS, MS = K @ S, M @ S
    scale = np.linalg.norm(K, 2) + np.abs(lam) * np.linalg.norm(M, 2)
    residual = np.abs(KS - MS * lam).max(axis=0, initial=0.0)
    assert np.all(residual <= 1e-12 * scale * np.abs(S).max(axis=0, initial=0.0))
    assert np.abs(S.T @ MS - np.eye(len(lam))).max(initial=0.0) <= 1e-12
    if block == "full":  # the first even mode is the constant, of eigenvalue 0
        assert np.abs(S[:, 0] - S[0, 0]).max() <= 1e-12 * abs(S[0, 0])


def test_axis_eigenpairs_hold_their_halves_and_no_dense_pencil():
    # one Q3 L6 axis (n = 193, its interior 191) builds both bases from one
    # cell's blocks.  Each basis holds its halves and their transposed copies,
    # about n^2 doubles, and one family's products and phases take at most one
    # more n^2 while a basis is built: 3 n^2 for both (measured: 2.67 n^2).
    # The dense oracle copies out K and M (2 n^2) and folds and reduces them
    # beside the two bases it returns (measured: 4.98 n^2)
    axis, dense = Axis(64, 1.0, 3, 0.0), Axis(64, 1.0, 3, 0.0)
    dense.M, dense.K  # both paths start from what the axis holds
    bound = 8 * 3 * axis.n**2
    cuts = (slice(None), slice(1, -1))
    builds = (
        lambda: (axis.eig, axis.interior_eig),
        lambda: [dense_eigenpairs(dense.K.toarray()[c, c], dense.M.toarray()[c, c]) for c in cuts],
    )
    peaks = []
    for build in builds:
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= bound < peaks[1], (peaks, bound)
