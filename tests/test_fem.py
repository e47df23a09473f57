import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gepup import (
    UNIT_SQUARE,
    RectDomain,
    assemble_mass,
    assemble_stiffness,
    build_mesh,
    build_space,
    error_norm,
    interpolate,
    shape_eval,
)
from gepup.fem import lagrange_1d
from fem_oracle import exact_global_matrices, permutation_to_space


# ---- reference element ------------------------------------------------------


def test_kronecker_property_q1_corner():
    vals, _ = shape_eval(1, (0.0, 0.0))
    assert np.allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kronecker_property_all_nodes(k):
    from gepup.fem import reference_element

    ref = reference_element(k)
    for n, pt in enumerate(ref.node_points):
        vals, _ = shape_eval(k, pt)
        expect = np.zeros(ref.n_local)
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


def test_quadrature_weights_sum_to_reference_area():
    from gepup.fem import reference_element

    for k in range(1, 5):
        assert reference_element(k).quad_weights.sum() == pytest.approx(1.0, abs=1e-14)


# ---- space construction -----------------------------------------------------


def test_dof_count_8x8_cubic():
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 3), 3)
    assert space.n_dofs == 625


def test_dof_count_matches_single_level_benchmark():
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 9), 3)
    assert space.n_dofs == 2_362_369  # 512x512 mesh, cubic elements


def test_dof_count_unit_cell_q1():
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 0), 1)
    assert space.n_dofs == 4


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (1, 3), (2, 3), (3, 3)])
def test_dof_count_formula_exhaustive(k, nx, ny):
    mesh = build_mesh(RectDomain((0, 0), (1.0, 2.0)), (nx, ny), 0)
    space = build_space(mesh, k)
    assert space.n_dofs == (k * nx + 1) * (k * ny + 1)
    # C0 continuity: every interior edge dof is shared, so the element-dof
    # table must reference each global index the right number of times
    counts = np.bincount(space.element_dofs.ravel(), minlength=space.n_dofs)
    assert counts.min() >= 1 and counts.max() <= 4


def test_boundary_dof_set_matches_support_points():
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 2), 3)
    pts = space.support_points
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
    mesh = build_mesh(UNIT_SQUARE, cells, 0)
    space = build_space(mesh, k)
    M = assemble_mass(space).toarray()
    A = assemble_stiffness(space).toarray()
    Mo, Ao, coords = exact_global_matrices(mesh, k)
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
    vals = space_q3_8x8.values_at_quad(coeffs)
    x = space_q3_8x8.quad_coords[:, :, 0]
    y = space_q3_8x8.quad_coords[:, :, 1]
    assert np.abs(vals - f(x, y, 0.0)).max() < 1e-13


def test_interpolate_taylor_green_velocity_sample():
    # u_x(0, 0.5, t=0) = -cos(0) sin(pi/2) = -1 lands on a support point
    space = build_space(build_mesh(UNIT_SQUARE, (1, 1), 1), 2)
    ux = interpolate(space, lambda x, y, t: -np.cos(np.pi * x) * np.sin(np.pi * y))
    j = np.flatnonzero(
        np.isclose(space.support_points[:, 0], 0.0)
        & np.isclose(space.support_points[:, 1], 0.5)
    )
    assert len(j) == 1
    assert ux[j[0]] == pytest.approx(-1.0, abs=1e-15)


# ---- error norms --------------------------------------------------------------


def test_error_norm_unit_constant(space_q3_8x8):
    zero = np.zeros(space_q3_8x8.n_dofs)
    err = error_norm(space_q3_8x8, zero, lambda x, y, t: np.ones_like(x), 0.0, "L2")
    assert err == pytest.approx(1.0, abs=1e-13)


def test_error_norm_linear_closed_form(space_q3_8x8):
    # ||x||_{L2(0,1)^2} = sqrt(int x^2) = 1/sqrt(3)
    zero = np.zeros(space_q3_8x8.n_dofs)
    err = error_norm(space_q3_8x8, zero, lambda x, y, t: x, 0.0, "L2")
    assert err == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-13)


def test_error_norm_consistency_for_exact_interpolant(space_q3_8x8):
    f = lambda x, y, t: x**2 * y - y**3 + 1.0
    grad = lambda x, y, t: (2 * x * y, x**2 - 3 * y**2)
    coeffs = interpolate(space_q3_8x8, f)
    assert error_norm(space_q3_8x8, coeffs, f, 0.0, "L2") < 1e-13
    assert error_norm(space_q3_8x8, coeffs, f, 0.0, "H1", exact_grad=grad) < 1e-12
    assert error_norm(space_q3_8x8, coeffs, f, 0.0, "Linf") < 1e-13


def test_error_norm_h1_includes_l2_part(space_q3_8x8):
    zero = np.zeros(space_q3_8x8.n_dofs)
    f = lambda x, y, t: x
    g = lambda x, y, t: (np.ones_like(x), np.zeros_like(x))
    h1 = error_norm(space_q3_8x8, zero, f, 0.0, "H1", exact_grad=g)
    assert h1 == pytest.approx(np.sqrt(1.0 / 3.0 + 1.0), rel=1e-12)


def test_galerkin_orthogonality_proxy(space_q3_8x8):
    # for u in the space, A @ coeffs(u) equals the load (grad u, grad eta_i)
    f = lambda x, y, t: x**3 - 2 * x * y**2 + y
    coeffs = interpolate(space_q3_8x8, f)
    A = assemble_stiffness(space_q3_8x8)
    x = space_q3_8x8.quad_coords[:, :, 0]
    y = space_q3_8x8.quad_coords[:, :, 1]
    load = space_q3_8x8.assemble_gradtest_load(3 * x**2 - 2 * y**2, -4 * x * y + 1.0)
    assert np.abs(A @ coeffs - load).max() < 1e-12


# ---- nested spaces -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prolongation_embeds_exactly(k):
    # a coarse Q_k field evaluated at the support points of the space one
    # level finer reproduces the fine interpolant of the same Q_k polynomial
    coarse = build_space(build_mesh(UNIT_SQUARE, (1, 1), 2), k)
    fine = build_space(build_mesh(UNIT_SQUARE, (1, 1), 3), k)
    f = lambda x, y, t: (x**k) * (y ** min(k, 2)) + 3 * x - y
    cc = interpolate(coarse, f)
    cf = interpolate(fine, f)
    mesh = coarse.mesh
    x, y = fine.support_points[:, 0], fine.support_points[:, 1]
    i = np.minimum((x / mesh.hx).astype(int), mesh.nx - 1)
    j = np.minimum((y / mesh.hy).astype(int), mesh.ny - 1)
    nodes = coarse.ref.nodes_1d
    vx, _ = lagrange_1d(nodes, x / mesh.hx - i)
    vy, _ = lagrange_1d(nodes, y / mesh.hy - j)
    phi = (vy[:, :, None] * vx[:, None, :]).reshape(len(x), -1)  # row-major local numbering
    embedded = np.sum(phi * cc[coarse.element_dofs[j * mesh.nx + i]], axis=1)
    assert np.abs(embedded - cf).max() < 1e-12


# ---- 1D tensor factors ----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_dimensional_factors_match_cellwise_loop(k):
    from gepup.fem import gauss_legendre_01, reference_element
    from gepup.tensorops import _global_1d

    n_cells, h = 5, 0.3
    q, w = gauss_legendre_01(k + 2)
    vals, ders = lagrange_1d(reference_element(k).nodes_1d, q)
    M1 = vals.T @ (w[:, None] * vals) * h
    K1 = ders.T @ (w[:, None] * ders) / h
    n = k * n_cells + 1
    M_ref = np.zeros((n, n))
    K_ref = np.zeros((n, n))
    for e in range(n_cells):
        sl = slice(k * e, k * e + k + 1)
        M_ref[sl, sl] += M1
        K_ref[sl, sl] += K1
    M, K = _global_1d(n_cells, h, k)
    assert np.array_equal(M.toarray(), M_ref)
    assert np.array_equal(K.toarray(), K_ref)
