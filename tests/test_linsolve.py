import numpy as np
import pytest
import scipy.linalg

from gepup import RectDomain, SolverError, UNIT_SQUARE, lid_cavity_case
from gepup.linsolve import FastDiagonalization, check_backward_error, eigenpairs
from gepup.operators import GepupOperators
from fem_oracle import assemble_mass, assemble_stiffness


# ---- one fast-diagonalization apply on small dense systems --------------------
# (the test names are kept from the conjugate-gradient solver these tests replace)


def test_cg_identity_single_iteration():
    fdm = one_axis_solver(np.eye(5), np.eye(5))
    b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    assert np.allclose(fdm.apply(b, 1.0 / fdm.lam), b, atol=1e-14)
    assert np.allclose(fdm.apply(b, 1.0), b, atol=1e-14)


def test_cg_tridiagonal_known_solution():
    A = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], float)
    b = np.array([1.0, 0.0, 0.0])
    # dense direct oracle
    assert np.allclose(np.linalg.solve(A, b), [0.75, 0.5, 0.25], atol=1e-14)
    fdm = one_axis_solver(np.eye(3), A)
    x = fdm.apply(b, 1.0 / fdm.lam)
    assert np.allclose(x, [0.75, 0.5, 0.25], atol=1e-13)
    assert check_backward_error("tridiagonal", b, A @ x, x, 4.0, 1e-14) <= 1e-15


def test_cg_exact_in_n_iterations(rng):
    # one apply solves alpha M + beta K exactly for any SPD pencil, no iteration needed
    for n in range(2, 11):
        Q = rng.standard_normal((n, n))
        K = Q @ Q.T + n * np.eye(n)
        R = rng.standard_normal((n, n))
        M = R @ R.T + n * np.eye(n)
        b = rng.standard_normal(n)
        fdm = one_axis_solver(M, K)
        for alpha, beta in ((0.0, 1.0), (1.0, 0.0), (1.0, 0.3)):
            x = fdm.apply(b, 1.0 / (alpha + beta * fdm.lam))
            x_ref = np.linalg.solve(alpha * M + beta * K, b)
            assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


# ---- pure-Neumann (Poisson) solve ---------------------------------------------

PATH_LAPLACIAN = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


def one_axis_solver(M, K):
    # a 1 x n tensor grid whose y factors (My = 1, Ky = 0) make the grid's M, A the given M, K
    return FastDiagonalization(eigenpairs(K, M), eigenpairs(np.zeros((1, 1)), np.eye(1)))


def path_graph_solver():
    return one_axis_solver(np.eye(3), np.asarray(PATH_LAPLACIAN, float))


def test_neumann_path_graph_known_solution():
    b = np.array([1.0, 0.0, -1.0])
    x, bc = path_graph_solver().solve_neumann(b, np.ones(3))
    # pseudoinverse oracle: the compatible mean-zero solution is (1, 0, -1)
    oracle = np.linalg.pinv(np.asarray(PATH_LAPLACIAN, float)) @ b
    assert np.allclose(oracle, [1.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(x, oracle, atol=1e-13)
    A = np.asarray(PATH_LAPLACIAN, float)
    assert check_backward_error("path", bc, A @ x, x, 4.0, 1e-14) <= 1e-15


def test_neumann_pure_nullspace_rhs(ops_q3_l3):
    assert np.allclose(path_graph_solver().solve_neumann(np.full(3, 7.5), np.ones(3))[0], 0.0, atol=1e-13)
    x = ops_q3_l3.solve_poisson(np.full(ops_q3_l3.space.n_dofs, 7.5), "poisson_phi").x
    assert np.abs(x).max() < 1e-12


def test_neumann_shift_invariance(ops_q3_l3, rng):
    b = rng.standard_normal(ops_q3_l3.space.n_dofs)
    x1 = ops_q3_l3.solve_poisson(b, "poisson_phi").x
    x2 = ops_q3_l3.solve_poisson(b + 3.25, "poisson_phi").x
    assert np.abs(x1 - x2).max() <= 1e-12 * np.abs(x1).max()


def test_neumann_mass_weighted_mean_zero(ops_q3_l3, rng):
    w = ops_q3_l3.mass_weights
    b = rng.standard_normal(ops_q3_l3.space.n_dofs)
    x = ops_q3_l3.solve_poisson(b, "poisson_q").x
    assert abs(w @ x) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(w)


def test_neumann_known_discrete_solution(ops_q3_l3):
    space = ops_q3_l3.space
    pts = space.support_points
    x_true = np.cos(np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1]) + pts[:, 0] ** 3
    x_true -= (ops_q3_l3.mass_weights @ x_true) / ops_q3_l3.mass_weights.sum()
    x = ops_q3_l3.solve_poisson(assemble_stiffness(space) @ x_true, "poisson_q").x
    assert np.abs(x - x_true).max() <= 1e-11 * np.abs(x_true).max()


# ---- every solve against dense references ------------------------------------------

DOMAIN = RectDomain((0.25, -1.0), (2.0, 3.0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_direct_solves_match_dense_references(k, rng):
    ops = GepupOperators(DOMAIN, (4, 2), k)  # 4 x 2 cells, hx != hy
    space = ops.space
    assert space.ndof_x != space.ndof_y
    M = assemble_mass(space).toarray()
    A = assemble_stiffness(space).toarray()
    w = ops.mass_weights
    b = rng.standard_normal(space.n_dofs)

    x_ref = scipy.linalg.pinvh(A) @ (b - b.mean())
    x_ref -= (w @ x_ref) / w.sum()
    x = ops.solve_poisson(b, "poisson_phi").x
    assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()

    x_ref = scipy.linalg.solve(M, b, assume_a="pos")
    assert np.abs(ops.solve_mass(b).x - x_ref).max() <= 1e-11 * np.abs(x_ref).max()

    coeff = 0.03
    K = M + coeff * A
    bd, inner = space.boundary_dofs, space.interior_dofs
    g = rng.standard_normal(len(bd))
    x_ref = np.zeros(space.n_dofs)
    x_ref[bd] = g
    x_ref[inner] = scipy.linalg.solve(K[np.ix_(inner, inner)], b[inner] - K[np.ix_(inner, bd)] @ g)
    x = ops.momentum_operator(coeff).solve(b, g).x
    assert np.array_equal(x[bd], g)
    assert np.abs(x - x_ref).max() <= 1e-11 * np.abs(x_ref).max()

    for name in ("momentum", "poisson_phi", "mass"):
        assert ops.residuals[name] <= 1e-14


def test_cg_zero_rhs(ops_q3_l3):
    fdm = one_axis_solver(np.eye(2), np.diag([2.0, 3.0]))
    assert np.array_equal(fdm.apply(np.zeros(2), 1.0 / fdm.lam), np.zeros(2))
    z = np.zeros(ops_q3_l3.space.n_dofs)
    assert np.array_equal(ops_q3_l3.solve_mass(z).x, z)
    assert np.array_equal(ops_q3_l3.solve_poisson(z, "poisson_q").x, z)
    gz = np.zeros(len(ops_q3_l3.space.boundary_dofs))
    assert np.array_equal(ops_q3_l3.momentum_operator(0.1).solve(z, gz).x, z)


# ---- the backward-error check ------------------------------------------------------


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_cg_rejects_nonfinite_inputs(ops_q3_l3):
    n = ops_q3_l3.space.n_dofs
    bad = np.ones(n)
    bad[n // 3] = np.nan
    with pytest.raises(SolverError, match="poisson_q"):
        ops_q3_l3.solve_poisson(bad, "poisson_q")
    with pytest.raises(SolverError, match="mass"):
        ops_q3_l3.solve_mass(bad)
    with pytest.raises(SolverError, match="momentum"):
        ops_q3_l3.momentum_operator(0.1).solve(bad, np.zeros(len(ops_q3_l3.space.boundary_dofs)))
    bad[n // 3] = np.inf
    with pytest.raises(SolverError, match="mass"):
        ops_q3_l3.solve_mass(bad)


def test_backward_error_check_catches_a_wrong_solve(rng):
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 3)
    b = rng.standard_normal(ops.space.n_dofs)
    ops.solve_poisson(b, "poisson_phi")
    scale = ops.eig.neumann_scale.copy()
    ops.eig.neumann_scale = 2.0 * ops.eig.neumann_scale
    with pytest.raises(SolverError, match=r"poisson_phi solve: backward error \d"):
        ops.solve_poisson(b, "poisson_phi")
    mom = ops.momentum_operator(0.05)
    mom.scale = mom.scale * (1.0 + 1e-9)
    with pytest.raises(SolverError, match="momentum"):
        mom.solve(b, np.zeros(len(ops.space.boundary_dofs)))
    # the next operator starts from its own spectrum
    fresh = GepupOperators(UNIT_SQUARE, (4, 4), 3)
    assert np.array_equal(fresh.eig.neumann_scale, scale)
    fresh.solve_poisson(b, "poisson_phi")
    fresh.momentum_operator(0.05).solve(b, np.zeros(len(ops.space.boundary_dofs)))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_momentum_check_with_nonzero_dirichlet_data(rng):
    # the check's K x_i is (M + c A) x on the interior rows less the lift of
    # the boundary values, which the lid's unit wall makes nonzero
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 3)
    space = ops.space
    gx, _ = ops.boundary_values(lid_cavity_case(1000.0), 0.0)
    assert gx.max() == 1.0
    coeff = 0.05
    b = rng.standard_normal(space.n_dofs)
    x = ops.momentum_operator(coeff).solve(b, gx).x
    assert 0.0 < ops.residuals["momentum"] <= ops.rel_tol
    K = (assemble_mass(space) + coeff * assemble_stiffness(space)).toarray()
    bd, inner = space.boundary_dofs, space.interior_dofs
    x_ref = scipy.linalg.solve(K[np.ix_(inner, inner)], b[inner] - K[np.ix_(inner, bd)] @ gx)
    assert np.abs(x[inner] - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    mom = ops.momentum_operator(coeff)
    mom.scale = mom.scale * (1.0 + 1e-9)
    with pytest.raises(SolverError, match=r"momentum solve: backward error \d"):
        mom.solve(b, gx)
    bad = gx.copy()
    bad[-1] = np.nan
    with pytest.raises(SolverError, match="momentum solve"):
        ops.momentum_operator(coeff).solve(b, bad)


def test_backward_error_is_normwise_relative():
    K = np.diag([2.0, 4.0])
    b = np.array([2.0, 4.0])
    x = np.array([1.0, 1.0 + 1e-6])
    # ||b - Kx|| = 4e-6 against ||b|| + ||K|| ||x|| = sqrt(20) + 4 sqrt(2)
    eta = check_backward_error("toy", b, K @ x, x, 4.0, 1e-5)
    assert eta == pytest.approx(4e-6 / (np.sqrt(20.0) + 4.0 * np.sqrt(2.0 + 2e-6 + 1e-12)))
    with pytest.raises(SolverError, match="toy solve"):
        check_backward_error("toy", b, K @ x, x, 4.0, 1e-7)
