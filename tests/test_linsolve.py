import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gepup import RectDomain, SolverError, UNIT_SQUARE, linsolve, lid_cavity_case, taylor_green_case
from gepup.fem import Axis, cell_eigenbasis
from gepup.linsolve import REL_TOL, FastDiagonalization, check_backward_error
from gepup.operators import GepupOperators
from eigen_oracle import dense_eigenpairs
from fem_oracle import assemble_mass, assemble_stiffness, interior_dofs, support_points


# FOLD_MIN_DOFS values that put every axis on one transform path: its even and
# odd halves, or the full-size S
PATHS = {"folded": 0, "full": sys.maxsize}


def on_each_path(monkeypatch, build):
    """What ``build()`` returns, built once on each transform path."""
    for min_dofs in PATHS.values():
        monkeypatch.setattr(linsolve, "FOLD_MIN_DOFS", min_dofs)
        yield build()


# ---- one fast-diagonalization apply on small dense systems --------------------


def test_identity_pencil_returns_the_rhs():
    fdm = one_axis_solver(np.eye(5), np.eye(5))
    b = np.array([1.0, -2.0, 3.0, 0.5, 0.0])
    assert np.allclose(fdm.apply(b, 1.0 / fdm.lam), b, atol=1e-14)
    assert np.allclose(fdm.apply(b, 1.0), b, atol=1e-14)


def test_tridiagonal_known_solution():
    A = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], float)
    b = np.array([1.0, 0.0, 0.0])
    # dense direct oracle
    assert np.allclose(np.linalg.solve(A, b), [0.75, 0.5, 0.25], atol=1e-14)
    fdm = one_axis_solver(np.eye(3), A)
    x = fdm.apply(b, 1.0 / fdm.lam)
    assert np.allclose(x, [0.75, 0.5, 0.25], atol=1e-13)
    assert check_backward_error("tridiagonal", b, A @ x, x, 4.0) <= 1e-15


def mirrored(A):
    # A + J A J, J the reflection i -> n-1-i: the symmetry every axis's factors have
    return A + A[::-1, ::-1]


def random_spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def test_one_apply_solves_any_spd_pencil(rng, monkeypatch):
    # one apply solves alpha M + beta K exactly for any mirror-symmetric SPD
    # pencil, of either parity, on either transform path, no iteration needed
    for n in range(2, 11):
        K = mirrored(random_spd(rng, n))
        M = mirrored(random_spd(rng, n))
        b = rng.standard_normal(n)
        for fdm in on_each_path(monkeypatch, lambda: one_axis_solver(M, K)):
            for alpha, beta in ((0.0, 1.0), (1.0, 0.0), (1.0, 0.3)):
                x = fdm.apply(b, 1.0 / (alpha + beta * fdm.lam))
                x_ref = np.linalg.solve(alpha * M + beta * K, b)
                assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


ORACLE_AXES = {  # Axis arguments on both sides of the fold size: odd and even n, and n = 2
    "q3-n49": (16, 1.0, 3, 0.0),
    "q1-n16": (15, 1.5, 1, 0.25),
    "q3-n193": (64, 1.0, 3, 0.0),
    "q1-n128": (127, 1.5, 1, 0.25),
    "q1-n2": (1, 1.5, 1, 0.0),  # its interior is empty
}
Y_AXIS = (3, 2.0, 2, -1.0)  # n = 7: a rectangular grid, its y axis below the fold size


def dense_transform(axis, block):
    # S diag(lam) S^T of the block from one full-size eigh, in ascending order
    cut = slice(None) if block == "full" else slice(1, -1)
    return scipy.linalg.eigh(axis.K.toarray()[cut, cut], axis.M.toarray()[cut, cut])


@pytest.mark.parametrize("path", ["default", *PATHS])
@pytest.mark.parametrize("block", ["full", "interior"])
@pytest.mark.parametrize("axis", ORACLE_AXES)
def test_apply_matches_a_dense_eigh_oracle(axis, block, path, rng, monkeypatch):
    # each scale is a function of the 2D eigenvalue, so S diag(scale) S^T does
    # not depend on the order, signs or parity of the modes.  The functions are
    # well conditioned (a mass solve, a Helmholtz solve with coeff * lam <= 4, the
    # Neumann projector off the constants), so that the oracle's own eigenvector
    # error stays at rounding; a Poisson inverse would measure that error instead
    if path != "default":
        monkeypatch.setattr(linsolve, "FOLD_MIN_DOFS", PATHS[path])
    ax, ay = Axis(*ORACLE_AXES[axis]), Axis(*Y_AXIS)
    basis = (lambda a: a.eig) if block == "full" else (lambda a: a.interior_eig)
    fdm = FastDiagonalization(basis(ax), basis(ay))
    n = len(basis(ax).lam)
    assert (basis(ax).S is None) == (n >= linsolve.FOLD_MIN_DOFS)
    (lam_x, Sx), (lam_y, Sy) = dense_transform(ax, block), dense_transform(ay, block)
    lam = lam_y[:, None] + lam_x[None, :]
    coeff = 4.0 / lam.max(initial=1.0)
    scales = {"mass": (1.0, 1.0), "helmholtz": (1.0 / (1.0 + coeff * fdm.lam), 1.0 / (1.0 + coeff * lam))}
    if block == "full":  # the constant mode comes first in both orders
        off_constants = np.ones_like(lam)
        off_constants.ravel()[0] = 0.0
        scales["neumann"] = (fdm.neumann_scale * fdm.lam, off_constants)
    b = rng.standard_normal(fdm.lam.size)
    for name, (scale, oracle_scale) in scales.items():
        x = fdm.apply(b, scale)
        oracle = (Sy @ (oracle_scale * (Sy.T @ b.reshape(lam.shape) @ Sx)) @ Sx.T).ravel()
        assert x.shape == oracle.shape
        assert np.abs(x - oracle).max(initial=0.0) <= 1e-13 * np.abs(oracle).max(initial=0.0), name


@pytest.mark.parametrize("block", ["full", "interior"])
def test_folded_apply_allocates_nothing_beyond_its_result(block, rng):
    # n = 193 and 191 (Q3, 64 cells): both fold.  A ufunc with a reversed operand
    # would allocate numpy's iteration buffers (64 KB and more a call); the
    # forward copies into the work arrays leave a few Python objects only
    axis = Axis(64, 1.0, 3, 0.0)
    basis = axis.eig if block == "full" else axis.interior_eig
    assert basis.S is None
    fdm = FastDiagonalization(basis, basis)
    b = rng.standard_normal(fdm.lam.size)
    fdm.apply(b, 1.0)  # the first apply allocates the work arrays
    tracemalloc.start()
    try:
        x = fdm.apply(b, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - x.nbytes < 4096


def test_full_and_interior_solvers_share_one_work_pair():
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 3)
    assert ops.interior_eig.work_owner is ops.eig
    assert "_work" not in ops.eig.__dict__  # allocated at the first apply, not with the operators
    ops.interior_eig.apply(np.ones(ops.interior_eig.lam.size), 1.0)
    ops.eig.apply(np.ones(ops.eig.lam.size), 1.0)
    assert ops.eig._work.shape == (2, ops.eig.lam.size)
    assert np.shares_memory(ops.eig._work, ops.interior_eig._work)


@pytest.mark.parametrize("asymmetric", ["K", "M"])
def test_eigenpairs_reject_a_pencil_that_is_not_mirror_symmetric(rng, asymmetric):
    # the cell-frequency blocks and their parities are exact only for cell
    # blocks with J K J = K and J M J = M, J the cell's reflection
    blocks = {"K": mirrored(random_spd(rng, 4)), "M": mirrored(random_spd(rng, 4))}
    blocks[asymmetric] = random_spd(rng, 4)
    for interior in (False, True):
        with pytest.raises(ValueError, match=f"mirror-symmetric pencil; {asymmetric} is not"):
            cell_eigenbasis(blocks["K"], blocks["M"], 4, interior)


# ---- pure-Neumann (Poisson) solve ---------------------------------------------

PATH_LAPLACIAN = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


def one_axis_solver(M, K):
    # a 1 x n tensor grid whose y factors (My = 1, Ky = 0) make the grid's M, A the given
    # M, K; the pairs come from the dense oracle, which takes any mirror-symmetric pencil
    return FastDiagonalization(dense_eigenpairs(K, M), dense_eigenpairs(np.zeros((1, 1)), np.eye(1)))


def path_graph_solver():
    return one_axis_solver(np.eye(3), np.asarray(PATH_LAPLACIAN, float))


def ops_q3_l3_on_each_path(monkeypatch):
    return on_each_path(monkeypatch, lambda: GepupOperators(UNIT_SQUARE, (8, 8), 3))


def test_neumann_path_graph_known_solution(monkeypatch):
    b = np.array([1.0, 0.0, -1.0])
    # pseudoinverse oracle: the compatible mean-zero solution is (1, 0, -1)
    oracle = np.linalg.pinv(np.asarray(PATH_LAPLACIAN, float)) @ b
    assert np.allclose(oracle, [1.0, 0.0, -1.0], atol=1e-12)
    A = np.asarray(PATH_LAPLACIAN, float)
    for solver in on_each_path(monkeypatch, path_graph_solver):
        x, bc = solver.solve_neumann(b, np.ones(3))
        assert np.allclose(x, oracle, atol=1e-13)
        assert check_backward_error("path", bc, A @ x, x, 4.0) <= 1e-15


def test_neumann_pure_nullspace_rhs(monkeypatch):
    for solver in on_each_path(monkeypatch, path_graph_solver):
        assert np.allclose(solver.solve_neumann(np.full(3, 7.5), np.ones(3))[0], 0.0, atol=1e-13)
    for ops in ops_q3_l3_on_each_path(monkeypatch):
        x = ops.solve_poisson(np.full(ops.space.n_dofs, 7.5), "poisson_phi").x
        assert np.abs(x).max() < 1e-12


def test_neumann_shift_invariance(monkeypatch, rng):
    for ops in ops_q3_l3_on_each_path(monkeypatch):
        b = rng.standard_normal(ops.space.n_dofs)
        x1 = ops.solve_poisson(b, "poisson_phi").x
        x2 = ops.solve_poisson(b + 3.25, "poisson_phi").x
        assert np.abs(x1 - x2).max() <= 1e-12 * np.abs(x1).max()


def test_neumann_mass_weighted_mean_zero(monkeypatch, rng):
    for ops in ops_q3_l3_on_each_path(monkeypatch):
        w = ops.mass_weights
        b = rng.standard_normal(ops.space.n_dofs)
        x = ops.solve_poisson(b, "poisson_q").x
        assert abs(w @ x) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(w)


def test_neumann_known_discrete_solution(monkeypatch):
    for ops in ops_q3_l3_on_each_path(monkeypatch):
        space = ops.space
        pts = support_points(space)
        x_true = np.cos(np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1]) + pts[:, 0] ** 3
        x_true -= (ops.mass_weights @ x_true) / ops.mass_weights.sum()
        x = ops.solve_poisson(assemble_stiffness(space) @ x_true, "poisson_q").x
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
    bd, inner = space.boundary_dofs, interior_dofs(space)
    g = rng.standard_normal(len(bd))
    x_ref = np.zeros(space.n_dofs)
    x_ref[bd] = g
    x_ref[inner] = scipy.linalg.solve(K[np.ix_(inner, inner)], b[inner] - K[np.ix_(inner, bd)] @ g)
    x = ops.momentum_operator(coeff).solve(b, g).x
    assert np.array_equal(x[bd], g)
    assert np.abs(x - x_ref).max() <= 1e-11 * np.abs(x_ref).max()

    for name in ("momentum", "poisson_phi", "mass"):
        assert ops.residuals[name] <= 1e-14


def test_zero_rhs_gives_zero_solution(ops_q3_l3):
    fdm = one_axis_solver(np.eye(2), np.array([[3.0, 1.0], [1.0, 3.0]]))  # mirror symmetric, as the oracle needs
    assert np.array_equal(fdm.apply(np.zeros(2), 1.0 / fdm.lam), np.zeros(2))
    z = np.zeros(ops_q3_l3.space.n_dofs)
    assert np.array_equal(ops_q3_l3.solve_mass(z).x, z)
    assert np.array_equal(ops_q3_l3.solve_poisson(z, "poisson_q").x, z)
    gz = np.zeros(len(ops_q3_l3.space.boundary_dofs))
    assert np.array_equal(ops_q3_l3.momentum_operator(0.1).solve(z, gz).x, z)


# ---- the backward-error check ------------------------------------------------------


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_solves_reject_nonfinite_inputs(ops_q3_l3):
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
    # the check's product is (M + c A) x on the interior rows, ring values
    # included, which the lid's unit wall makes nonzero
    ops = GepupOperators(UNIT_SQUARE, (4, 4), 3)
    space = ops.space
    gx, _ = ops.boundary_values(lid_cavity_case(1000.0), 0.0)
    assert gx.max() == 1.0
    coeff = 0.05
    b = rng.standard_normal(space.n_dofs)
    x = ops.momentum_operator(coeff).solve(b, gx).x
    assert 0.0 < ops.residuals["momentum"] <= REL_TOL
    K = (assemble_mass(space) + coeff * assemble_stiffness(space)).toarray()
    bd, inner = space.boundary_dofs, interior_dofs(space)
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


@pytest.mark.parametrize("cells, k", [((1, 1), 2), ((8, 8), 3)], ids=["one-q2-cell", "q3-l3"])
def test_momentum_check_scales_by_the_whole_solution(cells, k, monkeypatch):
    # rhs = (M + c A) u for the Taylor-Green interpolant u, with u's ring
    # values as the Dirichlet data.  On one Q2 cell the one interior value
    # (the stagnant centre) and its load are round-off, while the ring's terms
    # in its row are about 0.1: scaled by the whole solution, the round-off
    # of those terms is no backward error.  An interior solution off by 1e-8
    # of the solution's norm still fails the check
    ops = GepupOperators(UNIT_SQUARE, cells, k)
    space = ops.space
    op = ops.momentum_operator(5e-4)
    apply = ops.interior_eig.apply
    rng = np.random.default_rng(8)
    exact = taylor_green_case(100.0).exact_u(*support_points(space).T, 0.0)
    for u in exact:
        p = ops.x_pass(u)
        rhs = p.mass + op.coeff * p.stiffness
        ring = u[space.boundary_dofs]
        ops.reset_residuals()
        x = op.solve(rhs, ring).x
        assert ops.residuals["momentum"] <= REL_TOL
        assert np.abs(x - u).max() <= 1e-13
        delta = rng.standard_normal(len(interior_dofs(space)))
        delta *= 1e-8 * np.linalg.norm(x) / np.linalg.norm(delta)
        monkeypatch.setattr(ops.interior_eig, "apply", lambda b, scale: apply(b, scale) + delta)
        with pytest.raises(SolverError, match=r"momentum solve: backward error \d"):
            op.solve(rhs, ring)
        monkeypatch.undo()


def test_backward_error_is_normwise_relative():
    K = np.diag([2.0, 4.0])
    b = np.array([2.0, 4.0])
    # x = (1, 1 + d): ||b - Kx|| = 4 d against ||b|| + ||K|| ||x|| = sqrt(20) + 4 ||x||,
    # about 10.1, so d = 1e-12 lands below REL_TOL and d = 1e-11 above it
    x = np.array([1.0, 1.0 + 1e-12])
    eta = check_backward_error("toy", b, K @ x, x, 4.0)
    assert eta == pytest.approx(4.0 * (x[1] - 1.0) / (np.sqrt(20.0) + 4.0 * np.linalg.norm(x)))
    assert 0.1 * REL_TOL < eta < REL_TOL
    x = np.array([1.0, 1.0 + 1e-11])
    with pytest.raises(SolverError, match="toy solve: backward error 3.9"):
        check_backward_error("toy", b, K @ x, x, 4.0)
