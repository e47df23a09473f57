import numpy as np
import pytest

from gepup import (
    UNIT_SQUARE,
    CaseDefinition,
    build_mesh,
    interpolate,
    taylor_green_case,
    vector_error_norm,
)
from gepup.fem import boundary_flux
from gepup.operators import GepupOperators, check_boundary_compatibility


def zero_vec(x, y, t=0.0):
    z = np.zeros_like(np.asarray(x, dtype=float))
    return (z, z)


def make_case(nu=0.01, g=zero_vec, f=None, dg_dt=None):
    return CaseDefinition(
        name="synthetic", nu=nu, g=g, u0=lambda x, y: zero_vec(x, y), f=f, dg_dt=dg_dt
    )


@pytest.fixture(scope="module")
def ops():
    return GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 3), 3)


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
    ops1 = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), 0), 2)
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
    flux = boundary_flux(ops.space, case.g, 0.0)
    assert abs(flux) < 1e-14

    W2 = interp2(ops.space, lambda x, y: (x, np.zeros_like(y)))
    case2 = make_case(g=lambda x, y, t: (x, np.zeros_like(x)))
    load2 = ops.eval_Fphi(W2, case2, 0.0)
    flux2 = boundary_flux(ops.space, case2.g, 0.0)
    assert flux2 == pytest.approx(1.0, abs=1e-14)
    assert load2.sum() == pytest.approx(-flux2, abs=1e-13)


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
        ops_l = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), level), 3)
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
        err = vector_error_norm(
            space,
            [U2[0] - U[0], U2[1] - U[1]],
            lambda x, y, t: (np.zeros_like(x), np.zeros_like(x)),
            0.0,
            "L2",
        )
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
        ops_l = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), level), 3)
        V = interp2(ops_l.space, lambda x, y: case.exact_u(x, y, 0.0))
        U1, _ = ops_l.leray_project(V, case, 0.0)
        U2, _ = ops_l.leray_project(U1, case, 0.0)
        defects.append(
            vector_error_norm(
                ops_l.space,
                [U2[0] - U1[0], U2[1] - U1[1]],
                lambda x, y, t: (np.zeros_like(x), np.zeros_like(x)),
                0.0,
                "L2",
            )
        )
    assert defects[1] < defects[0] / 8.0
    assert defects[2] <= 1e-9


# ---- pressure load and extraction ------------------------------------------------


def test_Fq_zero_state(ops):
    z = np.zeros(ops.space.n_dofs)
    load = ops.eval_Fq([z, z], make_case(), 0.0)
    assert np.allclose(load, 0.0, atol=1e-15)


def test_Fq_constant_curl_has_zero_boundary_term(ops):
    # rigid rotation: curl = 2 everywhere; the closed-contour integral of a
    # tangential gradient vanishes, so the nu-dependent part must vanish
    U = interp2(ops.space, lambda x, y: (-y, x))
    load_nu = ops.eval_Fq(U, make_case(nu=0.7), 0.0)
    load_00 = ops.eval_Fq(U, make_case(nu=0.0), 0.0)
    assert np.abs(load_nu - load_00).max() < 1e-12


def test_Fq_boundary_term_sign_on_shear(ops):
    # u = (y^2, 0): curl = -2y; on the right face (tangent +e_y) the term
    # integrates -2y d(eta)/dy against nu, nonzero -> loads must differ
    U = interp2(ops.space, lambda x, y: (y**2, np.zeros_like(x)))
    load_nu = ops.eval_Fq(U, make_case(nu=1.0), 0.0)
    load_00 = ops.eval_Fq(U, make_case(nu=0.0), 0.0)
    assert np.abs(load_nu - load_00).max() > 1e-3


def test_pressure_zero_for_rest_state(ops):
    z = np.zeros(ops.space.n_dofs)
    Q = ops.compute_pressure([z, z], make_case(), 0.0)
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
        ops_l = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), level), 3)
        space = ops_l.space
        case = make_case(f=gpsi)
        z = np.zeros(space.n_dofs)
        Q = ops_l.compute_pressure([z, z], case, 0.0)
        mean = 4.0 / np.pi**2  # int of sin sin over the unit square
        from gepup import error_norm

        errs.append(error_norm(space, Q, lambda x, y, t: psi(x, y) - mean, 0.0, "L2"))
    assert errs[0] < 2e-4
    assert errs[1] < errs[0] / 10.0  # k+1 = 4 expected; demand at least ~3.3


def test_pressure_approximates_known_field_from_velocity():
    case = taylor_green_case(100.0)
    errs = []
    for level in (2, 3):
        ops_l = GepupOperators(build_mesh(UNIT_SQUARE, (1, 1), level), 3)
        space = ops_l.space
        U = interp2(space, lambda x, y: case.exact_u(x, y, 0.0))
        Q = ops_l.compute_pressure(U, case, 0.0)
        from gepup import error_norm

        errs.append(
            error_norm(space, Q, lambda x, y, t: case.exact_p(x, y, 0.0), 0.0, "L2")
        )
    assert errs[1] < errs[0] / 10.0  # ~ (k+1)-order decay under refinement


def test_pressure_is_mass_mean_zero_and_gauge_invariant(ops, rng):
    case = taylor_green_case(50.0)
    U = interp2(ops.space, lambda x, y: case.exact_u(x, y, 0.0))
    Q = ops.compute_pressure(U, case, 0.0)
    w = ops.mass_weights
    assert abs(w @ Q) <= 1e-10 * np.linalg.norm(Q) * np.linalg.norm(w)
    # shifting the potential by a constant must not change the projected velocity
    W = interp2(ops.space, lambda x, y: case.exact_u(x, y, 0.0))
    Phi = rng.standard_normal(ops.space.n_dofs)
    u1 = ops.solve_mass(ops.eval_Fu(W[0], Phi, 0))
    u2 = ops.solve_mass(ops.eval_Fu(W[0], Phi + 5.0, 0))
    assert np.abs(u1 - u2).max() < 1e-10


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
