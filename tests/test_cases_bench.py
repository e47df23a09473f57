import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gepup import (
    UNIT_SQUARE,
    SolverError,
    build_space,
    dorfler_mark,
    interpolate,
    lid_cavity_case,
    single_vortex_case,
    taylor_green_case,
    vorticity_indicator,
)
from gepup.bench import ConvergenceTable, run_convergence, run_simulation
from gepup.cases import vortex_u_theta
from gepup.fem import basis_1d
from gepup.imex import StepperConfig, courant_dt


# ---- case definitions ---------------------------------------------------------


def test_taylor_green_centre_is_stagnant():
    case = taylor_green_case(100.0)
    ux, uy = case.exact_u(0.5, 0.5, 0.3)
    assert abs(ux) < 1e-15 and abs(uy) < 1e-15


def test_taylor_green_edge_midpoint_velocity():
    case = taylor_green_case(100.0)
    ux, uy = case.exact_u(0.0, 0.5, 0.0)
    assert ux == pytest.approx(-1.0, abs=1e-15)
    assert uy == pytest.approx(0.0, abs=1e-15)


def test_taylor_green_pressure_corner_and_mean():
    case = taylor_green_case(100.0)
    assert case.exact_p(0.0, 0.0, 0.0) == pytest.approx(-0.5, abs=1e-15)
    # quadrature oracle for the zero mean
    space = build_space(UNIT_SQUARE, (16, 16), 3)
    x = space.quad_coords[:, :, 0]
    y = space.quad_coords[:, :, 1]
    mean = float(np.sum(case.exact_p(x, y, 0.0) @ space.wdet))
    assert abs(mean) < 1e-14


def test_taylor_green_gradients_match_finite_differences():
    case = taylor_green_case(73.0)
    x, y, t, eps = 0.3, 0.7, 0.4, 1e-6
    (uxx, uxy), (uyx, uyy) = case.exact_u_grads(x, y, t)
    fd_xx = (case.exact_u(x + eps, y, t)[0] - case.exact_u(x - eps, y, t)[0]) / (2 * eps)
    fd_xy = (case.exact_u(x, y + eps, t)[0] - case.exact_u(x, y - eps, t)[0]) / (2 * eps)
    fd_yx = (case.exact_u(x + eps, y, t)[1] - case.exact_u(x - eps, y, t)[1]) / (2 * eps)
    assert uxx == pytest.approx(fd_xx, abs=1e-8)
    assert uxy == pytest.approx(fd_xy, abs=1e-8)
    assert uyx == pytest.approx(fd_yx, abs=1e-8)
    px, py = case.exact_p_grad(x, y, t)
    fd_px = (case.exact_p(x + eps, y, t) - case.exact_p(x - eps, y, t)) / (2 * eps)
    assert px == pytest.approx(fd_px, abs=1e-8)
    gt = case.dg_dt(x, y, t)
    fd_gt = (np.array(case.g(x, y, t + eps)) - np.array(case.g(x, y, t - eps))) / (2 * eps)
    assert gt[0] == pytest.approx(fd_gt[0], abs=1e-8)
    assert gt[1] == pytest.approx(fd_gt[1], abs=1e-8)


def test_single_vortex_profile_values():
    case = single_vortex_case(20000.0)
    ux, uy = case.u0(0.5, 0.5)
    assert ux == 0.0 and uy == 0.0
    assert vortex_u_theta(0.2) == pytest.approx(0.068, abs=1e-15)
    # outer branch: 1/r decay from the rim value
    assert vortex_u_theta(0.4) == pytest.approx(0.5 * 0.068, rel=1e-12)
    # Cartesian speed at radius r equals the angular profile
    ux, uy = case.u0(0.5 + 0.1, 0.5)
    assert np.hypot(ux, uy) == pytest.approx(vortex_u_theta(0.1), rel=1e-12)
    assert case.nu == pytest.approx(0.068 / 20000.0)


def test_lid_cavity_boundary_data():
    case = lid_cavity_case(10000.0)
    gx, gy = case.g(0.5, 1.0, 2.0)
    assert gx == 1.0 and gy == 0.0
    gx, gy = case.g(0.5, 0.0, 2.0)
    assert gx == 0.0 and gy == 0.0
    for corner in ((0.0, 1.0), (1.0, 1.0)):
        gx, gy = case.g(*corner, 0.0)
        assert gx == 0.0 and gy == 0.0  # non-leaky corners
    ux, uy = case.u0(np.array([0.1, 0.9]), np.array([0.5, 0.5]))
    assert not ux.any() and not uy.any()


def test_invalid_reynolds():
    for builder in (taylor_green_case, single_vortex_case, lid_cavity_case):
        with pytest.raises(ValueError):
            builder(-5.0)


# ---- refinement indicator ---------------------------------------------------------


@pytest.fixture(scope="module")
def space8():
    return build_space(UNIT_SQUARE, (8, 8), 3)


def interp2(space, fn):
    return [interpolate(space, lambda x, y, t, d=d: fn(x, y)[d]) for d in range(2)]


def test_indicator_zero_for_constant_field(space8):
    U = interp2(space8, lambda x, y: (np.full_like(x, 2.0), np.full_like(x, 1.0)))
    assert np.abs(vorticity_indicator(space8, U)).max() < 1e-13


def test_indicator_rigid_rotation(space8):
    U = interp2(space8, lambda x, y: (-y, x))
    eta = vorticity_indicator(space8, U)
    assert np.allclose(eta, 2.0 * space8.h_max, atol=1e-12)
    assert space8.h_max == 1 / 8


def test_indicator_matches_analytic_curl(space8):
    case = taylor_green_case(100.0)
    U = interp2(space8, lambda x, y: case.exact_u(x, y, 0.0))
    eta = vorticity_indicator(space8, U)
    # analytic curl 2 pi cos(pi x) cos(pi y): per-element peak over the same
    # sample points
    xq = space8.quad_coords[:, :, 0]
    yq = space8.quad_coords[:, :, 1]
    curl_q = 2 * np.pi * np.cos(np.pi * xq) * np.cos(np.pi * yq)
    n, h = 8, 1 / 8
    nodes = basis_1d(3).nodes
    e = np.arange(n * n)
    xn = ((e % n)[:, None] + np.tile(nodes, 4)[None, :]) * h  # local nodes row-major, x fastest
    yn = ((e // n)[:, None] + np.repeat(nodes, 4)[None, :]) * h
    curl_n = 2 * np.pi * np.cos(np.pi * xn) * np.cos(np.pi * yn)
    expect = h * np.maximum(
        np.abs(curl_q).max(axis=1), np.abs(curl_n).max(axis=1)
    )
    assert np.abs(eta - expect).max() < 5e-3  # interpolation error only
    # peaks at the corner elements where |cos cos| = 1
    corners = {0, n - 1, (n - 1) * n, n * n - 1}
    top = set(np.argsort(eta)[-4:])
    assert top == corners


# ---- bulk marking -------------------------------------------------------------------


def test_dorfler_spec_examples():
    result = dorfler_mark(np.array([4.0, 3.0, 2.0, 1.0]), 0.6, 0.1)
    assert list(result.refine) == [0, 1]
    assert list(result.coarsen) == [3]


def test_dorfler_uniform_half():
    for n in (4, 5, 8):
        res = dorfler_mark(np.ones(n), 0.5, 0.2)
        assert len(res.refine) == -(-n // 2)  # half, rounded up


def test_dorfler_all_zero():
    res = dorfler_mark(np.zeros(6), 0.4, 0.3)
    assert len(res.refine) == 0 and len(res.coarsen) == 0


def test_dorfler_rejects_bad_input():
    with pytest.raises(ValueError):
        dorfler_mark(np.ones(3), 1.5, 0.1)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([1.0, -0.5]), 0.5, 0.1)


def test_dorfler_deterministic_ties():
    res1 = dorfler_mark(np.array([1.0, 1.0, 1.0, 1.0]), 0.5, 0.5)
    res2 = dorfler_mark(np.array([1.0, 1.0, 1.0, 1.0]), 0.5, 0.5)
    assert np.array_equal(res1.refine, res2.refine)
    assert np.array_equal(res1.coarsen, res2.coarsen)
    assert not set(res1.refine) & set(res1.coarsen)


@given(
    n=st.integers(1, 12),
    theta_r=st.floats(0.05, 0.95),
    theta_c=st.floats(0.05, 0.95),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_dorfler_greedy_matches_exhaustive_oracle(n, theta_r, theta_c, seed):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, 1.0, n)
    if eta.sum() == 0:
        return
    res = dorfler_mark(eta, theta_r, theta_c)
    total = eta.sum()
    # refine: feasible and of minimal cardinality
    assert eta[res.refine].sum() >= theta_r * total - 1e-12
    m = len(res.refine)
    if m > 1:
        for combo in itertools.combinations(range(n), m - 1):
            assert sum(eta[list(combo)]) < theta_r * total - 1e-12
    # coarsen: subset of the complement, feasible, maximal cardinality
    assert not set(res.refine) & set(res.coarsen)
    assert eta[res.coarsen].sum() <= theta_c * total + 1e-12
    rest = sorted(set(range(n)) - set(res.refine))
    k = len(res.coarsen)
    if k < len(rest):
        for combo in itertools.combinations(rest, k + 1):
            assert sum(eta[list(combo)]) > theta_c * total + 1e-12


# ---- convergence harness --------------------------------------------------------------


def test_convergence_table_rates():
    table = ConvergenceTable()
    table.add_row(0.125, {"u_L2": 8e-6})
    table.add_row(0.0625, {"u_L2": 5e-7})
    assert table.rates("u_L2")[0] == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        table.add_row(0.04, {"u_L2": 1e-8})  # not an exact halving


def test_rates_invariant_under_scaling():
    t1 = ConvergenceTable()
    t2 = ConvergenceTable()
    for h, e in ((0.25, 3e-4), (0.125, 2e-5)):
        t1.add_row(h, {"u_L2": e})
        t2.add_row(h, {"u_L2": 7.3 * e})
    assert t1.rates("u_L2")[0] == pytest.approx(t2.rates("u_L2")[0], rel=1e-13)


def test_zero_case_run_is_flat():
    case = lid_cavity_case(100.0)
    z2 = lambda x, y, t: (np.zeros_like(x), np.zeros_like(x))
    from gepup.operators import CaseDefinition

    rest = CaseDefinition(name="rest", nu=0.01, g=z2, u0=lambda x, y: z2(x, y, 0))
    res = run_simulation(rest, 2, 2, StepperConfig(tableau="ark4", dt_max=0.25), t0=0.0, t_end=1.0)
    assert res.steps == 4
    for w in res.state.W:
        assert np.abs(w).max() < 1e-12
    assert all(m["div_l2"] < 1e-12 for m in res.monitors)
    assert all(m["kinetic_energy"] < 1e-24 for m in res.monitors)


def test_blow_up_error_names_step_phase_time_and_solve():
    # a forcing that turns NaN at t = 1 makes the first pressure solve past
    # that time fail mid-run; the failing solve must say where it was
    def f(x, y, t):
        value = np.nan if t > 1.0 else 0.0
        return np.full_like(x, value), np.full_like(x, value)

    case = dataclasses.replace(lid_cavity_case(1000.0), f=f)
    with np.errstate(all="ignore"), pytest.raises(SolverError) as info:
        run_simulation(case, 2, 4, StepperConfig(), t_end=3.0)
    err = info.value
    assert err.step >= 1 and err.phase.startswith("stage ") and 0.0 < err.t < 3.0
    assert str(err).startswith(f"step {err.step}, {err.phase}, t = {err.t:.9g}: ")
    assert " solve: backward error " in str(err)
    assert err.reason.split(" solve:")[0] in ("momentum", "poisson_phi", "poisson_q", "mass")


def test_collapsed_courant_step_raises_at_step_one():
    # a projected initial field of speed ~1e12 (the vortex peaks near 0.056)
    # gives a Courant step that would need ~5e12 steps to reach t_end; the
    # run must stop before stepping
    base = single_vortex_case(100.0)
    case = dataclasses.replace(base, u0=lambda x, y: tuple(2e13 * c for c in base.u0(x, y)))
    stepped = []
    with pytest.raises(SolverError) as info:
        run_simulation(case, 1, 2, StepperConfig(), t_end=1.0, on_step=lambda step, *_: stepped.append(step))
    err = info.value
    assert stepped == [0]
    assert err.step == 1 and err.t == 0.0
    assert "Courant step dt = " in str(err)


def test_courant_step_is_recomputed_every_step():
    config = StepperConfig(tableau="ark4")
    expected = []

    def on_step(step, state, ops):
        expected.append(courant_dt(ops.space, state.U, config.courant, dt_max=config.dt_max))

    res = run_simulation(taylor_green_case(100.0), 2, 3, config, t_end=0.2, on_step=on_step)
    dts = [m["dt"] for m in res.monitors[1:]]
    assert res.steps >= 3
    assert dts[:-1] == expected[: res.steps - 1]
    assert dts[-1] <= expected[res.steps - 1]


def test_zero_step_path_gives_projection_error_and_k_plus_1_rates():
    case = taylor_green_case(100.0)
    table = run_convergence(case, 2, StepperConfig(tableau="ark4"), [2, 3, 4], t0=0.0, t_end=0.0)
    rates = table.rates("u_L2")
    assert all(r > 2.7 for r in rates), rates  # k + 1 = 3 expected


def test_simulation_and_convergence_zero_step_agree():
    case = taylor_green_case(100.0)
    res = run_simulation(case, 2, 3, StepperConfig(tableau="ark4"), t0=0.0, t_end=0.0)
    table = run_convergence(case, 2, StepperConfig(tableau="ark4"), [2, 3], t0=0.0, t_end=0.0)
    assert res.steps == 0
    assert res.errors["u_L2"] == pytest.approx(table.errors[1]["u_L2"], rel=1e-12)


@pytest.mark.parametrize("build", [single_vortex_case, lid_cavity_case])
def test_convergence_rejects_a_case_without_exact_solution_before_any_level(build, monkeypatch):
    import gepup.bench

    def no_run(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(gepup.bench, "run_simulation", no_run)
    case = build(100.0)
    with pytest.raises(ValueError, match=f"case '{case.name}' has no exact solution"):
        run_convergence(case, 2, StepperConfig(), [2, 3], t_end=0.01)


def test_final_step_lands_exactly_on_t_end():
    case = taylor_green_case(100.0)
    res = run_simulation(
        case, 2, 2, StepperConfig(tableau="ark4", courant=0.8), t0=0.0, t_end=0.1
    )
    assert res.state.t == 0.1
    assert res.monitors[-1]["t"] == pytest.approx(0.1, abs=1e-13)
    # the clipped final step is smaller than the regular one
    assert res.monitors[-1]["dt"] <= res.monitors[1]["dt"] + 1e-15


def test_repeated_runs_are_bit_identical():
    # a second run in the same process builds its own axes and reproduces
    # the first exactly: no state is kept between simulations
    case = taylor_green_case(100.0)

    def run():
        return run_simulation(case, 3, 4, StepperConfig(), t_end=0.05)

    first, second = run(), run()
    assert second.ops.space.axes[0] is not first.ops.space.axes[0]
    assert first.steps > 1
    for name in ("U", "W"):
        for a, b in zip(getattr(second.state, name), getattr(first.state, name)):
            assert np.array_equal(a, b)
    assert np.array_equal(second.state.Q, first.state.Q)
    assert np.array_equal(second.state.Phi, first.state.Phi)
    assert second.monitors == first.monitors
