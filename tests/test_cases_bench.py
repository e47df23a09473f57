import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gepup import (
    UNIT_SQUARE,
    SolverError,
    build_space,
    dorfler_mark,
    error_norms,
    lid_cavity_case,
    single_vortex_case,
    taylor_green_case,
    vorticity_indicator,
)
from gepup import fem
from gepup.bench import ConvergenceTable, run_convergence, run_simulation, solution_errors
from gepup.fem import basis_1d
from gepup.imex import StepperConfig, courant_dt
from gepup.operators import GepupOperators
from fem_oracle import (
    divergence_l2,
    interpolate,
    kinetic_energy,
    quad_coords,
    sampled_speed_sq,
    support_points,
    values_at_quad,
    vortex_u_theta,
)


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
    x, y = quad_coords(space)
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


@pytest.mark.parametrize(
    "dropped", [("exact_u_grads",), ("exact_p", "exact_p_grad"), ("exact_u", "exact_p", "exact_u_grads")]
)
def test_case_rejects_a_partial_exact_solution(dropped):
    # a partial set would fail only in solution_errors, after the whole run
    with pytest.raises(ValueError, match=f"partial exact solution lacks {', '.join(dropped)}$"):
        dataclasses.replace(taylor_green_case(100.0), **dict.fromkeys(dropped))


@pytest.mark.parametrize("nu", [np.nan, np.inf, -1e-3])
def test_case_rejects_a_viscosity_that_is_not_finite_and_nonnegative(nu):
    with pytest.raises(ValueError, match="viscosity must be nonnegative and finite"):
        dataclasses.replace(lid_cavity_case(100.0), nu=nu)


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
    xq, yq = quad_coords(space8)
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


def wall_speed_sq(ops, case, t):
    # the largest |g|^2 at the boundary support points, from the flat point list
    x, y = support_points(ops.space)[ops.space.boundary_dofs].T
    gx, gy = (np.broadcast_to(g, x.shape) for g in case.g(x, y, t))
    return float(np.max(gx**2 + gy**2))


def test_courant_step_is_recomputed_every_step():
    # from the larger of the sampled speed and the wall speed at the step's
    # start: the lid from rest steps at its wall speed until the flow outruns it
    config = StepperConfig(tableau="ark4")
    for case, t_end in ((taylor_green_case(100.0), 0.2), (lid_cavity_case(1000.0), 0.3)):
        expected = []

        def on_step(step, state, ops):
            speed_sq = max(sampled_speed_sq(ops.space, state.U), wall_speed_sq(ops, case, state.t))
            expected.append(courant_dt(ops.space, speed_sq, config.courant, dt_max=config.dt_max))

        res = run_simulation(case, 2, 3, config, t_end=t_end, on_step=on_step)
        dts = [m["dt"] for m in res.monitors[1:]]
        assert res.steps >= 3
        assert dts[:-1] == expected[: res.steps - 1]
        assert dts[-1] <= expected[res.steps - 1]


def test_monitor_rows_carry_the_step_courant_number():
    # dt k |u|max / h_max from the speed that set dt: the configured number on
    # every step but the last, which is shortened to land on t_end
    config = StepperConfig()
    res = run_simulation(taylor_green_case(100.0), 2, 3, config, t_end=0.2)
    courant = [m["courant"] for m in res.monitors]
    assert res.steps >= 3
    assert courant[0] == 0.0
    assert courant[1:-1] == pytest.approx([config.courant] * (res.steps - 1), rel=1e-14, abs=0.0)
    assert courant[-1] <= config.courant


def test_the_lid_from_rest_takes_its_first_step_at_the_wall_speed():
    # the cavity starts at rest, so only the lid's unit speed bounds the first
    # step: 0.8 h / k, not dt_max = 1.0.  At Q2 L3 that step reaches t = 0.05,
    # where div_l2 was 0.745 with the same step imposed through dt_max (ROADMAP
    # item 25); the bound of 1.0 was fixed before this test first ran.  A unit
    # first step ended with div_l2 = 17.0 at Q2 L4
    config = StepperConfig()
    res = run_simulation(lid_cavity_case(1000.0), 2, 3, config, t_end=0.1)
    h, k = 1.0 / 8, 2
    assert res.monitors[0]["kinetic_energy"] == 0.0
    assert res.monitors[1]["dt"] == config.courant * h / k
    assert res.monitors[1]["div_l2"] <= 1.0


@pytest.mark.parametrize(
    "case, t_end", [(taylor_green_case(100.0), 0.3), (single_vortex_case(100.0), 2.5)], ids=["taylor-green", "vortex"]
)
def test_monitors_equal_the_full_grid_formulas_bit_for_bit(case, t_end):
    # every state's div_l2 and speed_sq come from the quadrature pass of its
    # pressure load; they must equal the oracle's divergence_l2 of W and the max
    # of |u|^2 over fresh values_at_quad samples and the nodes exactly, and so must the
    # monitor rows and the Courant steps built from them and the wall speed
    config = StepperConfig(tableau="ark4")
    seen = []

    def on_step(step, state, ops):
        assert state.div_l2 == divergence_l2(ops.space, state.W)
        assert state.speed_sq == sampled_speed_sq(ops.space, state.U)
        speed_sq = max(sampled_speed_sq(ops.space, state.U), wall_speed_sq(ops, case, state.t))
        seen.append((divergence_l2(ops.space, state.W), courant_dt(ops.space, speed_sq, config.courant, config.dt_max)))

    res = run_simulation(case, 3, 2, config, t_end=t_end, on_step=on_step)
    assert res.steps >= 2
    assert [m["div_l2"] for m in res.monitors] == [div for div, _ in seen]
    assert [m["dt"] for m in res.monitors[1:-1]] == [dt for _, dt in seen[:-2]]


@pytest.mark.parametrize(
    "case, t_end", [(taylor_green_case(100.0), 0.3), (single_vortex_case(100.0), 2.5)], ids=["taylor-green", "vortex"]
)
def test_monitors_match_the_full_grid_formulas_across_blocks(case, t_end, monkeypatch):
    # the 16 elements in blocks of 5, 5, 5 and 1: the largest sampled speed
    # is still exact, and the sums of div_l2 and of the kinetic energy agree
    # with the full-grid formulas to rounding
    monkeypatch.setattr(fem, "BLOCK_ELEMENTS", 5)
    rel = 1e-13

    def on_step(step, state, ops):
        assert state.speed_sq == sampled_speed_sq(ops.space, state.U)
        assert abs(state.div_l2 - divergence_l2(ops.space, state.W)) <= rel * state.div_l2
        energy = kinetic_energy(ops, state.W)
        assert abs(state.kinetic_energy - energy) <= rel * energy

    res = run_simulation(case, 3, 2, StepperConfig(tableau="ark4"), t_end=t_end, on_step=on_step)
    assert res.steps >= 2
    assert res.monitors[-1]["kinetic_energy"] == res.state.kinetic_energy


def test_a_forced_run_samples_f_once_per_band_on_the_quadrature_axes(monkeypatch):
    # every quadrature pass calls f once per band of element rows, with the
    # quadrature x axis and the band's rows of the y axis, in order; a zero
    # forcing returned as scalars leaves the run bit-identical to the unforced one
    monkeypatch.setattr(fem, "BLOCK_ELEMENTS", 5)
    case = taylor_green_case(100.0)
    calls = []

    def f(x, y, t):
        calls.append((x, y))
        return 0.0, 0.0

    config = StepperConfig()
    forced = run_simulation(dataclasses.replace(case, f=f), 2, 2, config, t_end=0.05)
    space = forced.ops.space
    (quad_x, quad_y), n_bands = space.quad_axes, len(space.element_bands())
    assert forced.steps >= 1 and n_bands == 4
    assert len(calls) > 0 and len(calls) % n_bands == 0
    assert all(np.array_equal(x, quad_x) for x, _ in calls)
    for start in range(0, len(calls), n_bands):
        assert np.array_equal(np.concatenate([y for _, y in calls[start : start + n_bands]]), quad_y)
    unforced = run_simulation(case, 2, 2, config, t_end=0.05)
    assert forced.monitors == unforced.monitors
    for a, b in zip(forced.state.U + [forced.state.Q], unforced.state.U + [unforced.state.Q]):
        assert np.array_equal(a, b)


def test_zero_step_path_gives_projection_error_and_k_plus_1_rates():
    case = taylor_green_case(100.0)
    table = run_convergence(case, 2, StepperConfig(tableau="ark4"), [2, 3, 4], t0=0.0, t_end=0.0, base_cells=(1, 1))
    rates = table.rates("u_L2")
    assert all(r > 2.7 for r in rates), rates  # k + 1 = 3 expected


def test_simulation_and_convergence_zero_step_agree():
    case = taylor_green_case(100.0)
    res = run_simulation(case, 2, 3, StepperConfig(tableau="ark4"), t0=0.0, t_end=0.0)
    table = run_convergence(case, 2, StepperConfig(tableau="ark4"), [2, 3], t0=0.0, t_end=0.0, base_cells=(1, 1))
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
        run_convergence(case, 2, StepperConfig(), [2, 3], t0=0.0, t_end=0.01, base_cells=(1, 1))


@pytest.mark.parametrize("levels", [[2], [2, 4], [2, 2], [3, 2], [-1, 0]])
def test_convergence_rejects_levels_that_are_not_consecutive_before_any_level(levels, monkeypatch):
    import gepup.bench

    def no_run(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(gepup.bench, "run_simulation", no_run)
    with pytest.raises(ValueError, match="two or more consecutive ascending levels"):
        run_convergence(taylor_green_case(100.0), 2, StepperConfig(), levels, t0=0.0, t_end=0.01, base_cells=(1, 1))


@pytest.mark.parametrize("t0, t_end", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0)])
def test_run_rejects_non_finite_times_before_any_setup(t0, t_end, monkeypatch):
    import gepup.bench

    def no_setup(*args, **kwargs):
        raise AssertionError("setup ran")

    monkeypatch.setattr(gepup.bench, "check_boundary_compatibility", no_setup)
    monkeypatch.setattr(gepup.bench, "GepupOperators", no_setup)
    with pytest.raises(ValueError, match="t0 and t_end must be finite"):
        run_simulation(lid_cavity_case(1000.0), 2, 2, StepperConfig(), t0=t0, t_end=t_end)


def test_run_rejects_an_unknown_tableau_before_any_setup(monkeypatch):
    import gepup.bench

    def no_setup(*args, **kwargs):
        raise AssertionError("setup ran")

    monkeypatch.setattr(gepup.bench, "check_boundary_compatibility", no_setup)
    monkeypatch.setattr(gepup.bench, "GepupOperators", no_setup)
    with pytest.raises(ValueError, match="unknown tableau 'rk99'"):
        run_simulation(taylor_green_case(100.0), 3, 6, StepperConfig(tableau="rk99"), t_end=0.01)


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


@pytest.mark.parametrize("base_cells", [(1, 1), (1, 2), (2, 1)])
def test_solution_errors_on_one_cell_axes(base_cells):
    # with one cell in x the axis samples reorder to element order without a
    # copy; the errors must still come out, equal to the L2 norms of the exact
    # solution sampled at the quadrature points themselves
    case = taylor_green_case(100.0)
    res = run_simulation(case, 2, 0, StepperConfig(), t_end=0.0, base_cells=base_cells)
    space, state = res.ops.space, res.state
    x, y = quad_coords(space)

    def l2(diff):
        return float(np.sqrt(np.sum(diff * diff @ space.wdet)))

    p = case.exact_p(x, y, 0.0)
    p -= float(np.sum(p @ space.wdet)) / float(np.sum(np.ones_like(p) @ space.wdet))
    u_sq = sum(l2(values_at_quad(space, u) - e) ** 2 for u, e in zip(state.U, case.exact_u(x, y, 0.0)))
    assert res.errors["q_L2"] == pytest.approx(l2(values_at_quad(space, state.Q) - p), rel=1e-13)
    assert res.errors["u_L2"] == pytest.approx(np.sqrt(u_sq), rel=1e-13)


def test_solution_errors_sample_the_exact_pressure_once_per_point_set(monkeypatch):
    # the exact pressure is called on each band's rows of the quadrature grid
    # for the gauge mean, on each band's rows again for the error norms, and
    # once at the nodes; the errors are those of the shifted exact pressure
    # sampled anew.  In bands of 5 elements no call sees the whole grid
    case = taylor_green_case(100.0)
    res = run_simulation(case, 2, 2, StepperConfig(), t_end=0.05)
    space = res.ops.space

    def counted_errors():
        calls = []

        def exact_p(x, y, t):
            calls.append((x.shape, y.shape))
            return case.exact_p(x, y, t)

        return calls, solution_errors(res.ops, res.state, dataclasses.replace(case, exact_p=exact_p))

    def expected_calls():
        band_shapes = [(space.quad_axes[0].shape, space.quad_axes[1][rows].shape) for _, rows in space.element_bands()]
        return 2 * band_shapes + [(space.node_axes[0].shape, space.node_axes[1].shape)]

    calls, errors = counted_errors()
    assert calls == expected_calls()
    x, y = quad_coords(space)
    pmean = float(np.sum(case.exact_p(x, y, res.state.t) @ space.wdet)) / float(np.sum(np.ones_like(x) @ space.wdet))
    q_norms = error_norms(
        space, res.state.Q, lambda xx, yy, tt: case.exact_p(xx, yy, tt) - pmean, res.state.t, case.exact_p_grad
    )
    assert errors == res.errors
    assert [errors[f"q_{key}"] for key in ("L2", "H1", "Linf")] == [q_norms[key] for key in ("L2", "H1", "Linf")]
    monkeypatch.setattr(fem, "BLOCK_ELEMENTS", 5)
    calls, _ = counted_errors()
    assert len(space.element_bands()) > 1
    assert calls == expected_calls()
    assert (space.quad_axes[0].shape, space.quad_axes[1].shape) not in calls


def test_solution_errors_report_the_error_norms_own_seminorm():
    # the seminorm is error_norms' own sum of gradient terms, not
    # sqrt(H1^2 - L2^2), which cancels once the L2 part dominates
    case = taylor_green_case(100.0)
    ops = GepupOperators(UNIT_SQUARE, (8, 8), 3)
    state = ops.initial_state(case, 0.0)
    errors = solution_errors(ops, state, case)
    u_norms = error_norms(ops.space, state.U, case.exact_u, 0.0, case.exact_u_grads)
    assert [errors[f"u_{key}"] for key in ("L2", "H1semi", "H1")] == [u_norms[key] for key in ("L2", "H1semi", "H1")]


BAND_GRIDS = [((1, 1), 2), ((3, 2), 2), ((1, 8), 0)]  # (base_cells, level): square, non-square, one cell wide
BAND_IDS = ["square", "base-3x2", "one-cell-wide"]


@pytest.mark.parametrize("base_cells, level", BAND_GRIDS, ids=BAND_IDS)
def test_error_callbacks_see_each_quadrature_row_once(base_cells, level, monkeypatch):
    # in bands of 5 or fewer elements (whole element rows, at least one), the
    # exact velocity, its gradients and the pressure gradient are each called
    # on every row of the quadrature grid exactly once, in order, and the
    # velocity once more at the nodes; the pressure is called on every row
    # twice, in order, for its gauge mean and for its norms, and once at the nodes
    case = taylor_green_case(100.0)
    res = run_simulation(case, 3, level, StepperConfig(), t_end=0.02, base_cells=base_cells)
    monkeypatch.setattr(fem, "BLOCK_ELEMENTS", 5)
    space = res.ops.space
    assert len(space.element_bands()) > 1
    calls = {name: [] for name in ("exact_u", "exact_u_grads", "exact_p", "exact_p_grad")}

    def counted(name):
        fn = getattr(case, name)
        return lambda x, y, t: calls[name].append((x.shape, y)) or fn(x, y, t)

    solution_errors(res.ops, res.state, dataclasses.replace(case, **{name: counted(name) for name in calls}))
    (quad_x, quad_y), (node_x, node_y) = space.quad_axes, space.node_axes
    for name in ("exact_u", "exact_u_grads", "exact_p_grad"):
        quad_rows = [y for shape, y in calls[name] if shape == quad_x.shape]
        assert len(quad_rows) == len(space.element_bands()), name
        assert np.array_equal(np.concatenate(quad_rows), quad_y), name
    assert [shape for shape, _ in calls["exact_u"]].count(node_x.shape) == 1
    assert len(calls["exact_u_grads"]) == len(calls["exact_p_grad"]) == len(space.element_bands())
    *p_quad, (p_node_x, p_node_y) = calls["exact_p"]
    assert len(p_quad) == 2 * len(space.element_bands())
    assert all(shape == quad_x.shape for shape, _ in p_quad)
    assert np.array_equal(np.concatenate([y for _, y in p_quad]), np.concatenate([quad_y, quad_y]))
    assert (p_node_x, p_node_y.shape) == (node_x.shape, node_y.shape)


@pytest.mark.parametrize("base_cells, level", BAND_GRIDS, ids=BAND_IDS)
def test_banded_error_norms_match_one_band(base_cells, level, monkeypatch):
    # bands change only the order in which the sums add up; bound fixed in advance
    rel = 1e-13
    case = taylor_green_case(100.0)
    res = run_simulation(case, 3, level, StepperConfig(), t_end=0.02, base_cells=base_cells)
    n_el = len(res.ops.space.element_dofs)
    errors = {}
    for block in (5, n_el):
        monkeypatch.setattr(fem, "BLOCK_ELEMENTS", block)
        errors[block] = solution_errors(res.ops, res.state, case)
    assert len(res.ops.space.element_bands()) == 1
    for key, value in errors[n_el].items():
        assert abs(errors[5][key] - value) <= rel * value, key
    assert errors[n_el] == res.errors


def test_solution_errors_hold_one_band_of_samples(monkeypatch):
    # at Q3 L6 no sample of the whole quadrature grid is held: the exact
    # pressure's gauge mean is summed band by band too, and a band's samples
    # are freed before the nodes are sampled, so the two phases of the error
    # norms never overlap.  The velocity's nodal phase holds five nodal arrays
    # (the exact velocity's two components as the callback returns them, the
    # running sum of squared errors, a component's error and its square); a
    # band holds at most 12 sample arrays (the exact velocity and its four
    # derivatives in element order, a component's squared error and their
    # running sum, its two gradient errors, one product and the next
    # component's error beside the last one's) and two gathered coefficient
    # arrays.  The larger phase sets the bound, with 16 KiB
    # for the Python objects beside the arrays.  Measured: 99% of the bound,
    # the nodal phase setting the peak; sampled as one band, 6.4 times it
    ops = GepupOperators(UNIT_SQUARE, (64, 64), 3)
    case = taylor_green_case(100.0)
    state = ops.initial_state(case, 0.0)
    space = ops.space
    n_el, n_local = space.element_dofs.shape
    n_quad = len(space.wdet)
    band = space.element_bands()[0][0]
    band_el = band.stop - band.start
    bound = 8 * max(5 * space.n_dofs, 12 * band_el * n_quad + 2 * band_el * n_local) + 16 * 1024
    peaks = []
    for block in (fem.BLOCK_ELEMENTS, n_el):
        monkeypatch.setattr(fem, "BLOCK_ELEMENTS", block)
        tracemalloc.start()
        try:
            solution_errors(ops, state, case)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= bound < peaks[1], (peaks, bound)
