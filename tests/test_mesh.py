"""The grid: a RectDomain cut into equal cells, held by the two axes of the space.

``run_simulation`` turns a refinement level into base_cells * 2**level cells
per axis; ``build_space`` takes the cell counts directly.
"""

import numpy as np
import pytest

from gepup import UNIT_SQUARE, RectDomain, build_space, taylor_green_case
from gepup.bench import run_simulation
from gepup.fem import Axis
from gepup.imex import StepperConfig


def test_power_of_two_refinement():
    space = build_space(UNIT_SQUARE, (8, 8), 1)
    ax, ay = space.axes
    assert (ax.n_cells, ay.n_cells) == (8, 8)
    assert len(space.element_dofs) == 64
    assert ax.h == pytest.approx(1 / 8) and ay.h == pytest.approx(1 / 8)


def test_level_zero_single_element():
    space = build_space(UNIT_SQUARE, (1, 1), 1)
    assert len(space.element_dofs) == 1
    assert space.n_dofs == 4  # the four corners


def test_level_six_matches_finest_benchmark_mesh():
    space = build_space(UNIT_SQUARE, (64, 64), 1)
    ax, _ = space.axes
    assert ax.n_cells == 64
    assert ax.h == pytest.approx(1 / 64)
    assert space.h_max == pytest.approx(1 / 64)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_space(UNIT_SQUARE, (0, 1), 1)
    with pytest.raises(ValueError):
        build_space(UNIT_SQUARE, (1, -2), 1)
    with pytest.raises(ValueError):
        Axis(0, 1.0, 1, 0.0)
    case, config = taylor_green_case(100.0), StepperConfig()
    with pytest.raises(ValueError):
        run_simulation(case, 2, 1, config, t_end=0.0, base_cells=(0, 1))
    with pytest.raises(ValueError):
        run_simulation(case, 2, -1, config, t_end=0.0, base_cells=(4, 4))  # 4 * 2**-1 cells: only the level check stops it
    with pytest.raises(ValueError):
        RectDomain((0, 0), (0.0, 1.0))


def test_hierarchy_counts():
    # the refinement levels of one base grid, as run_simulation builds them
    case, config = taylor_green_case(100.0), StepperConfig()
    for level, cells in enumerate([(2, 1), (4, 2), (8, 4)]):
        space = run_simulation(case, 2, level, config, t_end=0.0, base_cells=(2, 1)).ops.space
        assert tuple(axis.n_cells for axis in space.axes) == cells
        assert len(space.element_dofs) == cells[0] * cells[1]
        assert space.h_max == pytest.approx(1.0 / 2**level)  # hy, the wider cell side


def test_hierarchy_nesting_by_index_arithmetic():
    # coarse cell i of each axis is the union of fine cells 2i and 2i + 1:
    # every other fine cell edge (the Q1 nodes) is a coarse cell edge
    dom = RectDomain((0.25, -1.0), (2.0, 3.0))
    spaces = [build_space(dom, (2 * 2**l, 2**l), 1) for l in range(4)]
    for coarse, fine in zip(spaces, spaces[1:]):
        for ca, fa in zip(coarse.axes, fine.axes):
            assert fa.n_cells == 2 * ca.n_cells
            assert np.abs(fa.nodes[::2] - ca.nodes).max() <= 1e-15 * max(abs(ca.ends[0]), abs(ca.ends[1]))


def test_element_areas_sum_to_domain_area():
    dom = RectDomain((0.25, -1.0), (2.0, 3.0))
    space = build_space(dom, (12, 8), 2)
    areas = np.full(len(space.element_dofs), space.wdet.sum())
    assert areas.sum() == pytest.approx(6.0, rel=1e-14)


def test_build_is_deterministic():
    a = build_space(UNIT_SQUARE, (8, 12), 2)
    b = build_space(UNIT_SQUARE, (8, 12), 2)
    for name in ("element_dofs", "wdet", "quad_dx", "boundary_dofs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    for axis_a, axis_b in zip((*a.quad_axes, *a.node_axes), (*b.quad_axes, *b.node_axes)):
        assert np.array_equal(axis_a, axis_b)
