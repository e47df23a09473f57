import numpy as np
import pytest

from gepup import (
    UNIT_SQUARE,
    RectDomain,
    build_mesh,
)


def test_power_of_two_refinement():
    m = build_mesh(UNIT_SQUARE, (1, 1), 3)
    assert (m.nx, m.ny) == (8, 8)
    assert m.n_elements == 64
    assert m.hx == pytest.approx(1 / 8) and m.hy == pytest.approx(1 / 8)


def test_level_zero_single_element():
    m = build_mesh(UNIT_SQUARE, (1, 1), 0)
    assert m.n_elements == 1
    assert m.n_vertices == 4


def test_level_six_matches_finest_benchmark_mesh():
    m = build_mesh(UNIT_SQUARE, (1, 1), 6)
    assert m.nx == 64
    assert m.hx == pytest.approx(1 / 64)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_mesh(UNIT_SQUARE, (0, 1), 1)
    with pytest.raises(ValueError):
        build_mesh(UNIT_SQUARE, (1, -2), 1)
    with pytest.raises(ValueError):
        build_mesh(UNIT_SQUARE, (1, 1), -1)
    with pytest.raises(ValueError):
        RectDomain((0, 0), (0.0, 1.0))


def test_hierarchy_counts():
    # the refinement levels of one base grid
    assert [build_mesh(UNIT_SQUARE, (1, 1), l).n_elements for l in range(3)] == [1, 4, 16]
    fine = build_mesh(UNIT_SQUARE, (1, 1), 6)
    assert fine.hx == pytest.approx(1 / 64)
    assert fine.level == 6


def test_hierarchy_nesting_by_index_arithmetic():
    levels = [build_mesh(UNIT_SQUARE, (2, 1), l) for l in range(4)]
    for coarse, fine in zip(levels, levels[1:]):
        # coarse element (i, j) covers fine elements (2i + a, 2j + b)
        for e in range(coarse.n_elements):
            j, i = divmod(e, coarse.nx)
            children = [
                (2 * j + b) * fine.nx + (2 * i + a) for b in range(2) for a in range(2)
            ]
            ox, oy = coarse.element_origin(e)
            for child in children:
                cx, cy = fine.element_origin(child)
                assert ox - 1e-15 <= cx < ox + coarse.hx
                assert oy - 1e-15 <= cy < oy + coarse.hy


def test_element_areas_sum_to_domain_area():
    dom = RectDomain((0.25, -1.0), (2.0, 3.0))
    m = build_mesh(dom, (3, 2), 2)
    assert m.n_elements * m.hx * m.hy == pytest.approx(6.0, rel=1e-14)


def test_build_is_deterministic():
    a = build_mesh(UNIT_SQUARE, (2, 3), 2)
    b = build_mesh(UNIT_SQUARE, (2, 3), 2)
    assert a == b
    assert np.array_equal(a.vertex_coords(), b.vertex_coords())
    assert np.array_equal(a.element_vertices(), b.element_vertices())
