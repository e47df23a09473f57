"""Minimal legacy-VTK reader used only to validate writer output structurally,
and a per-value reference writer to compare the package's writer against."""

import numpy as np


def read_legacy_vtk(path):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    assert lines[0].startswith("# vtk DataFile Version"), "missing VTK header"
    title = lines[1]
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    i = 4
    assert lines[i].startswith("POINTS ")
    n_points = int(lines[i].split()[1])
    i += 1
    points = np.array([[float(v) for v in lines[i + j].split()] for j in range(n_points)])
    assert points.shape == (n_points, 3)
    i += n_points
    assert lines[i].startswith("CELLS ")
    n_cells, total = int(lines[i].split()[1]), int(lines[i].split()[2])
    i += 1
    cells = []
    for j in range(n_cells):
        toks = [int(v) for v in lines[i + j].split()]
        assert toks[0] == len(toks) - 1
        assert all(0 <= v < n_points for v in toks[1:])
        cells.append(toks[1:])
    assert sum(len(c) + 1 for c in cells) == total
    i += n_cells
    assert lines[i].startswith("CELL_TYPES ")
    assert int(lines[i].split()[1]) == n_cells
    i += 1
    cell_types = [int(lines[i + j]) for j in range(n_cells)]
    i += n_cells
    point_data = {}
    if i < len(lines) and lines[i].startswith("POINT_DATA"):
        assert int(lines[i].split()[1]) == n_points
        i += 1
        while i < len(lines):
            if lines[i].startswith("VECTORS"):
                name = lines[i].split()[1]
                i += 1
                arr = np.array(
                    [[float(v) for v in lines[i + j].split()] for j in range(n_points)]
                )
                point_data[name] = arr
                i += n_points
            elif lines[i].startswith("SCALARS"):
                name = lines[i].split()[1]
                assert lines[i + 1].startswith("LOOKUP_TABLE")
                i += 2
                arr = np.array([float(lines[i + j]) for j in range(n_points)])
                point_data[name] = arr
                i += n_points
            elif not lines[i].strip():
                i += 1
            else:
                raise AssertionError(f"unexpected VTK line: {lines[i]!r}")
    return {
        "title": title,
        "points": points,
        "cells": cells,
        "cell_types": cell_types,
        "point_data": point_data,
    }


def _subcell_connectivity_loop(space):
    k = space.degree
    ax, ay = space.axes
    cells = []
    for j in range(ay.n_cells):
        for i in range(ax.n_cells):
            for b in range(k):
                for a in range(k):
                    gx = k * i + a
                    gy = k * j + b
                    sw = gy * space.ndof_x + gx
                    cells.append((sw, sw + 1, sw + 1 + space.ndof_x, sw + space.ndof_x))
    return np.asarray(cells, dtype=int)


def write_vtk_per_value(space, path, velocity=None, pressure=None, title="fields"):
    """Reference VTK writer: the connectivity by nested loops and one write per value."""
    from gepup.output import nodal_curl_and_div

    pts = space.support_points
    n = space.n_dofs
    cells = _subcell_connectivity_loop(space)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        for x, y in pts:
            f.write(f"{x:.16g} {y:.16g} 0\n")
        f.write(f"CELLS {len(cells)} {5 * len(cells)}\n")
        for quad in cells:
            f.write("4 " + " ".join(str(v) for v in quad) + "\n")
        f.write(f"CELL_TYPES {len(cells)}\n")
        f.write("9\n" * len(cells))

        f.write(f"POINT_DATA {n}\n")
        if velocity is not None:
            f.write("VECTORS velocity double\n")
            for vx, vy in zip(velocity[0], velocity[1]):
                f.write(f"{vx:.16g} {vy:.16g} 0\n")
        if pressure is not None:
            f.write("SCALARS pressure double\nLOOKUP_TABLE default\n")
            for q in pressure:
                f.write(f"{q:.16g}\n")
        if velocity is not None:
            curl, div = nodal_curl_and_div(space, velocity)
            f.write("SCALARS vorticity double\nLOOKUP_TABLE default\n")
            for w in curl:
                f.write(f"{w:.16g}\n")
            f.write("SCALARS divergence double\nLOOKUP_TABLE default\n")
            for d in div:
                f.write(f"{d:.16g}\n")
