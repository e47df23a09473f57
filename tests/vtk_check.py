"""Minimal legacy binary VTK reader used to validate writer output structurally,
and a per-value reference writer to compare the package's writer against."""

import struct
from pathlib import Path

import numpy as np

def read_legacy_vtk(path):
    data = Path(path).read_bytes()
    pos = 0

    def line():
        nonlocal pos
        end = data.find(b"\n", pos)
        assert end >= 0, f"unterminated line at byte {pos}"
        text = data[pos:end].decode()
        pos = end + 1
        return text

    def block(count, dtype):
        nonlocal pos
        size = count * np.dtype(dtype).itemsize
        assert pos + size + 1 <= len(data), f"truncated block at byte {pos}"
        values = np.frombuffer(data, dtype, count, pos).astype(np.dtype(dtype).newbyteorder("="))
        assert data[pos + size : pos + size + 1] == b"\n", "block not followed by a newline"
        pos += size + 1
        return values

    assert line().startswith("# vtk DataFile Version"), "missing VTK header"
    title = line()
    assert line() == "BINARY"
    assert line() == "DATASET UNSTRUCTURED_GRID"
    toks = line().split()
    assert toks[0] == "POINTS" and toks[2:] == ["double"]
    n_points = int(toks[1])
    points = block(3 * n_points, ">f8").reshape(n_points, 3)
    toks = line().split()
    assert toks[0] == "CELLS" and len(toks) == 3
    n_cells, total = int(toks[1]), int(toks[2])
    assert total == 5 * n_cells, "quad rows have 5 values"
    rows = block(total, ">i4").reshape(n_cells, 5)
    assert np.all(rows[:, 0] == 4)
    cells = rows[:, 1:]
    assert np.all((0 <= cells) & (cells < n_points))
    toks = line().split()
    assert toks == ["CELL_TYPES", str(n_cells)]
    cell_types = block(n_cells, ">i4")
    point_data = {}
    if pos < len(data):
        toks = line().split()
        assert toks == ["POINT_DATA", str(n_points)]
    while pos < len(data):
        toks = line().split()
        if toks[:1] == ["VECTORS"]:
            assert toks[2:] == ["double"]
            point_data[toks[1]] = block(3 * n_points, ">f8").reshape(n_points, 3)
        elif toks[:1] == ["SCALARS"]:
            assert toks[2:] == ["double"]
            assert line() == "LOOKUP_TABLE default"
            point_data[toks[1]] = block(n_points, ">f8")
        else:
            raise AssertionError(f"unexpected VTK line: {' '.join(toks)!r}")
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


def write_vtk_per_value(space, path, velocity, pressure, title="fields"):
    """Reference VTK writer: the connectivity by nested loops and one
    ``struct.pack`` per value."""
    from gepup.output import nodal_curl_and_div

    pts = space.support_points
    n = space.n_dofs
    cells = _subcell_connectivity_loop(space)
    with open(path, "wb") as f:

        def text(s):
            f.write(s.encode())

        def doubles(values):
            for v in values:
                f.write(struct.pack(">d", v))
            text("\n")

        text("# vtk DataFile Version 2.0\n")
        text(f"{title}\n")
        text("BINARY\n")
        text("DATASET UNSTRUCTURED_GRID\n")
        text(f"POINTS {n} double\n")
        doubles(v for x, y in pts for v in (x, y, 0.0))
        text(f"CELLS {len(cells)} {5 * len(cells)}\n")
        for quad in cells:
            for v in (4, *quad):
                f.write(struct.pack(">i", v))
        text("\n")
        text(f"CELL_TYPES {len(cells)}\n")
        for _ in cells:
            f.write(struct.pack(">i", 9))
        text("\n")

        text(f"POINT_DATA {n}\n")
        text("VECTORS velocity double\n")
        doubles(v for vx, vy in zip(velocity[0], velocity[1]) for v in (vx, vy, 0.0))
        text("SCALARS pressure double\nLOOKUP_TABLE default\n")
        doubles(pressure)
        curl, div = nodal_curl_and_div(space, velocity)
        text("SCALARS vorticity double\nLOOKUP_TABLE default\n")
        doubles(curl)
        text("SCALARS divergence double\nLOOKUP_TABLE default\n")
        doubles(div)
