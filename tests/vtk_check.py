"""Minimal legacy binary VTK reader of rectilinear-grid frames, used to
validate writer output structurally, and a per-value reference writer to
compare the package's writer against."""

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
    assert line() == "DATASET RECTILINEAR_GRID"
    toks = line().split()
    assert toks[0] == "DIMENSIONS" and len(toks) == 4 and toks[3] == "1", "a planar grid"
    dims = int(toks[1]), int(toks[2]), 1
    coords = []
    for name, count in zip("XYZ", dims):
        assert line().split() == [f"{name}_COORDINATES", str(count), "double"]
        values = block(count, ">f8")
        assert np.all(np.diff(values) > 0), f"{name} coordinates do not strictly increase"
        coords.append(values)
    X, Y = np.meshgrid(coords[0], coords[1], indexing="xy")  # x fastest, the point order
    n_points = X.size
    points = np.column_stack([X.ravel(), Y.ravel(), np.full(n_points, coords[2][0])])
    assert line().split() == ["POINT_DATA", str(n_points)]
    point_data = {}
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
        "coordinates": coords,
        "points": points,
        "n_cells": (dims[0] - 1) * (dims[1] - 1),
        "point_data": point_data,
    }


def write_vtk_per_value(space, path, velocity, pressure, title="fields"):
    """Reference VTK writer: one ``struct.pack`` per value."""
    from gepup.output import nodal_curl_and_div

    ax, ay = space.axes
    n = space.n_dofs
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
        text("DATASET RECTILINEAR_GRID\n")
        text(f"DIMENSIONS {ax.n} {ay.n} 1\n")
        text(f"X_COORDINATES {ax.n} double\n")
        doubles(ax.nodes)
        text(f"Y_COORDINATES {ay.n} double\n")
        doubles(ay.nodes)
        text("Z_COORDINATES 1 double\n")
        doubles([0.0])

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
