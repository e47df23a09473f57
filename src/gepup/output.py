"""Output writers: legacy binary VTK snapshots (big-endian, exact doubles)
and CSV tables (RFC 4180)."""

from __future__ import annotations

import csv

import numpy as np

from .bench import ConvergenceTable
from .fem import FeSpace
from .operators import SOLVE_CLASSES

__all__ = ["write_vtk", "write_convergence_csv", "write_monitor_csv", "nodal_curl_and_div"]


def nodal_curl_and_div(space: FeSpace, velocity) -> tuple[np.ndarray, np.ndarray]:
    """Scalar vorticity and divergence at the support points.

    Gradients are evaluated element-wise at the element nodes and averaged
    over the elements sharing each point (gradients are discontinuous
    across element boundaries).
    """
    ed = space.element_dofs
    ux_loc = velocity[0][ed]
    uy_loc = velocity[1][ed]
    curl = uy_loc @ space.node_dx - ux_loc @ space.node_dy
    div = ux_loc @ space.node_dx + uy_loc @ space.node_dy
    counts = np.bincount(ed.ravel(), minlength=space.n_dofs)
    curl_sum = np.bincount(ed.ravel(), weights=curl.ravel(), minlength=space.n_dofs)
    div_sum = np.bincount(ed.ravel(), weights=div.ravel(), minlength=space.n_dofs)
    return curl_sum / counts, div_sum / counts


def _subcell_connectivity(space: FeSpace) -> np.ndarray:
    """Each element split into degree^2 bilinear sub-quads on the support lattice.

    Rows run over the elements (row-major), then over each element's
    sub-quads (row-major); corners are listed counterclockwise from SW.
    """
    ax, ay = space.axes
    gy = ay.cell_dofs[:, None, :-1, None]
    gx = ax.cell_dofs[None, :, None, :-1]
    sw = (gy * space.ndof_x + gx).ravel()
    return np.column_stack([sw, sw + 1, sw + 1 + space.ndof_x, sw + space.ndof_x])


def _write_block(f, header: str, values, dtype: str):
    """A header line, then ``values`` as raw ``dtype`` values and one newline."""
    f.write(f"{header}\n".encode())
    f.write(np.ascontiguousarray(values, dtype=dtype).tobytes())
    f.write(b"\n")


def write_vtk(space: FeSpace, path, velocity, pressure, title: str = "fields"):
    """Legacy binary VTK unstructured-grid snapshot (big-endian, exact doubles).

    High-order fields are sampled at the Lagrange support points and each
    element is emitted as degree^2 bilinear sub-quads, so any VTK reader can
    display them.  Point data: 3-component velocity (z = 0), pressure,
    scalar vorticity and divergence (the latter two derived from the
    velocity).  Each block is its header line, its values as raw big-endian
    doubles (``>f8``) or 32-bit integers (``>i4``), and one newline, so the
    values read back are the arrays passed in, bit for bit.

    Raises ``ValueError`` before the file is opened when a velocity
    component or the pressure does not hold ``space.n_dofs`` values, or when
    the title is not one line of at most 255 bytes.
    """
    n = space.n_dofs
    for name, values in (("velocity[0]", velocity[0]), ("velocity[1]", velocity[1]), ("pressure", pressure)):
        if np.shape(values) != (n,):
            raise ValueError(f"{name} has shape {np.shape(values)}, expected ({n},)")
    title_line = title.encode()
    if b"\n" in title_line or len(title_line) > 255:
        raise ValueError(f"VTK title must be one line of at most 255 bytes, got {title!r}")
    cells = _subcell_connectivity(space)
    m = len(cells)
    z = np.zeros(n)
    with open(path, "wb") as f:
        f.write(b"# vtk DataFile Version 2.0\n" + title_line + b"\nBINARY\nDATASET UNSTRUCTURED_GRID\n")
        _write_block(f, f"POINTS {n} double", np.column_stack([space.support_points, z]), ">f8")
        _write_block(f, f"CELLS {m} {5 * m}", np.column_stack([np.full(m, 4), cells]), ">i4")
        _write_block(f, f"CELL_TYPES {m}", np.full(m, 9), ">i4")

        f.write(f"POINT_DATA {n}\n".encode())
        _write_block(f, "VECTORS velocity double", np.column_stack([velocity[0], velocity[1], z]), ">f8")
        _write_block(f, "SCALARS pressure double\nLOOKUP_TABLE default", pressure, ">f8")
        for name, values in zip(("vorticity", "divergence"), nodal_curl_and_div(space, velocity)):
            _write_block(f, f"SCALARS {name} double\nLOOKUP_TABLE default", values, ">f8")


ERROR_COLUMNS = ("u_L2", "u_H1", "u_Linf", "q_L2", "q_H1", "q_Linf")  # in CSV column order
SEMINORM_COLUMNS = ("u_H1semi", "q_H1semi")
CSV_HEADER = ["h", *(col for key in ERROR_COLUMNS for col in (key, f"{key}_rate")), *SEMINORM_COLUMNS]


def write_convergence_csv(table: ConvergenceTable, path):
    """Error/rate table, one row per mesh; rates are blank on the first row.

    Errors use scientific notation with 3 significant digits; the trailing
    seminorm columns carry the H1 seminorms alongside the full norms.
    """
    if len(table) == 0:
        raise ValueError("cannot write an empty convergence table")
    rates = {key: table.rates(key) for key in ERROR_COLUMNS}
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for i in range(len(table)):
            row = [f"{table.h[i]:.6g}"]
            for key in ERROR_COLUMNS:
                row.append(f"{table.errors[i][key]:.2e}")
                row.append("" if i == 0 else f"{rates[key][i - 1]:.2f}")
            for key in SEMINORM_COLUMNS:
                row.append(f"{table.errors[i].get(key, float('nan')):.2e}")
            writer.writerow(row)


MONITOR_FORMATS = {  # each monitor column, in file order, and the format of its values
    "step": "d",
    "t": ".12g",
    "dt": ".12g",
    "div_l2": ".6e",
    "kinetic_energy": ".12e",
    **{f"res_{c}": ".3e" for c in SOLVE_CLASSES},
}


def write_monitor_csv(monitors: list[dict], path):
    """Per-step monitor series (time, dt, divergence, energy, largest backward
    error of each solve class)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MONITOR_FORMATS)
        for row in monitors:
            writer.writerow([format(row[key], spec) for key, spec in MONITOR_FORMATS.items()])
