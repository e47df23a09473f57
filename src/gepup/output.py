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


def _write_block(f, header: str, values):
    """A header line, then ``values`` as raw big-endian doubles and one newline."""
    f.write(f"{header}\n".encode())
    f.write(np.ascontiguousarray(values, dtype=">f8").tobytes())
    f.write(b"\n")


def write_vtk(space: FeSpace, path, velocity, pressure, title: str = "fields"):
    """Legacy binary VTK rectilinear-grid snapshot (big-endian, exact doubles).

    The support points are the grid of the axes' ``nodes``, x fastest, which
    is the dof order, so the frame holds the two node arrays (and z = 0) and
    no point or cell list; a VTK reader shows the lattice's cells as
    bilinear quads.  Point data: 3-component velocity (z = 0), pressure,
    scalar vorticity and divergence (the latter two derived from the
    velocity).  Each block is its header line, its values as raw big-endian
    doubles (``>f8``) and one newline, so the values read back are the
    arrays passed in, bit for bit.

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
    ax, ay = space.axes
    z = np.zeros(n)
    with open(path, "wb") as f:
        f.write(b"# vtk DataFile Version 2.0\n" + title_line + b"\nBINARY\nDATASET RECTILINEAR_GRID\n")
        f.write(f"DIMENSIONS {ax.n} {ay.n} 1\n".encode())
        for name, nodes in (("X", ax.nodes), ("Y", ay.nodes), ("Z", [0.0])):
            _write_block(f, f"{name}_COORDINATES {len(nodes)} double", nodes)

        f.write(f"POINT_DATA {n}\n".encode())
        _write_block(f, "VECTORS velocity double", np.column_stack([velocity[0], velocity[1], z]))
        _write_block(f, "SCALARS pressure double\nLOOKUP_TABLE default", pressure)
        for name, values in zip(("vorticity", "divergence"), nodal_curl_and_div(space, velocity)):
            _write_block(f, f"SCALARS {name} double\nLOOKUP_TABLE default", values)


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
    "courant": ".6g",
    "div_l2": ".6e",
    "kinetic_energy": ".12e",
    **{f"res_{c}": ".3e" for c in SOLVE_CLASSES},
}


def write_monitor_csv(monitors: list[dict], path):
    """Per-step monitor series (time, dt, Courant number, divergence, energy,
    largest backward error of each solve class)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MONITOR_FORMATS)
        for row in monitors:
            writer.writerow([format(row[key], spec) for key, spec in MONITOR_FORMATS.items()])
