"""Output writers: legacy ASCII VTK snapshots and CSV tables (RFC 4180)."""

from __future__ import annotations

import csv

import numpy as np

from .bench import ConvergenceTable
from .fem import FeSpace

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


def _write_rows(f, row_format: str, values: np.ndarray):
    """One ``row_format`` line per row of ``values``, formatted in a single pass."""
    f.write((row_format * len(values)) % tuple(values.ravel().tolist()))


def write_vtk(space: FeSpace, path, velocity=None, pressure=None, title: str = "fields"):
    """Legacy ASCII VTK unstructured-grid snapshot.

    High-order fields are sampled at the Lagrange support points and each
    element is emitted as degree^2 bilinear sub-quads, so any VTK reader can
    display them.  Point data: 3-component velocity (z = 0), pressure,
    scalar vorticity and divergence (the latter two derived from the
    velocity).
    """
    n = space.n_dofs
    cells = _subcell_connectivity(space)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        _write_rows(f, "%.16g %.16g 0\n", space.support_points)
        f.write(f"CELLS {len(cells)} {5 * len(cells)}\n")
        _write_rows(f, "4 %d %d %d %d\n", cells)
        f.write(f"CELL_TYPES {len(cells)}\n")
        f.write("9\n" * len(cells))

        f.write(f"POINT_DATA {n}\n")
        if velocity is not None:
            f.write("VECTORS velocity double\n")
            _write_rows(f, "%.16g %.16g 0\n", np.column_stack([velocity[0], velocity[1]]))
        if pressure is not None:
            f.write("SCALARS pressure double\nLOOKUP_TABLE default\n")
            _write_rows(f, "%.16g\n", np.asarray(pressure))
        if velocity is not None:
            curl, div = nodal_curl_and_div(space, velocity)
            f.write("SCALARS vorticity double\nLOOKUP_TABLE default\n")
            _write_rows(f, "%.16g\n", curl)
            f.write("SCALARS divergence double\nLOOKUP_TABLE default\n")
            _write_rows(f, "%.16g\n", div)


CSV_HEADER = [
    "h",
    "u_L2", "u_L2_rate",
    "u_H1", "u_H1_rate",
    "u_Linf", "u_Linf_rate",
    "q_L2", "q_L2_rate",
    "q_H1", "q_H1_rate",
    "q_Linf", "q_Linf_rate",
    "u_H1semi", "q_H1semi",
]

ERROR_COLUMNS = ("u_L2", "u_H1", "u_Linf", "q_L2", "q_H1", "q_Linf")  # in CSV column order


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
            row.append(f"{table.errors[i].get('u_H1semi', float('nan')):.2e}")
            row.append(f"{table.errors[i].get('q_H1semi', float('nan')):.2e}")
            writer.writerow(row)


MONITOR_HEADER = [
    "step", "t", "dt", "div_l2", "kinetic_energy",
    "res_momentum", "res_poisson_phi", "res_poisson_q", "res_mass",
]


def write_monitor_csv(monitors: list[dict], path):
    """Per-step monitor series (time, dt, divergence, energy, largest backward
    error of each solve class)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MONITOR_HEADER)
        for row in monitors:
            writer.writerow(
                [
                    row["step"],
                    f"{row['t']:.12g}",
                    f"{row['dt']:.12g}",
                    f"{row['div_l2']:.6e}",
                    f"{row['kinetic_energy']:.12e}",
                    f"{row['res_momentum']:.3e}",
                    f"{row['res_poisson_phi']:.3e}",
                    f"{row['res_poisson_q']:.3e}",
                    f"{row['res_mass']:.3e}",
                ]
            )
