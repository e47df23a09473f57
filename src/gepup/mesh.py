"""Structured quadrilateral meshes on axis-aligned rectangles.

Meshes are uniform nx-by-ny grids of rectangles with row-major element and
vertex numbering (x fastest).  Refinement levels halve the element size, so
meshes built from one base grid are nested: every element at one level is
the union of exactly four elements at the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RectDomain",
    "StructuredQuadMesh",
    "BoundaryFace",
    "build_mesh",
    "boundary_faces",
    "UNIT_SQUARE",
]


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle given by its lower-left corner and side lengths."""

    origin: tuple[float, float] = (0.0, 0.0)
    extent: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.extent[0] <= 0.0 or self.extent[1] <= 0.0:
            raise ValueError(f"domain extent must be positive, got {self.extent}")


UNIT_SQUARE = RectDomain((0.0, 0.0), (1.0, 1.0))


@dataclass(frozen=True)
class StructuredQuadMesh:
    """Uniform rectangular grid of nx*ny elements.

    Element e = j*nx + i covers [origin_x + i*hx, origin_x + (i+1)*hx] x
    [origin_y + j*hy, origin_y + (j+1)*hy].  Vertices are numbered row-major
    on the (nx+1)*(ny+1) lattice.
    """

    domain: RectDomain
    nx: int
    ny: int
    level: int = 0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"cell counts must be positive, got ({self.nx}, {self.ny})")
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")

    @property
    def hx(self) -> float:
        return self.domain.extent[0] / self.nx

    @property
    def hy(self) -> float:
        return self.domain.extent[1] / self.ny

    @property
    def h_max(self) -> float:
        """Element size used for Courant control (conservative for nx != ny)."""
        return max(self.hx, self.hy)

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def n_vertices(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def element_origin(self, e: int) -> tuple[float, float]:
        j, i = divmod(e, self.nx)
        return (self.domain.origin[0] + i * self.hx, self.domain.origin[1] + j * self.hy)

    def vertex_coords(self) -> np.ndarray:
        """(n_vertices, 2) lattice coordinates, row-major."""
        x = self.domain.origin[0] + self.hx * np.arange(self.nx + 1)
        y = self.domain.origin[1] + self.hy * np.arange(self.ny + 1)
        X, Y = np.meshgrid(x, y, indexing="xy")
        return np.column_stack([X.ravel(), Y.ravel()])

    def element_vertices(self) -> np.ndarray:
        """(n_elements, 4) vertex indices, corner order (SW, SE, NW, NE)."""
        i = np.arange(self.nx)
        j = np.arange(self.ny)
        I, J = np.meshgrid(i, j, indexing="xy")
        sw = (J * (self.nx + 1) + I).ravel()
        return np.column_stack([sw, sw + 1, sw + self.nx + 1, sw + self.nx + 2])


def build_mesh(domain: RectDomain, base_cells: tuple[int, int], level: int) -> StructuredQuadMesh:
    """Mesh with base_cells * 2**level cells per axis."""
    bx, by = base_cells
    if bx < 1 or by < 1:
        raise ValueError(f"base cells must be positive, got {base_cells}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return StructuredQuadMesh(domain, bx * 2**level, by * 2**level, level)


@dataclass(frozen=True)
class BoundaryFace:
    """One element edge lying on the domain boundary.

    ``side`` is 0/1/2/3 for bottom/right/top/left; the normal is the unit
    outward normal of the domain there.
    """

    element: int
    side: int
    normal: tuple[float, float]
    length: float


_SIDE_NORMALS = ((0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))


def boundary_faces(mesh: StructuredQuadMesh) -> list[BoundaryFace]:
    """All 2*(nx+ny) boundary faces, each listed once.

    Order: bottom row left-to-right, right column bottom-to-top, top row
    left-to-right, left column bottom-to-top.
    """
    faces = []
    for i in range(mesh.nx):
        faces.append(BoundaryFace(i, 0, _SIDE_NORMALS[0], mesh.hx))
    for j in range(mesh.ny):
        faces.append(BoundaryFace(j * mesh.nx + mesh.nx - 1, 1, _SIDE_NORMALS[1], mesh.hy))
    for i in range(mesh.nx):
        faces.append(BoundaryFace((mesh.ny - 1) * mesh.nx + i, 2, _SIDE_NORMALS[2], mesh.hx))
    for j in range(mesh.ny):
        faces.append(BoundaryFace(j * mesh.nx, 3, _SIDE_NORMALS[3], mesh.hy))
    return faces
