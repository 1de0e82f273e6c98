"""Conforming simplicial meshes of an interval or a polygon.

Meshes are plain vertex/cell arrays plus a per-vertex boundary flag.  The
generators produce the structured families used throughout (uniform
subdivision of the unit interval, fixed-diagonal triangulation of the unit
square); arbitrary meshes can be loaded from a small text format.  All cells
are positively oriented: intervals run left to right, triangles are
counterclockwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

# Vertices at or beyond this shape-regularity ratio are rejected by validate().
# The structured square family sits at 1 + sqrt(2), so 10 leaves headroom for
# file-loaded meshes without admitting slivers.
SHAPE_REGULARITY_LIMIT = 10.0

# Marker used by interior_dof_map for constrained (boundary) vertices.
BOUNDARY = -1


class MeshError(ValueError):
    """Raised when mesh data violates a structural invariant."""


@dataclass(frozen=True)
class Mesh:
    """Immutable simplicial mesh.

    Attributes
    ----------
    dim : int
        Ambient dimension, 1 or 2.
    vertices : ndarray, shape (n_vertices, dim)
        Vertex coordinates.
    cells : ndarray, shape (n_cells, dim + 1)
        0-based vertex indices per cell, positively oriented.
    boundary_flags : ndarray of bool, shape (n_vertices,)
        True for vertices on the Dirichlet boundary.
    h : float
        Largest cell diameter.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary_flags: np.ndarray
    h: float

    def __post_init__(self):
        for arr in (self.vertices, self.cells, self.boundary_flags):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_interior(self) -> int:
        return int(np.count_nonzero(~self.boundary_flags))


def _make_mesh(dim, vertices, cells, boundary_flags) -> Mesh:
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    boundary_flags = np.ascontiguousarray(boundary_flags, dtype=bool)
    h = float(cell_diameters(vertices, cells).max())
    return Mesh(dim, vertices, cells, boundary_flags, h)


def cell_diameters(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Diameter (longest edge) of every cell."""
    return functools.reduce(np.maximum, _edge_lengths(vertices[cells]))


def _edge_lengths(coords: np.ndarray) -> list:
    """Edge lengths of a stack of cells (n_cells, dim + 1, dim), one array per edge.

    A triangle's edges run v0 v1, v1 v2, v2 v0; an interval is its own edge.
    """
    ends = ((0, 1),) if coords.shape[1] == 2 else ((0, 1), (1, 2), (2, 0))
    return [np.linalg.norm(coords[:, j] - coords[:, i], axis=-1) for i, j in ends]


def signed_measures(coords: np.ndarray) -> np.ndarray:
    """Signed length (1d) or signed area (2d) of a stack of cells.

    ``coords`` has shape (..., dim + 1, dim); the result has shape (...).
    """
    if coords.shape[-2] == 2:
        return coords[..., 1, 0] - coords[..., 0, 0]
    d1 = coords[..., 1, :] - coords[..., 0, :]
    d2 = coords[..., 2, :] - coords[..., 0, :]
    return 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def cell_measures(mesh: Mesh) -> np.ndarray:
    """Signed length (1d) or signed area (2d) of every cell."""
    return signed_measures(mesh.vertices[mesh.cells])


def shape_ratios(mesh: Mesh, measures: np.ndarray | None = None) -> np.ndarray:
    """Diameter over inscribed-ball diameter, per cell.

    For intervals the inscribed ball is the cell itself, so the ratio is 1.
    For triangles the inscribed circle has diameter 4*area/perimeter, and the
    diameter is the longest of the three edges.  ``measures`` are the signed
    cell measures when the caller already holds them.
    """
    if mesh.dim == 1:
        return np.ones(mesh.n_cells)
    ab, bc, ca = _edge_lengths(mesh.vertices[mesh.cells])
    area = np.abs(cell_measures(mesh) if measures is None else measures)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.maximum(np.maximum(ab, bc), ca) * (ab + bc + ca) / (4.0 * area)


def generate_unit_interval(n_cells: int) -> Mesh:
    """Uniform mesh of [0, 1] with ``n_cells`` segments.

    Vertex i sits at i/n_cells; the two endpoints carry the boundary flag.
    """
    if n_cells < 1:
        raise MeshError(f"need at least one cell, got {n_cells}")
    vertices = (np.arange(n_cells + 1, dtype=float) / n_cells)[:, None]
    cells = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    flags = np.zeros(n_cells + 1, dtype=bool)
    flags[0] = flags[-1] = True
    return _make_mesh(1, vertices, cells, flags)


def generate_unit_square(n_per_side: int) -> Mesh:
    """Structured triangulation of [0, 1]^2 with ``n_per_side`` squares per side.

    Each grid square is split along the diagonal from its lower-left to its
    upper-right corner, giving 2*n^2 congruent right triangles and mesh size
    h = sqrt(2)/n.  Boundary flags mark every vertex with a coordinate at 0
    or 1.
    """
    n = n_per_side
    if n < 1:
        raise MeshError(f"need at least one square per side, got {n}")
    side = np.arange(n + 1, dtype=float) / n
    xx, yy = np.meshgrid(side, side)  # row j is y = j/n
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # lower-left corner of square (i, j) in row-major order; (ll, lr, ur) and
    # (ll, ur, ul) are its two triangles
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
    cells = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)
    flags = (
        (vertices[:, 0] == 0.0)
        | (vertices[:, 0] == 1.0)
        | (vertices[:, 1] == 0.0)
        | (vertices[:, 1] == 1.0)
    )
    return _make_mesh(2, vertices, cells, flags)


def _edge_table(cells: np.ndarray, n_vertices: int) -> tuple:
    """Number the distinct edges of a mesh in order of first use.

    Local edge k of a triangle runs from its vertex k to vertex k + 1 (mod
    3); an interval is its own single edge.  Edges are numbered as first met
    in cell-major order, which fixes the vertex numbering of refined meshes.

    Returns
    -------
    ends : ndarray, shape (n_edges, 2)
        Endpoints of each edge, oriented as in the cell that uses it first.
    edge_of : ndarray, shape (n_cells, n_local_edges)
        Edge number of every local edge.
    count : ndarray, shape (n_edges,)
        Number of cells sharing each edge.
    """
    local = np.stack([cells, np.roll(cells, -1, axis=1)], axis=-1)
    if cells.shape[1] == 2:
        local = local[:, :1]
    local = local.reshape(-1, 2)
    key = local.min(axis=1) * n_vertices + local.max(axis=1)
    _, first, inverse, count = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    edge_of = number[inverse].reshape(cells.shape[0], -1)
    return local[first[order]], edge_of, count[order]


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every cell at edge midpoints.

    Intervals split in two; triangles split into four congruent children, so
    shape ratios are preserved and the mesh size halves.  Midpoints of
    boundary edges inherit the boundary flag; midpoints of interior edges do
    not, even when both edge endpoints are flagged.
    """
    ends, edge_of, count = _edge_table(mesh.cells, mesh.n_vertices)
    midpoints = (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]]) / 2.0
    mid = mesh.n_vertices + edge_of
    if mesh.dim == 1:
        a, b = mesh.cells.T
        children = [(a, mid[:, 0]), (mid[:, 0], b)]
        midpoint_flags = np.zeros(len(ends), dtype=bool)
    else:
        a, b, c = mesh.cells.T
        mab, mbc, mca = mid.T
        children = [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        midpoint_flags = count == 1
    # (child, vertex, cell) -> cell-major rows, children in the order listed
    cells = np.array(children).transpose(2, 0, 1).reshape(-1, mesh.dim + 1)
    vertices = np.vstack([mesh.vertices, midpoints])
    flags = np.concatenate([mesh.boundary_flags, midpoint_flags])
    return _make_mesh(mesh.dim, vertices, cells, flags)


def interior_dof_map(mesh: Mesh) -> np.ndarray:
    """Map vertex index to interior unknown index, BOUNDARY (-1) if constrained.

    Interior unknowns are numbered 0..n_interior-1 in vertex order.
    """
    dof = np.full(mesh.n_vertices, BOUNDARY, dtype=np.int64)
    interior = np.flatnonzero(~mesh.boundary_flags)
    dof[interior] = np.arange(interior.size)
    return dof


def validate(mesh: Mesh) -> None:
    """Check structural invariants, raising MeshError on the first violation.

    Checks: index ranges, positive orientation, conformity (an edge is shared
    by at most two triangles, duplicate cells are rejected, every vertex
    belongs to a cell), boundary flags
    consistent with the combinatorial boundary, shape regularity below
    SHAPE_REGULARITY_LIMIT, and that cell measures add up to the measure
    enclosed by the combinatorial boundary (catches overlaps and holes).
    """
    if mesh.dim not in (1, 2):
        raise MeshError(f"unsupported dimension {mesh.dim}")
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != mesh.dim:
        raise MeshError("vertex array shape does not match dimension")
    if mesh.cells.ndim != 2 or mesh.cells.shape[1] != mesh.dim + 1:
        raise MeshError("cell array shape does not match dimension")
    if mesh.boundary_flags.shape != (mesh.n_vertices,):
        raise MeshError("boundary flag array does not match vertex count")
    if mesh.n_cells == 0:
        raise MeshError("mesh has no cells")
    _check_indices(mesh.cells, mesh.n_vertices)
    repeated = np.flatnonzero((np.diff(np.sort(mesh.cells, axis=1), axis=1) == 0).any(axis=1))
    if repeated.size:
        cell = mesh.cells[repeated[0]].tolist()
        raise MeshError(f"degenerate cell with repeated vertex: {cell}")

    measures = cell_measures(mesh)
    if not (measures > 0.0).all():
        bad = int(np.argmin(measures))
        raise MeshError(f"cell {bad} is not positively oriented (measure {measures[bad]:g})")

    ratios = shape_ratios(mesh, measures)
    if not (ratios < SHAPE_REGULARITY_LIMIT).all():
        bad = int(np.argmax(ratios))
        raise MeshError(f"cell {bad} fails shape regularity: ratio {ratios[bad]:g}")

    if mesh.dim == 1:
        _validate_1d(mesh, measures)
    else:
        _validate_2d(mesh, measures)

    if not mesh.boundary_flags.any():
        raise MeshError("no boundary vertices flagged; homogeneous Dirichlet needs a boundary")


def _check_indices(cells: np.ndarray, n_vertices: int) -> None:
    if cells.min() < 0 or cells.max() >= n_vertices:
        raise MeshError(f"cell refers to a vertex that does not exist ({n_vertices} vertices)")


def _validate_1d(mesh: Mesh, measures: np.ndarray) -> None:
    count = np.bincount(mesh.cells.ravel(), minlength=mesh.n_vertices)
    if count.max() > 2 or count.min() < 1:
        raise MeshError("interval mesh is not a chain (vertex in 0 or >2 cells)")
    ends = np.flatnonzero(count == 1)
    if ends.size != 2:
        raise MeshError("interval mesh must have exactly two endpoints")
    expected = set(ends.tolist())
    flagged = set(np.flatnonzero(mesh.boundary_flags).tolist())
    if flagged != expected:
        raise MeshError("boundary flags disagree with chain endpoints")
    span = mesh.vertices[:, 0].max() - mesh.vertices[:, 0].min()
    if abs(measures.sum() - span) > 1e-12 * max(span, 1.0):
        raise MeshError("cells do not partition the interval (overlap or gap)")


def _validate_2d(mesh: Mesh, measures: np.ndarray) -> None:
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[mesh.cells] = True
    if not used.all():
        raise MeshError(f"vertex {int(np.argmin(used))} belongs to no cell")

    ordered = np.sort(mesh.cells, axis=1)
    _, first = np.unique(ordered, axis=0, return_index=True)
    if first.size < mesh.n_cells:
        repeat = np.setdiff1d(np.arange(mesh.n_cells), first)[0]
        raise MeshError(f"duplicate cell {ordered[repeat].tolist()}")

    ends, _, count = _edge_table(mesh.cells, mesh.n_vertices)
    if count.max() > 2:
        raise MeshError("edge shared by more than two triangles")

    a, b = ends[count == 1].T
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[a] = on_boundary[b] = True
    if not np.array_equal(on_boundary, mesh.boundary_flags):
        raise MeshError("boundary flags disagree with the combinatorial boundary")

    # Shoelace over the oriented boundary edges gives the enclosed area; a
    # double-covered or missing patch breaks the match with the cell sum.
    (xa, ya), (xb, yb) = mesh.vertices[a].T, mesh.vertices[b].T
    enclosed = 0.5 * np.sum(xa * yb - xb * ya)
    total = measures.sum()
    if abs(total - enclosed) > 1e-12 * max(abs(enclosed), 1.0):
        raise MeshError("cell areas do not add up to the enclosed area (overlap or gap)")


def write_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format.

    Line 1: ``dim n_vertices n_cells``; then one line per vertex with the
    coordinates followed by the boundary flag (0/1); then one line per cell
    with 0-based vertex indices.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.dim} {mesh.n_vertices} {mesh.n_cells}\n")
        for xy, flag in zip(mesh.vertices, mesh.boundary_flags):
            coords = " ".join(f"{c:.17g}" for c in xy)
            fh.write(f"{coords} {int(flag)}\n")
        for cell in mesh.cells:
            fh.write(" ".join(str(int(v)) for v in cell) + "\n")


def read_mesh(path) -> Mesh:
    """Read the plain-text mesh format and validate the result.

    Fields are separated by any run of spaces and tabs; CRLF line ends and
    blank lines are accepted.  numpy parses each block in one pass, so a good
    file builds no Python object per token.  A file that does not fit its
    header is read again to name its first fault (see ``_diagnose``).  The
    vertex indices are checked before any geometry is computed.  Cells with
    negative orientation are flipped rather than rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (line for line in fh if not line.isspace())
            dim, nv, nc = _header(path, next(lines, None))
            parsed = _parse(lines, dim, nv, nc)
        if parsed is None:
            _diagnose(path, dim, nv, nc)
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: "
                        f"{exc.reason})") from None
    vertices, flags, cells = parsed
    _check_indices(cells, nv)
    flip = signed_measures(vertices[cells]) < 0
    cells[flip, -2:] = cells[flip][:, [-1, -2]]
    mesh = _make_mesh(dim, vertices, cells, flags == 1)
    validate(mesh)
    return mesh


def _header(path, line) -> tuple:
    if line is None:
        raise MeshError(f"{path}: empty mesh file")
    tokens = line.split()
    try:
        dim, nv, nc = map(int, tokens)
    except ValueError:
        raise MeshError(f"{path}: header must be 'dim n_vertices n_cells', "
                        f"got {' '.join(tokens)!r}") from None
    if dim not in (1, 2) or nv < 1 or nc < 1:
        raise MeshError(f"{path}: header needs dimension 1 or 2 and positive counts, "
                        f"got {dim} {nv} {nc}")
    return dim, nv, nc


def _parse(lines, dim: int, nv: int, nc: int):
    """Coordinates, flags and cells from the lines after the header.

    Returns None where a block does not parse, a count disagrees with the
    header or a flag is not 0 or 1.
    """
    vertex = np.dtype([("coords", np.float64, (dim,)), ("flag", np.int64)])
    cell = np.dtype([("ids", np.int64, (dim + 1,))])
    try:
        table = _rows(lines, nv, vertex)
        cells = None if table is None else _rows(lines, nc, cell)
    except UnicodeDecodeError:
        raise
    except ValueError:  # a bad token or token count, or a count beyond islice's range
        return None
    if cells is None or next(lines, None) is not None or not _is_flag(table["flag"]).all():
        return None
    return table["coords"], table["flag"], cells["ids"]


def _rows(lines, n: int, dtype: np.dtype):
    """numpy's parse of the next ``n`` lines, or None where fewer are left."""
    block = islice(lines, n)
    first = next(block, None)  # numpy warns on a block with no lines
    if first is None:
        return None
    table = np.loadtxt(chain((first,), block), dtype=dtype, comments=None, ndmin=1)
    return table if len(table) == n else None


def _is_flag(values: np.ndarray) -> np.ndarray:
    return (values == 0) | (values == 1)


def _diagnose(path, dim: int, nv: int, nc: int):
    """Raise the MeshError that names the first fault of a file ``_parse`` declined.

    The file is read again and checked in this order: the line count, the
    tokens on each line, then the numbers (boundary flags, coordinates,
    vertex indices), each block by numpy and, where that fails, line by line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.isspace()][1:]
    if len(lines) != nv + nc:
        raise MeshError(f"{path}: expected {1 + nv + nc} lines, found {1 + len(lines)}")
    blocks = {"vertex": lines[:nv], "cell": lines[nv:]}
    for kind, need in (("vertex", f"{dim} coordinates and a flag"),
                       ("cell", f"{dim + 1} vertex indices")):
        for i, line in enumerate(blocks[kind]):
            if len(line.split()) != dim + 1:
                raise MeshError(f"{path}: {kind} line {i} needs {need}")
    for what, kind, *spec in (("boundary flag", "vertex", np.int64, [dim], _is_flag),
                              ("vertex coordinate", "vertex", np.float64, range(dim), None),
                              ("vertex index", "cell", np.int64, None, None)):
        block = blocks[kind]
        if not _fits(block, *spec):
            bad = next(i for i, line in enumerate(block) if not _fits([line], *spec))
            raise MeshError(f"{path}: bad {what} on {kind} line {bad}: {block[bad].strip()!r}")
    raise MeshError(f"{path}: the mesh file does not parse")


def _fits(rows, dtype, columns, valid) -> bool:
    """Whether numpy parses ``columns`` of ``rows`` as ``dtype`` into values ``valid`` accepts."""
    try:
        values = np.loadtxt(rows, dtype, comments=None, usecols=columns, ndmin=1)
    except ValueError:
        return False
    return valid is None or bool(valid(values).all())
