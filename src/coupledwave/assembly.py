"""P1 finite element assembly on interval and triangle meshes.

Global matrices come in two flavours: over all vertices (``*_full``) and over
interior vertices only, with Dirichlet rows and columns removed.  Load vectors
keep the full mass action: interior rows of M applied to nodal values at all
vertices, so contributions from basis functions next to the boundary are not
truncated.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, interior_dof_map, signed_measures


class AssemblyError(ValueError):
    """Raised for degenerate cells or malformed nodal data."""


class EmptySystemError(AssemblyError):
    """Raised when a mesh has no interior vertices to solve for."""


def element_mass(coords: np.ndarray) -> np.ndarray:
    """Element mass matrices for one cell or a stack of cells.

    Parameters
    ----------
    coords : ndarray, shape (..., dim + 1, dim)
        Cell vertex coordinates.

    Returns
    -------
    ndarray, shape (..., dim + 1, dim + 1)
        (L/6)*[[2,1],[1,2]] on a segment of length L, (A/12)*(ones + eye)
        on a triangle of area A.
    """
    measure = _cell_measure(coords)[..., None, None]
    if coords.shape[-2] == 2:
        return (measure / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    return (measure / 12.0) * (np.ones((3, 3)) + np.eye(3))


def element_stiffness(coords: np.ndarray) -> np.ndarray:
    """Element stiffness matrices (gradients of P1 bases are cellwise constant)."""
    measure = _cell_measure(coords)[..., None, None]
    if coords.shape[-2] == 2:
        return np.array([[1.0, -1.0], [-1.0, 1.0]]) / measure
    # gradient of basis i is perp(opposite edge) / (2A)
    a, b, c = coords[..., 0, :], coords[..., 1, :], coords[..., 2, :]
    edges = np.stack([c - b, a - c, b - a], axis=-2)
    grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / (2.0 * measure)
    return measure * (grads @ np.swapaxes(grads, -1, -2))


def _cell_measure(coords: np.ndarray) -> np.ndarray:
    measure = signed_measures(coords)
    bad = np.flatnonzero(measure <= 0.0)
    if bad.size:
        first = np.ravel(measure)[bad[0]]
        raise AssemblyError(f"cell is degenerate or negatively oriented (measure {first:g})")
    return measure


def _assemble(mesh: Mesh, element_fn, row_map, col_map, shape) -> sp.csr_matrix:
    # entries in cell-major (cell, i, j) order; rows or columns mapped to a
    # negative index (constrained vertices) are dropped
    local = element_fn(mesh.vertices[mesh.cells])
    rows, cols = np.broadcast_arrays(
        row_map[mesh.cells][:, :, None], col_map[mesh.cells][:, None, :]
    )
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix((local[keep], (rows[keep], cols[keep])), shape=shape)
    return mat.tocsr()


def assemble_mass_full(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix over all vertices."""
    ident = np.arange(mesh.n_vertices)
    n = mesh.n_vertices
    return _assemble(mesh, element_mass, ident, ident, (n, n))


def assemble_stiffness_full(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix over all vertices (singular: constants are in its kernel)."""
    ident = np.arange(mesh.n_vertices)
    n = mesh.n_vertices
    return _assemble(mesh, element_stiffness, ident, ident, (n, n))


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix restricted to interior vertices (symmetric positive definite)."""
    dof = _interior_or_raise(mesh)
    n = mesh.n_interior
    return _assemble(mesh, element_mass, dof, dof, (n, n))


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix restricted to interior vertices (symmetric positive definite)."""
    dof = _interior_or_raise(mesh)
    n = mesh.n_interior
    return _assemble(mesh, element_stiffness, dof, dof, (n, n))


def load_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Interior rows of the full mass matrix, shape (n_interior, n_vertices).

    Applying it to nodal values of f gives the load vector (f_h, phi_i) for
    every interior basis function, boundary columns included.
    """
    dof = _interior_or_raise(mesh)
    ident = np.arange(mesh.n_vertices)
    return _assemble(mesh, element_mass, dof, ident, (mesh.n_interior, mesh.n_vertices))


def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector of a scalar field against interior basis functions.

    ``f`` is evaluated at all vertices, interpolated in the P1 space, and
    integrated exactly against each interior hat function.
    """
    values = evaluate_at_vertices(mesh, f)
    return load_matrix(mesh) @ values


def interpolate(mesh: Mesh, g) -> np.ndarray:
    """Nodal values of ``g`` at interior vertices, in interior dof order."""
    _interior_or_raise(mesh)
    return evaluate_at_vertices(mesh, g)[~mesh.boundary_flags]


def evaluate_at_vertices(mesh: Mesh, f) -> np.ndarray:
    """Evaluate a callable (or broadcast a constant) at every vertex."""
    if callable(f):
        values = np.asarray(f(mesh.vertices), dtype=float)
    else:
        values = np.full(mesh.n_vertices, float(f))
    values = values.reshape(-1)
    if values.shape != (mesh.n_vertices,):
        raise AssemblyError(
            f"field returned shape {values.shape}, expected ({mesh.n_vertices},)"
        )
    if not np.isfinite(values).all():
        raise AssemblyError("field evaluated to a non-finite value")
    return values


def _interior_or_raise(mesh: Mesh) -> np.ndarray:
    if mesh.n_interior == 0:
        raise EmptySystemError(
            "mesh has no interior vertices; refine it before assembling a system"
        )
    return interior_dof_map(mesh)


def export_coo(matrix, path) -> None:
    """Dump a sparse matrix as 'row col value' text lines for inspection."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {v:.17g}\n")
