"""P1 finite element assembly on interval and triangle meshes.

Global matrices live on the interior vertices, with Dirichlet rows and
columns removed.  The load matrix keeps the full mass action: interior rows
of M applied to nodal values at all vertices, so contributions from basis
functions next to the boundary are not truncated.
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
    # gradient of basis i is perp(opposite edge) / (2A), edge i running from
    # vertex i + 1 to vertex i + 2; one stack, scaled in place
    grads = np.empty(coords.shape)
    for i, (head, tail) in enumerate(((2, 1), (0, 2), (1, 0))):
        edge = coords[..., head, :] - coords[..., tail, :]
        np.negative(edge[..., 1], out=grads[..., i, 0])
        grads[..., i, 1] = edge[..., 0]
    grads /= 2.0 * measure
    stiffness = grads @ np.swapaxes(grads, -1, -2)
    stiffness *= measure
    return stiffness


def _cell_measure(coords: np.ndarray) -> np.ndarray:
    measure = signed_measures(coords)
    bad = np.flatnonzero(measure <= 0.0)
    if bad.size:
        first = np.ravel(measure)[bad[0]]
        raise AssemblyError(f"cell is degenerate or negatively oriented (measure {first:g})")
    return measure


def _assemble(mesh: Mesh, element_fn, row_map, col_map, shape) -> sp.csr_matrix:
    # entries in cell-major (cell, i, j) order; rows or columns mapped to a
    # negative index (constrained vertices) are dropped.  The triplets are
    # int32, scipy's index type, so the COO matrix takes them without a copy,
    # and the element stack, maps and mask are freed before the CSR copy
    rows = row_map.astype(np.int32)[mesh.cells][:, :, None]
    cols = col_map.astype(np.int32)[mesh.cells][:, None, :]
    keep = (rows >= 0) & (cols >= 0)
    data = element_fn(mesh.vertices[mesh.cells])[keep]
    rows = np.broadcast_to(rows, keep.shape)[keep]
    cols = np.broadcast_to(cols, keep.shape)[keep]
    del keep
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


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


def interpolate(mesh: Mesh, g) -> np.ndarray:
    """Nodal values of ``g`` at interior vertices, in interior dof order.

    ``g`` is evaluated at every vertex and must return finite values.
    """
    _interior_or_raise(mesh)
    values = np.asarray(g(mesh.vertices), dtype=float).reshape(-1)
    if values.shape != (mesh.n_vertices,):
        raise AssemblyError(
            f"field returned shape {values.shape}, expected ({mesh.n_vertices},)"
        )
    if not np.isfinite(values).all():
        raise AssemblyError("field evaluated to a non-finite value")
    return values[~mesh.boundary_flags]


def _interior_or_raise(mesh: Mesh) -> np.ndarray:
    if mesh.n_interior == 0:
        raise EmptySystemError(
            "mesh has no interior vertices; refine it before assembling a system"
        )
    return interior_dof_map(mesh)

