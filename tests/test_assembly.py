import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledwave import assembly as asm
from coupledwave import mesh as msh

import oracles


def rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_element_mass_reference_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = (0.5 / 12.0) * (np.ones((3, 3)) + np.eye(3))
    np.testing.assert_allclose(asm.element_mass(coords), expected, rtol=1e-15)


def test_element_stiffness_reference_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(asm.element_stiffness(coords), expected, rtol=1e-15)


def test_element_matrices_match_quadrature_oracle(rng):
    for _ in range(100):
        tri = oracles.random_triangle(rng)
        assert rel_diff(asm.element_mass(tri), oracles.mass_oracle(tri)) < 1e-13
        assert rel_diff(asm.element_stiffness(tri), oracles.stiffness_oracle(tri)) < 1e-13
    for _ in range(100):
        seg = oracles.random_segment(rng)
        assert rel_diff(asm.element_mass(seg), oracles.mass_oracle(seg)) < 1e-13
        assert rel_diff(asm.element_stiffness(seg), oracles.stiffness_oracle(seg)) < 1e-13


def test_element_rejects_degenerate_cell():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(asm.AssemblyError):
        asm.element_mass(flat)
    with pytest.raises(asm.AssemblyError):
        asm.element_stiffness(np.array([[0.3], [0.3]]))
    with pytest.raises(asm.AssemblyError):
        asm.element_mass(np.stack([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], flat]))


def jittered_meshes(rng):
    """A 2D square and a 1D interval with interior vertices moved by up to h/5."""
    for base in (msh.generate_unit_square(6), msh.generate_unit_interval(9)):
        verts = base.vertices.copy()
        inner = ~base.boundary_flags
        verts[inner] += rng.uniform(-0.2, 0.2, size=verts[inner].shape) * base.h
        h = float(msh.cell_diameters(verts, base.cells).max())
        m = msh.Mesh(base.dim, verts, base.cells.copy(), base.boundary_flags.copy(), h)
        msh.validate(m)
        yield m


def test_assembled_matrices_match_oracle_cell_sum(rng):
    for m in jittered_meshes(rng):
        inner = ~m.boundary_flags
        for oracle, assembled, loads in (
            (oracles.mass_oracle, asm.assemble_mass, asm.load_matrix),
            (oracles.stiffness_oracle, asm.assemble_stiffness, None),
        ):
            full = np.zeros((m.n_vertices, m.n_vertices))
            for cell in m.cells:
                full[np.ix_(cell, cell)] += oracle(m.vertices[cell])
            assert rel_diff(assembled(m).toarray(), full[np.ix_(inner, inner)]) < 1e-13
            if loads is not None:
                assert rel_diff(loads(m).toarray(), full[inner]) < 1e-13


def test_element_matrices_of_a_stack_equal_per_cell_calls(rng):
    for m in jittered_meshes(rng):
        coords = m.vertices[m.cells]
        for element in (asm.element_mass, asm.element_stiffness):
            np.testing.assert_array_equal(element(coords), [element(c) for c in coords])


def test_interval_interior_matrices():
    # two cells of length 1/2 around the single interior vertex
    m = msh.generate_unit_interval(2)
    M = asm.assemble_mass(m).toarray()
    K = asm.assemble_stiffness(m).toarray()
    np.testing.assert_allclose(M, [[1.0 / 3.0]], rtol=1e-15)
    np.testing.assert_allclose(K, [[4.0]], rtol=1e-15)


def test_square_interior_matrices():
    # six triangles of area 1/8 meet at the center vertex: consistent mass
    # diag 6*(A/6) = 1/8, five-point-stencil stiffness diag 4
    m = msh.generate_unit_square(2)
    M = asm.assemble_mass(m).toarray()
    K = asm.assemble_stiffness(m).toarray()
    np.testing.assert_allclose(M, [[0.125]], rtol=1e-15)
    np.testing.assert_allclose(K, [[4.0]], rtol=1e-15)


def test_square_stiffness_diagonal_is_mesh_independent():
    # fixed-diagonal pattern reproduces the 5-point stencil: diag stays 4
    for n in (2, 4, 8):
        K = asm.assemble_stiffness(msh.generate_unit_square(n))
        np.testing.assert_allclose(K.diagonal(), 4.0, rtol=1e-13)


def test_element_matrices_global_identities():
    for m in (msh.generate_unit_square(4), msh.generate_unit_interval(7)):
        coords = m.vertices[m.cells]
        # all element-mass entries together integrate 1*1 over the domain
        assert asm.element_mass(coords).sum() == pytest.approx(1.0, rel=1e-14)
        # constants are in the kernel of every element stiffness matrix
        assert np.abs(asm.element_stiffness(coords).sum(axis=-1)).max() < 1e-13


def test_assembled_matrices_exactly_symmetric():
    for m in (msh.generate_unit_interval(9), msh.generate_unit_square(5)):
        for A in (asm.assemble_mass(m), asm.assemble_stiffness(m)):
            assert (A - A.T).nnz == 0


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=12), dim=st.sampled_from([1, 2]))
def test_mass_spectral_equivalence(n, dim):
    # frozen from the structured template: v'Mv scales like h^d with constants
    # [0.33, 1.0] on intervals and [1/8, 1/2] on the fixed-diagonal squares
    m = msh.generate_unit_interval(n) if dim == 1 else msh.generate_unit_square(n)
    M = asm.assemble_mass(m)
    lo, hi = (0.33, 1.0) if dim == 1 else (0.125, 0.5)
    gen = np.random.default_rng(n * 10 + dim)
    for _ in range(5):
        v = gen.standard_normal(m.n_interior)
        q = float(v @ (M @ v)) / float(v @ v)
        assert lo * m.h**dim <= q <= hi * m.h**dim


def test_load_constant_interval():
    # full mass action keeps the boundary-column contributions: each interior
    # hat integrates to h, plus h/2 from each flagged neighbour of f's interpolant
    m = msh.generate_unit_interval(2)
    load = asm.load_matrix(m) @ np.ones(m.n_vertices)
    np.testing.assert_allclose(load, [0.5], rtol=1e-15)


def test_load_constant_square():
    m = msh.generate_unit_square(2)
    load = asm.load_matrix(m) @ np.ones(m.n_vertices)
    np.testing.assert_allclose(load, [0.25], rtol=1e-15)


def test_galerkin_consistency_1d():
    # K * nodal(x(1-x)) must equal the load of the constant -u'' = 2 because
    # second differences of a quadratic are exact
    for n in (4, 9, 16):
        m = msh.generate_unit_interval(n)
        K = asm.assemble_stiffness(m)
        u = asm.interpolate(m, lambda p: p[:, 0] * (1.0 - p[:, 0]))
        f = asm.load_matrix(m) @ np.full(m.n_vertices, 2.0)
        assert np.abs(K @ u - f).max() < 1e-12


def test_interpolate_orders_by_interior_dof():
    m = msh.generate_unit_square(2)
    vals = asm.interpolate(m, lambda p: p[:, 0] + 10.0 * p[:, 1])
    np.testing.assert_allclose(vals, [5.5])


def test_interpolate_rejects_nonfinite():
    m = msh.generate_unit_interval(4)
    with pytest.raises(asm.AssemblyError, match="finite"):
        asm.interpolate(m, lambda p: np.where(p[:, 0] > 0.6, np.nan, 1.0))


def test_empty_system_raises():
    m = msh.generate_unit_square(1)
    with pytest.raises(asm.EmptySystemError):
        asm.assemble_mass(m)
    with pytest.raises(asm.EmptySystemError):
        asm.load_matrix(m)

