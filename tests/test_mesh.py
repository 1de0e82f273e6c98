import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledwave import mesh as msh

import oracles


def test_unit_interval_basic():
    m = msh.generate_unit_interval(4)
    assert m.dim == 1
    assert m.n_vertices == 5
    assert m.n_cells == 4
    assert m.h == 0.25
    np.testing.assert_array_equal(m.boundary_flags, [True, False, False, False, True])
    msh.validate(m)


def test_unit_square_counts_and_h():
    m = msh.generate_unit_square(2)
    assert m.n_vertices == 9
    assert m.n_cells == 8
    assert m.h == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-15)
    # 8 boundary vertices ring the single interior one at (1/2, 1/2)
    assert m.n_interior == 1
    interior = m.vertices[~m.boundary_flags]
    np.testing.assert_allclose(interior, [[0.5, 0.5]])
    msh.validate(m)


def test_unit_square_orientation_and_area():
    m = msh.generate_unit_square(3)
    measures = msh.cell_measures(m)
    assert (measures > 0).all()
    assert measures.sum() == pytest.approx(1.0, rel=1e-15)


def test_square_shape_ratio_is_structured_template_value():
    # right isoceles triangle: diameter sqrt(2)*leg, inscribed diameter
    # (2 - sqrt(2))*leg, ratio 1 + sqrt(2)
    m = msh.generate_unit_square(4)
    ratios = msh.shape_ratios(m)
    np.testing.assert_allclose(ratios, 1.0 + np.sqrt(2.0), rtol=1e-14)


def test_shape_ratios_take_the_diameter_from_their_own_edges():
    # bitwise the diameter-over-inscribed-diameter formula, with and without
    # the measures passed in
    m = msh.generate_unit_square(9)
    rng = np.random.default_rng(11)
    vertices = m.vertices.copy()
    vertices[~m.boundary_flags] += rng.uniform(-0.015, 0.015, size=(m.n_interior, 2))
    m = msh.Mesh(2, vertices, m.cells, m.boundary_flags, m.h)
    a, b, c = np.moveaxis(vertices[m.cells], 1, 0)
    perimeter = (np.linalg.norm(b - a, axis=-1) + np.linalg.norm(c - b, axis=-1)
                 + np.linalg.norm(a - c, axis=-1))
    area = np.abs(msh.cell_measures(m))
    want = msh.cell_diameters(vertices, m.cells) * perimeter / (4.0 * area)
    np.testing.assert_array_equal(msh.shape_ratios(m), want)
    np.testing.assert_array_equal(msh.shape_ratios(m, msh.cell_measures(m)), want)


def test_interval_shape_ratio_is_one():
    m = msh.generate_unit_interval(7)
    np.testing.assert_array_equal(msh.shape_ratios(m), np.ones(7))


@pytest.mark.parametrize(
    "n,cells",
    [
        (1, [[0, 1, 3], [0, 3, 2]]),
        (2, [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
             [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]]),
        (3, [[0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5], [2, 3, 7], [2, 7, 6],
             [4, 5, 9], [4, 9, 8], [5, 6, 10], [5, 10, 9], [6, 7, 11], [6, 11, 10],
             [8, 9, 13], [8, 13, 12], [9, 10, 14], [9, 14, 13], [10, 11, 15], [10, 15, 14]]),
    ],
)
def test_unit_square_cells_pinned(n, cells):
    # squares row by row from y = 0, each split into (ll, lr, ur) and (ll, ur, ul)
    np.testing.assert_array_equal(msh.generate_unit_square(n).cells, cells)


def test_refine_square_counts():
    m = msh.generate_unit_square(1)
    r = msh.refine_uniform(m)
    assert r.n_cells == 8
    assert r.n_vertices == 9
    msh.validate(r)


def test_refine_unit_square_one_pinned():
    # midpoints are numbered in order of first use, cell by cell, edge by edge
    r = msh.refine_uniform(msh.generate_unit_square(1))
    np.testing.assert_array_equal(
        r.vertices,
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0],
         [1.0, 0.5], [0.5, 0.5], [0.5, 1.0], [0.0, 0.5]],
    )
    np.testing.assert_array_equal(
        r.cells,
        [[0, 4, 6], [4, 1, 5], [6, 5, 3], [4, 5, 6],
         [0, 6, 8], [6, 3, 7], [8, 7, 2], [6, 7, 8]],
    )
    np.testing.assert_array_equal(r.boundary_flags, [1, 1, 1, 1, 1, 1, 0, 1, 1])


def test_refine_preserves_shape_ratio_exactly():
    m = msh.generate_unit_square(2)
    r = msh.refine_uniform(m)
    assert msh.shape_ratios(r).max() == msh.shape_ratios(m).max()


def test_refine_halves_h_exactly_for_dyadic_sizes():
    for n in (1, 2, 4, 8):
        m = msh.generate_unit_square(n)
        assert msh.refine_uniform(m).h == m.h / 2.0
    for n in (2, 4, 16):
        m = msh.generate_unit_interval(n)
        assert msh.refine_uniform(m).h == m.h / 2.0


def test_refine_diagonal_midpoint_stays_interior():
    # both endpoints of the diagonal of unit_square(1) are boundary vertices,
    # but the edge itself is interior, so its midpoint must stay unflagged
    m = msh.generate_unit_square(1)
    r = msh.refine_uniform(m)
    center = np.flatnonzero(
        (r.vertices[:, 0] == 0.5) & (r.vertices[:, 1] == 0.5)
    )
    assert center.size == 1
    assert not r.boundary_flags[center[0]]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=17), dim=st.sampled_from([1, 2]))
def test_refine_invariants_any_size(n, dim):
    m = msh.generate_unit_interval(n) if dim == 1 else msh.generate_unit_square(n)
    r = msh.refine_uniform(m)
    msh.validate(r)
    assert r.n_cells == m.n_cells * 2**dim
    assert r.h == pytest.approx(m.h / 2.0, rel=4e-16)
    assert np.abs(msh.cell_measures(r).sum() - 1.0) < 1e-12


def test_interior_dof_map():
    m = msh.generate_unit_interval(3)
    dof = msh.interior_dof_map(m)
    np.testing.assert_array_equal(dof, [msh.BOUNDARY, 0, 1, msh.BOUNDARY])


def test_interior_dof_map_counts_square():
    m = msh.generate_unit_square(8)
    dof = msh.interior_dof_map(m)
    assert (dof >= 0).sum() == 49
    assert sorted(dof[dof >= 0].tolist()) == list(range(49))


def test_mesh_arrays_are_read_only():
    m = msh.generate_unit_square(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 7.0


def test_validate_rejects_flipped_cell():
    m = msh.generate_unit_square(2)
    cells = m.cells.copy()
    cells[0] = cells[0][[0, 2, 1]]
    bad = msh.Mesh(2, m.vertices.copy(), cells, m.boundary_flags.copy(), m.h)
    with pytest.raises(msh.MeshError, match="orient"):
        msh.validate(bad)


def test_validate_rejects_duplicate_cell():
    m = msh.generate_unit_square(2)
    cells = np.vstack([m.cells, m.cells[:1]])
    bad = msh.Mesh(2, m.vertices.copy(), cells, m.boundary_flags.copy(), m.h)
    with pytest.raises(msh.MeshError):
        msh.validate(bad)


def test_validate_rejects_wrong_boundary_flags():
    m = msh.generate_unit_square(2)
    flags = m.boundary_flags.copy()
    flags[~flags] = True  # flag the interior vertex too
    bad = msh.Mesh(2, m.vertices.copy(), m.cells.copy(), flags, m.h)
    with pytest.raises(msh.MeshError, match="boundary"):
        msh.validate(bad)


def test_validate_rejects_sliver():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-4], [0.5, -1.0]])
    cells = np.array([[0, 1, 2], [1, 0, 3]])
    flags = np.ones(4, dtype=bool)
    m = msh.Mesh(2, verts, cells, flags, 2.0)
    with pytest.raises(msh.MeshError, match="shape"):
        msh.validate(m)


@pytest.mark.parametrize(
    "vertices,cells,fragment",
    [
        # unit square split on its diagonal, plus a third triangle on the diagonal
        ([[0, 0], [1, 0], [0, 1], [1, 1], [0.8, 0.2]],
         [[0, 1, 3], [0, 3, 2], [0, 4, 3]], "more than two"),
        ([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 3], [0, 3, 3]], "repeated vertex"),
        # two triangles on the same side of their shared edge 0-1
        ([[1, 1], [2, 1], [1.5, 2], [1.6, 1.8]], [[0, 1, 2], [0, 1, 3]], "overlap"),
        # the unit square plus a centre vertex that no cell uses
        ([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], [[0, 1, 2], [0, 2, 3]],
         "vertex 4 belongs to no cell"),
    ],
)
def test_validate_rejects_bad_connectivity(vertices, cells, fragment):
    verts = np.array(vertices, dtype=float)
    cells = np.array(cells)
    m = msh.Mesh(2, verts, cells, np.ones(len(verts), dtype=bool), 2.0)
    with pytest.raises(msh.MeshError, match=fragment):
        msh.validate(m)


def test_roundtrip_mesh_file(tmp_path):
    m = msh.generate_unit_square(3)
    path = tmp_path / "square.mesh"
    msh.write_mesh(m, path)
    back = msh.read_mesh(path)
    assert back.dim == m.dim
    np.testing.assert_array_equal(back.vertices, m.vertices)
    np.testing.assert_array_equal(back.cells, m.cells)
    np.testing.assert_array_equal(back.boundary_flags, m.boundary_flags)
    assert back.h == m.h


def test_read_mesh_fixes_orientation(tmp_path):
    m = msh.generate_unit_interval(2)
    path = tmp_path / "twist.mesh"
    with open(path, "w") as fh:
        fh.write("1 3 2\n")
        fh.write("0 1\n0.5 0\n1 1\n")
        fh.write("0 1\n2 1\n")  # second cell written right-to-left
    back = msh.read_mesh(path)
    assert (msh.cell_measures(back) > 0).all()
    np.testing.assert_array_equal(back.vertices, m.vertices)


def test_read_mesh_flips_before_building_its_one_mesh(tmp_path, monkeypatch):
    built = []
    make_mesh = msh._make_mesh

    def recording_make_mesh(*args):
        built.append(make_mesh(*args))
        return built[-1]

    monkeypatch.setattr(msh, "_make_mesh", recording_make_mesh)
    path = tmp_path / "twist.mesh"
    path.write_text("2 4 2\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0 1 2\n0 3 2\n")  # second cell clockwise
    back = msh.read_mesh(path)
    assert len(built) == 1 and built[0] is back
    np.testing.assert_array_equal(back.cells, [[0, 1, 2], [0, 2, 3]])


def test_read_mesh_rejects_truncated_file(tmp_path):
    path = tmp_path / "short.mesh"
    path.write_text("2 4 2\n0 0 1\n1 0 1\n")
    with pytest.raises(msh.MeshError, match="lines"):
        msh.read_mesh(path)


def jittered_square(n: int, rng) -> msh.Mesh:
    """The n x n unit square with each interior vertex moved by up to 0.15 h."""
    m = msh.generate_unit_square(n)
    vertices = m.vertices.copy()
    vertices[~m.boundary_flags] += rng.uniform(-0.15 / n, 0.15 / n, size=(m.n_interior, 2))
    return msh._make_mesh(2, vertices, m.cells, m.boundary_flags)


def assert_same_mesh(got: msh.Mesh, want: msh.Mesh) -> None:
    assert got.dim == want.dim and got.h == want.h
    for name in ("vertices", "cells", "boundary_flags"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("kind", ["square", "interval"])
def test_read_mesh_returns_the_written_mesh_bitwise(tmp_path, rng, kind):
    m = jittered_square(64, rng) if kind == "square" else msh.generate_unit_interval(97)
    msh.validate(m)
    path = tmp_path / "m.mesh"
    msh.write_mesh(m, path)
    assert_same_mesh(msh.read_mesh(path), m)


SQUARE_TEXT = "2 4 2\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0 1 2\n0 3 2\n"  # second cell clockwise


@pytest.mark.parametrize(
    "text",
    [
        SQUARE_TEXT.replace("\n", "\r\n"),
        SQUARE_TEXT.replace(" ", "\t"),
        SQUARE_TEXT.replace(" ", " \t  "),
        "".join(f"  {line} \t\n" for line in SQUARE_TEXT.splitlines()),
        "\n \n" + SQUARE_TEXT.replace("1 1\n0 1 2", "1 1\n\t\n\n0 1 2") + "\n\n",
        "\r\n" + SQUARE_TEXT.replace("\n", "\r\n\r\n").replace(" ", "\t "),
    ],
    ids=["crlf", "tabs", "runs", "padded", "blank-lines", "all"],
)
def test_read_mesh_accepts_any_whitespace_layout(tmp_path, text):
    plain, path = tmp_path / "plain.mesh", tmp_path / "variant.mesh"
    plain.write_text(SQUARE_TEXT)
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_mesh(msh.read_mesh(path), msh.read_mesh(plain))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("# a comment\n" + SQUARE_TEXT, "header must be"),
        (SQUARE_TEXT.replace("0 1 2\n", "# cells\n0 1 2\n"), "expected 7 lines, found 8"),
        (SQUARE_TEXT.replace("0 1 1\n", "0 1 1 # corner\n"), "vertex line 3 needs"),
        (SQUARE_TEXT + "0 1 2\n", "expected 7 lines, found 8"),
        (SQUARE_TEXT + "#\n", "expected 7 lines, found 8"),
    ],
    ids=["comment-header", "comment-line", "trailing-comment", "extra-line", "extra-comment"],
)
def test_read_mesh_has_no_comment_syntax(tmp_path, text, fragment):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(msh.MeshError, match=fragment):
        msh.read_mesh(path)


@pytest.mark.parametrize(
    "old,new,fragment",
    [
        # a shorter count wins over everything else wrong in the file
        ("2 4 2\n0 0 1\n", "2 4 3\n0 x 7\n", "expected 8 lines, found 7"),
        # token counts before numbers, the cell block's too
        ("1 1 1\n0 1 1\n0 1 2\n0 3 2", "1 1 x\n0 1 1\n0 1 2\n0 3", "cell line 1 needs 3 vertex"),
        # flags before coordinates, although the bad coordinate comes first
        ("0 0 1\n1 0 1", "0 x 1\n1 0 2", "bad boundary flag on vertex line 1: '1 0 2'"),
        ("1 0 1", "1 0 -1", "bad boundary flag on vertex line 1: '1 0 -1'"),
        ("0 1 1\n0", "0 1.0.0 1\n0", "bad vertex coordinate on vertex line 3: '0 1.0.0 1'"),
        # coordinates before indices
        ("1 1 1\n0 1 1\n0 1 2", "1 1e 1\n0 1 1\n0 1 x", "bad vertex coordinate on vertex line 2"),
        ("0 3 2", "0 3 2.0", "bad vertex index on cell line 1: '0 3 2.0'"),
        # numbers before the index range
        ("0 1 2\n0 3 2", "0 1 9\n0 3 +", "bad vertex index on cell line 1"),
        ("0 3 2", "0 3 99999999999999999999", "bad vertex index on cell line 1"),
    ],
    ids=["count", "width", "flag-first", "flag-negative", "coordinate", "coordinate-first",
         "index", "index-before-range", "index-overflow"],
)
def test_read_mesh_names_the_first_fault_in_order(tmp_path, old, new, fragment):
    assert old in SQUARE_TEXT
    path = tmp_path / "bad.mesh"
    path.write_text(SQUARE_TEXT.replace(old, new))
    with pytest.raises(msh.MeshError, match=fragment):
        msh.read_mesh(path)


def test_read_mesh_names_a_bad_line_deep_in_a_block(tmp_path, rng):
    path = tmp_path / "big.mesh"
    msh.write_mesh(jittered_square(32, rng), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1 + 700] = lines[1 + 700].replace(" ", " nan0 ", 1)
    path.write_text("".join(lines))
    with pytest.raises(msh.MeshError, match="vertex line 700 needs 2 coordinates"):
        msh.read_mesh(path)
    lines[1 + 700] = "0.5 0.5 x\n"
    path.write_text("".join(lines))
    with pytest.raises(msh.MeshError, match="bad boundary flag on vertex line 700: '0.5 0.5 x'"):
        msh.read_mesh(path)


def test_read_mesh_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.mesh"
    path.write_bytes(SQUARE_TEXT.replace("0 1 2", "0 1 2 \xe9").encode("latin-1"))
    with pytest.raises(msh.MeshError, match=r"latin1\.mesh: not UTF-8 text \(byte 0xe9"):
        msh.read_mesh(path)


def test_read_mesh_parses_in_a_few_times_the_file_size(tmp_path, rng, monkeypatch):
    # numpy reports its buffers to tracemalloc, so the peak is deterministic;
    # the token lists this replaces peaked at 18x the file
    path = tmp_path / "square.mesh"
    msh.write_mesh(jittered_square(64, rng), path)
    size = path.stat().st_size
    monkeypatch.setattr(msh, "validate", lambda mesh: None)
    _, peak, _ = oracles.traced_memory(msh.read_mesh, path)
    assert peak < 6 * size, f"{peak / size:.1f}x the file's {size} bytes"
