import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledwave import assembly, scheme
from coupledwave import mesh as msh
from coupledwave.cli import TABLE_HEADER, run_cli
from coupledwave.config import ConfigError, RunConfig, parse_config
from coupledwave.energy import EnergyTracker, LyapunovParams
from coupledwave.sparse_linalg import SolverConfig

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"

# the energy.csv header as the README documents it
README_ENERGY_HEADER = (
    "n,t,E,kinetic_u,kinetic_v,elastic_u,elastic_v,coupling,dE,identity_residual,lyapunov"
)


# --- config parsing ---------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config("mode = simulate\n")
    assert cfg == RunConfig(mode="simulate")
    assert cfg.rel_tol == 1e-12
    assert cfg.fit_window == 0.5


def test_comments_and_blank_lines():
    cfg = parse_config(
        """
        # a full-line comment
        mode = simulate
        k = 0.02   # trailing comment
        T = 1.0

        eps_u = 0.5
        """
    )
    assert cfg.k == 0.02 and cfg.eps_u == 0.5


# values each owner (SchemeParams, the initial presets, the MMS cases) rejects
OWNER_ERRORS = [
    ("mode = simulate\nT = 1e300\nk = 1e-10\n", "T/k is not finite", 3),
    ("mode = simulate\nc = 1e200\n", "c\\^2", 2),
    ("mode = simulate\nT = 1e-170\nk = 1e-170\n", "1/k\\^2", 3),
    # k^2 overflows, so 1/k^2 is 0 and the step would drop its M/k^2 term
    ("mode = simulate\nk = 1e200\nT = 2e200\ninitial = sine\n", "1/k\\^2 underflows to 0", 2),
    ("mode = convergence\nk = 1e200\nT = 2e200\n", "1/k\\^2 underflows to 0", 2),
    ("mode = simulate\nk = 0.1\neps_u = 1e308\n", "eps_u/k", 3),
    ("mode = simulate\nT = -1\n", "final time", 2),
    ("mode = simulate\ninitial = gaussian\n", "unknown initial preset", 2),
    ("mode = convergence\ncase = ripple\n", "unknown manufactured case", 2),
    # c^2 is finite, but the manufactured source coefficient 2 (1 + pi^2 c^2) is not
    ("mode = convergence\ndomain = interval\nn_per_side = 4\ncase = separable-decay-1d\n"
     "c = 4e153\nk = 0.1\nT = 0.2\nlevels = 3\n", "c = 4e\\+153 is out of range", 5),
    ("mode = convergence\nk = 1\nT = 1\neps_v = 1e308\n", "eps_v = 1e\\+308 is out of range", 4),
    ("mode = convergence\nk = 1\nT = 1\neps_u = 1.7e308\nalpha = 1e308\n",
     "eps_u = 1.7e\\+308 is out of range", 4),
]


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("mode = simulate\nwavelength = 3\n", "unknown key", 2),
        ("mode = simulate\nmode = convergence\n", "duplicate", 2),
        ("mode = simulate\neps_u = -1\n", "eps_u", 2),
        ("mode = simulate\nk = 0.0\n", "k", 2),
        ("mode = simulate\nn_per_side = 4.5\n", "integer", 2),
        ("mode = simulate\nc = fast\n", "number", 2),
        ("mode = simulate\njust words\n", "key = value", 2),
        ("mode = simulate\nk = 0.3\nT = 1.0\n", "does not divide", 2),
        ("mode = orbit\n", "mode must be one of", 1),
        ("mode = simulate\ndomain = cube\n", "domain", 2),
        ("mode = simulate\nfit_window = 0\n", "fit_window", 2),
        ("mode = convergence\nlevels = 2\n", "levels", 2),
        ("mode = simulate\nlyapunov_beta = 1.0\n", "together", 2),
        ("mode = simulate\nmethod = qr\n", "method", 2),
        ("mode = simulate\nk = nan\n", "finite", 2),
        ("mode = simulate\nT = inf\n", "finite", 2),
        ("mode = simulate\nc = nan\n", "finite", 2),
        ("mode = simulate\nalpha = inf\n", "finite", 2),
        ("mode = simulate\neps_u = nan\n", "finite", 2),
    ] + OWNER_ERRORS,
)
def test_config_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_config(text)
    assert err.value.line == line


def test_names_of_ignored_keys_are_not_checked():
    assert parse_config("mode = convergence\ninitial = gaussian\n").initial == "gaussian"
    assert parse_config("mode = simulate\ncase = ripple\n").case == "ripple"


def test_missing_mode_is_an_error():
    with pytest.raises(ConfigError, match="missing required key 'mode'"):
        parse_config("k = 0.01\nT = 1.0\n")


def test_decay_study_requires_lyapunov_weights():
    with pytest.raises(ConfigError, match="decay-study"):
        parse_config("mode = decay-study\n")
    cfg = parse_config(
        "mode = decay-study\nlyapunov_n_weight = 8\nlyapunov_beta = 0.5\n"
    )
    assert cfg.lyapunov_n_weight == 8.0


_EXTREME_VALUES = st.one_of(
    st.sampled_from(["1e300", "-1e300", "1e-300", "5e-324", "-0.0", "0", "nan", "inf",
                     "-inf", "1e308", "1e-170", "2.2250738585072014e-308"]),
    st.floats().map(repr),
    st.integers(-10**400, 10**400).map(str),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(("simulate", "convergence", "decay-study")),
    pairs=st.dictionaries(
        st.sampled_from([f.name for f in fields(RunConfig) if f.name != "mode"]),
        _EXTREME_VALUES,
        max_size=6,
    ),
)
def test_any_config_text_parses_or_raises_config_error(mode, pairs):
    text = f"mode = {mode}\n" + "".join(f"{key} = {value}\n" for key, value in pairs.items())
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert cfg.scheme_params.M_steps >= 1
    assert cfg.solver_config.method == cfg.method
    assert (cfg.lyapunov_params is None) == (cfg.lyapunov_n_weight is None)


# --- CLI end to end ---------------------------------------------------------


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SINE_CONFIG = (
    "mode = simulate\ndomain = square\nn_per_side = 4\n"
    "k = 0.05\nT = 0.5\neps_u = 0.5\neps_v = 0.25\ninitial = sine\n"
)


def test_zero_run_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "mode = simulate\nn_per_side = 4\nk = 0.1\nT = 0.5\n")
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    assert lines[0] == README_ENERGY_HEADER
    assert f"\n{README_ENERGY_HEADER}\n" in README.read_text(encoding="utf-8")
    assert len(lines) == 6  # header + M_steps levels
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 11
        assert float(fields[2]) == 0.0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["monotone"] is True
    assert summary["final_energy"] == 0.0
    assert summary["fitted_gamma"] is None
    assert summary["max_identity_residual"] == 0.0
    assert "wrote" in capsys.readouterr().out


def test_sine_run_summary_and_formatting(tmp_path):
    cfg = write_config(tmp_path, SINE_CONFIG)
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    # t of the first record is k, rendered at 17 significant digits
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == f"{0.05:.17g}"
    energies = [float(r.split(",")[2]) for r in lines[1:]]
    assert energies[0] > 0.0
    assert all(b <= a + 1e-12 * energies[0] for a, b in zip(energies, energies[1:]))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["monotone"] is True
    assert summary["max_identity_residual"] < 1e-10
    assert summary["fitted_gamma"] > 0.0


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, SINE_CONFIG)
    for d in ("a", "b"):
        assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / d), "--quiet"]) == 0
    for name in ("energy.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, SINE_CONFIG)
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_decay_study_mode(tmp_path):
    cfg = write_config(
        tmp_path,
        "mode = decay-study\nn_per_side = 4\nk = 0.05\nT = 1.0\n"
        "eps_u = 0.5\neps_v = 0.5\ninitial = sine\n"
        "lyapunov_n_weight = 10\nlyapunov_beta = 0.5\n",
    )
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fitted_gamma"] > 0.0
    rows = (out / "energy.csv").read_text().splitlines()[1:]
    # Lyapunov column must dominate the pure-energy column by roughly N_weight
    e_col = np.array([float(r.split(",")[2]) for r in rows])
    l_col = np.array([float(r.split(",")[10]) for r in rows])
    assert (l_col > 5.0 * e_col).all()


def test_energy_rows_equal_the_api_records(tmp_path):
    # one decay study through the CLI and through the Python API
    cfg = write_config(
        tmp_path,
        "mode = decay-study\ndomain = square\nn_per_side = 4\n"
        "c = 1.0\neps_u = 0.5\neps_v = 0.25\nalpha = 1.0\nk = 0.05\nT = 1.0\n"
        "initial = sine\nrel_tol = 1e-12\nlyapunov_n_weight = 10\nlyapunov_beta = 0.5\n",
    )
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    m = msh.generate_unit_square(4)
    mass, stiff = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.05, T=1.0)
    tracker = EnergyTracker(mass, stiff, p, LyapunovParams(N_weight=10.0, beta=0.5))
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"),
               config=SolverConfig(rel_tol=1e-12), observer=tracker)
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[0] == README_ENERGY_HEADER
    assert len(lines) - 1 == len(tracker.records) == p.M_steps
    for row, rec in zip(lines[1:], tracker.records):
        expected = [rec.n, rec.t, rec.E, rec.kinetic_u, rec.kinetic_v, rec.elastic_u,
                    rec.elastic_v, rec.coupling, rec.dE, rec.identity_residual, rec.lyapunov]
        assert [float(x) for x in row.split(",")] == expected
    assert tracker.records[-1].lyapunov != tracker.records[-1].E


def test_decay_study_zero_energy_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "mode = decay-study\nn_per_side = 3\nk = 0.1\nT = 0.5\n"
        "lyapunov_n_weight = 5\nlyapunov_beta = 0.5\n",
    )
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
    assert "decay fit impossible" in capsys.readouterr().err


def test_convergence_mode_table(tmp_path):
    cfg = write_config(
        tmp_path,
        "mode = convergence\ndomain = interval\nn_per_side = 8\nlevels = 3\n"
        "case = separable-decay-1d\nk = 0.1\nT = 1.0\neps_u = 0.5\neps_v = 0.25\n",
    )
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == TABLE_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "nan"
    errors = [float(r.split(",")[3]) for r in lines[1:]]
    assert errors == sorted(errors, reverse=True)
    orders = [float(r.split(",")[4]) for r in lines[2:]]
    assert all(o > 0.9 for o in orders)


def test_closing_lines_name_the_solver_start(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, SINE_CONFIG)
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "a")]) == 0
    assert "solver start: dense inverse (2 blocks of N = 9)\n" in capsys.readouterr().out
    monkeypatch.setattr(scheme, "DENSE_START_MAX_N", 8)
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "b")]) == 0
    assert "solver start: projected (2 blocks of N = 9)\n" in capsys.readouterr().out
    # the route is reported, never written: the files keep their layout
    for name in ("energy.csv", "summary.json"):
        assert "start" not in (tmp_path / "a" / name).read_text()
    levels = write_config(
        tmp_path,
        "mode = convergence\ndomain = interval\nn_per_side = 8\nlevels = 3\n"
        "case = separable-decay-1d\nk = 0.1\nT = 1.0\n", name="levels.cfg",
    )
    # N = 7, 15, 31 across the levels, against the bound of 8 still in place
    assert run_cli(["--config", levels, "--out-dir", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert "solver start, level 0: dense inverse (2 blocks of N = 7)\n" in out
    assert "solver start, level 2: projected (2 blocks of N = 31)\n" in out


def test_domain_from_mesh_file(tmp_path):
    mesh_path = tmp_path / "square.mesh"
    msh.write_mesh(msh.generate_unit_square(3), mesh_path)
    cfg = write_config(
        tmp_path,
        f"mode = simulate\ndomain = file:{mesh_path}\nk = 0.1\nT = 0.5\ninitial = sine\n",
    )
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0


def test_exit_code_bad_arguments(capsys):
    assert run_cli([]) == 1
    capsys.readouterr()


def test_exit_code_unreadable_config(tmp_path, capsys):
    assert run_cli(["--config", str(tmp_path / "missing.cfg")]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "mode = simulate\neps_u = -2\n")
    assert run_cli(["--config", cfg]) == 1
    assert "line 2" in capsys.readouterr().err


def test_exit_code_nonfinite_config_value(tmp_path, capsys):
    cfg = write_config(tmp_path, "mode = simulate\nc = nan\n")
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "o" / "summary.json").exists()


@pytest.mark.parametrize("text,fragment,line", OWNER_ERRORS)
def test_exit_code_owner_rejects_config_value(tmp_path, capsys, text, fragment, line):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert run_cli(["--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "Warning" not in err
    assert not out.exists()


def test_exit_code_nonfinite_lyapunov_value(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "mode = decay-study\nn_per_side = 4\nk = 0.1\nT = 1\ninitial = sine\n"
        "lyapunov_n_weight = 1e308\nlyapunov_beta = 1\n",
    )
    out = tmp_path / "o"
    assert run_cli(["--config", cfg, "--out-dir", str(out)]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,fragment",
    [
        # c^2 K overflows on the 1000-cell interval although c^2 is finite
        ("mode = simulate\ndomain = interval\nn_per_side = 1000\nc = 1.3e154\n"
         "initial = sine\n", "c = 1.3e+154 is out of range"),
        # a convergence study with the same c fails earlier, on its manufactured source
        ("mode = convergence\ndomain = interval\ncase = separable-decay-1d\nc = 1e154\n"
         "k = 0.1\nT = 0.2\nlevels = 3\n", "c = 1e+154 is out of range"),
        # every input is finite, but at refinement level 2 the row sums of the
        # step matrix are not, so CG's products overflow (its norms alone do
        # not: they are taken safely, and level 1 solves)
        ("mode = convergence\ndomain = interval\nn_per_side = 4\ncase = separable-decay-1d\n"
         "c = 2e153\neps_u = 0.5\neps_v = 0.25\nalpha = 1.0\nk = 0.1\nT = 0.2\nlevels = 3\n",
         "refinement level 2: advancing to level 2 (t = 0.05) failed: the solve overflowed"),
        # the MMS error composite of the startup level overflows although each
        # error is finite: the Taylor start u + k u_t leaves errors of order k
        ("mode = convergence\nk = 1e154\nT = 4e154\nlevels = 3\nn_per_side = 2\n",
         "refinement level 0: k = 1e+154 is out of range: the MMS error composite at time "
         "level 1 is not finite"),
        # at level 4 the right-hand side is near 1e-295 and c^2 K near 1e300, so
        # CG's preconditioned residual underflows to 0 from the (zero) dense start
        ("mode = simulate\nn_per_side = 4\nc = 1e150\neps_u = 0.5\neps_v = 0.25\nk = 0.01\n"
         "T = 0.05\ninitial = sine\n",
         "advancing to level 4 (t = 0.04) failed: the solve underflowed at iteration 1"),
    ],
)
def test_exit_code_overflow_in_step_system(tmp_path, capsys, text, fragment):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    code = run_cli(["--config", cfg, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert fragment in err and "Traceback" not in err and "solver failed" not in err
    assert "Warning" not in err
    assert not out.exists()


def test_exit_code_missing_mesh_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "mode = simulate\ndomain = file:/nope/none.mesh\n")
    assert run_cli(["--config", cfg]) == 3
    capsys.readouterr()


VERTICES = "0 0 1\n1 0 1\n1 1 1\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2 3 1\n" + VERTICES + "0 1 1\n", "repeated vertex"),
        ("2 3 1\n" + VERTICES + "1 7\n", "cell line 0 needs 3 vertex indices"),
        ("2 3 1\n" + VERTICES + "1 7 2\n", "vertex that does not exist (3 vertices)"),
        ("2 3 1\n" + VERTICES + "0 -1 2\n", "refers to a vertex that does not exist"),
        ("2 3\n" + VERTICES + "0 1 2\n", "header must be 'dim n_vertices n_cells'"),
        ("0 3 1\n0\n1\n1\n0\n", "dimension 1 or 2 and positive counts"),
        ("3 3 1\n0 0 0 1\n1 0 0 1\n1 1 0 1\n0 1 2 0\n", "dimension 1 or 2 and positive counts"),
        ("2 -3 1\n" + VERTICES + "0 1 2\n", "dimension 1 or 2 and positive counts"),
        ("2 3 0\n" + VERTICES, "dimension 1 or 2 and positive counts"),
        ("2 3 1\n0 0 0.5\n1 0 1\n1 1 1\n0 1 2\n", "bad boundary flag"),
        ("2 3 1\n0 0 1\n1 1\n1 1 1\n0 1 2\n", "vertex line 1 needs 2 coordinates and a flag"),
        ("2 3 1\n0 zero 1\n1 0 1\n1 1 1\n0 1 2\n", "bad vertex coordinate"),
        ("2 3 1\n" + VERTICES + "0 1 x\n", "bad vertex index"),
    ],
    ids=["repeated-vertex", "cell-width", "index-too-large", "index-negative", "short-header",
         "dim-0", "dim-3", "negative-count", "no-cells", "fractional-flag", "vertex-width",
         "bad-coordinate", "bad-index"],
)
def test_exit_code_bad_mesh_file(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.mesh"
    bad.write_text(text)
    cfg = write_config(tmp_path, f"mode = simulate\ndomain = file:{bad}\n")
    assert run_cli(["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err


def test_exit_code_solver_failure(tmp_path, capsys, projected_start):
    cfg = write_config(
        tmp_path,
        SINE_CONFIG + "max_iter = 1\nrel_tol = 1e-14\n",
    )
    assert run_cli(["--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert "solver failed" in capsys.readouterr().err


def test_exit_code_empty_system(tmp_path, capsys):
    cfg = write_config(tmp_path, "mode = simulate\nn_per_side = 1\nk = 0.1\nT = 0.5\n")
    assert run_cli(["--config", cfg]) == 1
    assert "interior" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, "mode = simulate\nn_per_side = 3\nk = 0.1\nT = 0.3\n")
    # the child process imports the package from this checkout, installed or not
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "coupledwave", "--config", cfg,
         "--out-dir", str(tmp_path / "o"), "--quiet"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "energy.csv").exists()


def test_cli_import_leaves_scipy_linalg_unloaded():
    # only the Cholesky route needs scipy.linalg; the CG path never loads it.
    # scipy.sparse.linalg (about 9 MB resident) stays unloaded too: the dense
    # start's inverses come from numpy alone
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    code = ("import sys, coupledwave.cli; "
            "print(any(m in sys.modules for m in ('scipy.linalg', 'scipy.sparse.linalg')))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
