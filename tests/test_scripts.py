import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv,expected",
    [
        ("decay_study", ["--n", "4", "--k", "0.05", "--T", "1", "--eps", "0.5"], "gamma"),
    ],
)
def test_script_runs_on_small_mesh(name, argv, expected, capsys):
    assert load_script(name).main(argv) == 0
    assert expected in capsys.readouterr().out


def test_readme_python_api_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    gamma, residual, monotone = capsys.readouterr().out.split()
    assert float(gamma) > 0.0 and float(residual) < 1e-9 and monotone == "True"
