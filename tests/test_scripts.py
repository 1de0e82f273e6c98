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
