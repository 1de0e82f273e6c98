from pathlib import Path


def test_readme_python_api_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    gamma, residual, monotone = capsys.readouterr().out.split()
    assert float(gamma) > 0.0 and float(residual) < 1e-9 and monotone == "True"
