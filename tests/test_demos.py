"""Each walkthrough in ``demos/`` and the README's library sketch runs to
completion and prints what it printed when written."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _run(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, capsys):
    assert _run(name, capsys)


def test_single_tank_demo_reduces_to_two_states(capsys):
    out = _run("01_single_tank_reduction.py", capsys)
    assert "induced supervisor: 2 states" in out.splitlines()
    assert ("The merge heuristic finds the same reduction automatically: "
            "4 -> 2 states (2 unions examined).") in out.splitlines()


def test_finest_supervisor_demo_characterises_states(capsys):
    out = _run("02_finest_supervisor.py", capsys).splitlines()
    start = out.index("finest supervisor: 4 states") + 1
    assert out[start:start + 4] == [
        "  (0,z0): enables ['hL', 'hM'], disables []",
        "  (1,z1)+(2,z1): enables ['hL', 'hM', 'qo0', 'qo1'], disables []",
        "  (4,z2)+(5,z2): enables ['hH', 'hL', 'hM', 'qo0', 'qo1'], disables []",
        "  (6,z3)+(8,z3): enables ['hH', 'hM', 'qo1'], disables ['qo0']",
    ]


def test_readme_library_sketch_runs(monkeypatch, capsys):
    """The README's ```python block under "Library sketch", run from the
    repository root."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(sketch, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.splitlines() == ["['qo0']", "False", "6", "(True, None)"]
