"""The demos import only names that the package has; the toy demo, which
defines a trip sink, and the classic-statistics demo run."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "streamscale"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{path.name} imports {alias.name} from {node.module}"


def test_toy_demo_runs(capsys):
    runpy.run_path(str(DEMO_DIR / "01_toy_minimal_trips.py"), run_name="__main__")
    assert "  a->c departs 1 arrives 2 hops=2 occupancy=2/2\n" \
        in capsys.readouterr().out


def test_classic_demo_runs(capsys):
    runpy.run_path(str(DEMO_DIR / "06_classic_parameters.py"), run_name="__main__")
    assert "   15000        1.0   0.00067        1.12   2.560        278.9\n" \
        in capsys.readouterr().out
