import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""
import math  # a comment after code counts


# a comment alone does not
def f(x):
    """A function docstring."""
    total = (x
             + 1)
    text = """a string that is no docstring
counts on every line"""
    return math.sqrt(total), text


class C:
    """A class docstring."""

    value = 1
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def, the two lines of `total`, the two of `text`, return, class, value
    assert load_code_lines().code_lines(FIXTURE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert load_code_lines().main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["9", "1", "10"]
