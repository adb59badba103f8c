"""The package stays within a committed ceiling of code lines.

Lines are counted by ``tools/code_lines.py``: tokenize, without comments,
blank lines or docstrings.  A change that removes code lowers the
ceiling; one that must add code raises it, saying why.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the count of ``src/relkin`` when the ceiling was last set
CEILING = 1639


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_source_code_lines_stay_under_the_ceiling():
    counts = load_counter().count([ROOT / "src" / "relkin"])
    assert sum(counts.values()) <= CEILING, {path.name: lines for path, lines in counts.items()}


def test_the_counter_skips_comments_blank_lines_and_docstrings():
    source = '''"""Module docstring."""

# a comment
def f(x):
    """Docstring,
    over two lines."""
    y = (x +  # a trailing comment
         1)
    "a bare string statement"
    return f"{y}"
'''
    # def, the two lines of y and the return
    assert load_counter().code_lines(source) == 4
