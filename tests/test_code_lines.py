"""``tools/code_lines.py``, the code-line count CI writes to its summary."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_are_not_code(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('''"""Module
docstring."""

# a comment
X = (1,
     2)  # trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a string
that is code"""
''')
    # X's two lines, class, def, and the return's two lines
    assert code_lines.code_lines(path) == 6


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("\n# c\ny = 2\nz = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     1 a.py\n     2 b.py\n     3 total\n"
