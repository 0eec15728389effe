"""Count the code lines of each module in a package directory, as wc -l lays
out its line counts: one "count name" line per module, then the total.

    python tools/code_lines.py [DIR]     # default: src/gue_gap_lab

A code line is one that holds a token other than a comment, that is, not
blank and not only a comment, and is not part of a module, class or
function docstring.  A statement or string spanning several lines counts
each of them.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.ENCODING,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT / "src" / "gue_gap_lab"
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
