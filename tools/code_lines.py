"""Count the code lines of each module in src/mc_lab.

A code line holds at least one token that is not a comment and not part
of a docstring; blank lines do not count.  Run from anywhere:

    python tools/code_lines.py
"""

import ast
import tokenize
from pathlib import Path

SKIP = {
    tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def main() -> None:
    src = Path(__file__).resolve().parent.parent / "src" / "mc_lab"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main()
