"""Print each module's total and code-only line counts, and their sums.

A code-only line holds a token of code: blank lines, comments and
docstrings (the string that opens a module, class or function, found
with the AST) do not count. Run from the root of a checkout:

    python tools/loc.py [DIRECTORY]        (default: src/colprob)
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> tuple[int, int]:
    """The total and the code-only line count of one source file."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as source:
        code = {line for token in tokenize.tokenize(source.readline) if token.type not in SKIP
                for line in range(token.start[0], token.end[0] + 1)}
    return len(text.splitlines()), len(code - docstrings)


def main(directory: str = "src/colprob") -> None:
    rows = [(path.name, *counts(path)) for path in sorted(Path(directory).glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    main(*sys.argv[1:])
