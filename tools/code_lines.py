"""Print the size of the library: its code lines and its public names.

Code lines are the lines of ``src/ringspace/*.py`` that hold a token other
than a comment or a docstring.  One line per module gives its code lines,
so a change in size shows where it landed; the total and the count of
public names (``ringspace.__all__``) follow.  Run from anywhere:

    python tools/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
DOC_HOLDERS = (ast.Module, ast.ClassDef, ast.FunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    return {
        ln
        for node in ast.walk(tree)
        if isinstance(node, DOC_HOLDERS)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
        for ln in range(node.body[0].lineno, node.body[0].end_lineno + 1)
    }


def code_lines(text: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {
        ln
        for tok in tokens
        if tok.type not in SKIP
        for ln in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    sizes = {p.name: code_lines(p.read_text()) for p in sorted((src / "ringspace").glob("*.py"))}
    sys.path.insert(0, str(src))
    import ringspace

    for name, size in sizes.items():
        print(f"{name:<16}{size:>5}")
    print(f"code lines: {sum(sizes.values())}")
    print(f"public names: {len(ringspace.__all__)}")


if __name__ == "__main__":
    main()
