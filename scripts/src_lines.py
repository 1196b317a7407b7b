#!/usr/bin/env python3
"""Count the lines of each module of ``src/tropcount`` by kind.

Every line is one of four kinds: a docstring line (any line of a module,
class or function docstring, found with ``ast``), a blank line, a comment
line (a line holding only a comment, found with ``tokenize``), or a code
line (every other line, a code line with a trailing comment included). So
the four columns of a module sum to its plain line count. Prints one row
per module and a total row; takes no options.
"""
import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropcount"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_kinds(source: str) -> dict[str, int]:
    """The count of each kind of line in one module's source."""
    lines = source.splitlines()
    docstrings = docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstrings:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comments and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS) + f"{'lines':>11}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = line_kinds(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>11}" for kind in KINDS) + f"{sum(counts.values()):>11}")
    print(f"{'total':<16}" + "".join(f"{total[kind]:>11}" for kind in KINDS) + f"{sum(total.values()):>11}")


if __name__ == "__main__":
    main()
