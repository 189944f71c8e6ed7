#!/usr/bin/env python3
"""Print the size of each module in src/adn_consensus/ and the totals.

Two numbers per module: physical lines, and statements, counted as the
``ast.stmt`` nodes of its syntax tree less the module, class and function
docstrings. Standard library only.

Usage: python scripts/src_size.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "adn_consensus"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def size(path: Path) -> tuple:
    """(lines, statements) of one source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    docs = sum(
        isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None
        for node in ast.walk(tree)
    )
    return len(text.splitlines()), stmts - docs


def main():
    total_lines = total_stmts = 0
    print(f"{'module':<16}{'lines':>7}{'stmts':>7}")
    for path in sorted(SRC.glob("*.py")):
        lines, stmts = size(path)
        total_lines += lines
        total_stmts += stmts
        print(f"{path.name:<16}{lines:>7}{stmts:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_stmts:>7}")


if __name__ == "__main__":
    main()
