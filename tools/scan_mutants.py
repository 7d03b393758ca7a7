"""Triage scan: generate the one-line mutants of a module and report which survive the given tests.

Each comparison is flipped at its bound (< and <=, > and >= swap) and each
integer constant gets + 1, one at a time. A mutant's old text is its line,
widened by the lines after it until it occurs once in the file, so that any
mutant printed here can be copied into tools/mutants.py as it stands. With
tests, each mutant runs as tools/mutants.py runs its own, one per usable
CPU, and the survivors are printed; that takes minutes for a module with
many mutants, so CI runs only the curated list in tools/mutants.py.

Usage: python tools/scan_mutants.py src/pacfusion/<module>.py [test file or node id ...]
"""

from __future__ import annotations

import ast
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from mutants import ROOT, run_mutant

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


def edits(tree: ast.AST):
    """(line number, byte start, byte end, (symbol, replacement)) of each mutation: the symbol in the span is replaced,
    or the whole span where the symbol is None. The offsets are into the line's UTF-8 bytes, as ast gives them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if type(op) in FLIPS and a.end_lineno == b.lineno:
                    yield a.end_lineno, a.end_col_offset, b.col_offset, FLIPS[type(op)]
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.lineno == node.end_lineno:
            yield node.lineno, node.col_offset, node.end_col_offset, (None, str(node.value + 1))


def one_line_mutants(source: str) -> list[tuple[int, str, str]]:
    """(line number, old text, new text) of every mutant of source, in line order."""
    lines = source.splitlines(keepends=True)
    mutants = []
    for lineno, start, end, (symbol, replacement) in sorted(edits(ast.parse(source)), key=lambda edit: edit[:2]):
        line = lines[lineno - 1].encode()
        span = line[start:end].decode().replace(symbol, replacement, 1) if symbol else replacement
        old, new, after = lines[lineno - 1], line[:start].decode() + span + line[end:].decode(), lineno
        while source.count(old) != 1:
            old, new, after = old + lines[after], new + lines[after], after + 1
        mutants.append((lineno, old, new))
    return mutants


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    path, tests = argv[0], argv[1:]
    mutants = one_line_mutants((ROOT / path).read_text())
    if not tests:
        for lineno, old, new in mutants:
            print(f"{path}:{lineno}: {old.strip()!r} -> {new.strip()!r}")
        return 0
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        outcomes = list(pool.map(lambda m: run_mutant(path, m[1], m[2], tests)[0], mutants))
    for (lineno, old, new), outcome in zip(mutants, outcomes):
        if outcome != "killed":
            print(f"{outcome:8} {path}:{lineno}: {old.strip()!r} -> {new.strip()!r}")
    print(f"{outcomes.count('survived')} of {len(mutants)} mutants survive {' '.join(tests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
