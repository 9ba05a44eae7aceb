"""Line coverage of `src/spreadcolor` under a pytest run, stdlib only.

Not a pytest module (the name does not match test_*.py), so tier-1 does
not collect it.  Run it from the repository root with pytest's own
arguments:

    PYTHONPATH=src python tests/scale_coverage.py tests/test_matching.py tests/test_clusters.py

It runs `pytest.main(argv)` in this process with a line tracer installed
through `sys.settrace` and `threading.settrace`, before the package is
imported, so module-level lines count too.  The executable lines of each
module under `src/spreadcolor` are the lines of its code objects (the
module's and every function's and class's within it), read with
`co_lines()`.  For each module the script prints the lines that never
ran, with `raise` before every line of a raise statement, then a total.
It exits with pytest's exit code.

Pool workers are not traced: code that runs only in a worker process
(`--jobs` above 1) is reported as never run.  So is code that runs only
while another tracer replaces this one.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "spreadcolor"


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of code's instructions and of its nested code objects'
    (a module's first instruction sits on line 0, which is left out)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def raise_lines(source: str) -> set[int]:
    """Every line that a raise statement spans."""
    return {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }


def run_traced(argv: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest.main(argv) under the line tracer: (exit code, lines run per module)."""
    hits: dict[Path, set[int]] = {}
    by_name: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = Path(name).resolve()
            by_name[name] = hits.setdefault(path, set()) if path.parent == PKG else None
        return local if by_name[name] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = int(pytest.main(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main(argv: list[str] | None = None) -> int:
    code, hits = run_traced(sys.argv[1:] if argv is None else argv)
    total = missed = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        never = sorted(lines - hits.get(path, set()))
        total += len(lines)
        missed += len(never)
        name = path.relative_to(PKG.parents[1])
        print(f"\n{name}: {len(never)} of {len(lines)} executable lines never ran")
        text = source.splitlines()
        raises = raise_lines(source)
        for line in never:
            tag = "raise" if line in raises else ""
            print(f"  {line:5d} {tag:5s}  {text[line - 1].strip()}")
    print(f"\n{missed} of {total} executable lines never ran; pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
