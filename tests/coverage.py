"""Which lines of ``src/repvol`` the tier-1 tests never reach, with the
stdlib only.

Run from the repository root (it is not a test module, so pytest does
not collect it):

    PYTHONPATH=src python tests/coverage.py

It runs the tier-1 suite in this process under a ``sys.settrace`` line
collector and then lists each module's unreached lines.  A line whose
stripped source text is listed in ``EXCEPTIONS`` under its module may
stay unreached, for the reason given there.  Any other unreached line,
a failing suite, or a listed text that is reached now makes the exit
status 1.  Exceptions are keyed by text, not line number, so an edit
elsewhere in a module does not move them.  Lines run only in a child
process are not seen.  The tracer makes the suite two to three times
slower: about 100 s on Python 3.11 on a 2-CPU machine.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repvol"

CHILD = "reached only in a child process"
INVARIANT = "internal invariant: no input reaches it"

# module -> {stripped source text: why no in-process test reaches it}
EXCEPTIONS: dict[str, dict[str, str]] = {
    "cli.py": {
        "entry()": CHILD,
        'raise RuntimeError("oracle disagreement: brute-force window differs from enumeration")': INVARIANT,
        'raise RuntimeError("3-form minus its volume part is not exact")': INVARIANT,
        'raise RuntimeError("stated primitive does not verify")': INVARIANT,
        "raise RuntimeError(": INVARIANT,
        'f"3-form is {liecs.format_form(spec, form)}, "': INVARIANT,
        'f"expected {liecs.format_form(spec, expected)}"': INVARIANT,
    },
    "liecs.py": {
        'raise RuntimeError("primitive verification failed after solving")': INVARIANT,
        'raise RuntimeError(f"{kind} expansion e1, e2, e3 = {e1}, {e2}, {e3}; trace identity {expected}")': INVARIANT,
    },
}


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode in ``path``, from ``co_lines`` of
    each code object the module compiles to."""
    lines: set[int] = set()
    codes = [compile(path.read_text("utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def collect(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the line tracer: its exit
    code, and the lines reached in each file of ``PACKAGE``."""
    import pytest

    reached: dict[str, set[int]] = {}  # module file name -> its reached lines
    sets: dict[str, set[int] | None] = {}  # co_filename -> its module's set, None if not ours

    def local(frame, event, arg):
        if event == "line":
            sets[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in sets:
            path = Path(filename).resolve()
            sets[filename] = reached.setdefault(path.name, set()) if path.parent == PACKAGE else None
        lines = sets[filename]
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the def line, run at each call
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv: list[str]) -> int:
    code, reached = collect(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    failures = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text("utf-8").splitlines()
        allowed = EXCEPTIONS.get(path.name, {})
        unreached = sorted(executable_lines(path) - reached.get(path.name, set()))
        texts = {source[line - 1].strip() for line in unreached}
        for line in unreached:
            text = source[line - 1].strip()
            if text not in allowed:
                print(f"{path.relative_to(ROOT)}:{line}: unreached: {text}")
                failures += 1
        for text in sorted(set(allowed) - texts):
            print(f"{path.relative_to(ROOT)}: listed as unreached, but reached: {text}")
            failures += 1
    print(f"{failures} unexpected line(s); tier-1 exit code {code}")
    return 1 if failures or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
