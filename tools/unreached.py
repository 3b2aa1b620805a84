"""List the src/ statements that no process of the tier-1 suite executes.

Usage: python tools/unreached.py

Runs the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`
from the repository root) with a stdlib line tracer in every Python
process it starts: a sitecustomize.py on PYTHONPATH turns sys.settrace
on for the frames of src/cuspspec at start-up, so the CLI processes that
the tests spawn are traced too, and each process writes the lines it ran
to a file when it exits.  A statement is reached when any of its lines
ran.  Each unreached statement is printed as path:line and its first
line of source; one inside an unreached statement is not listed again.
The exit code is pytest's.
"""

import ast
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "cuspspec"

# started in every traced process; os, sys and atexit only, so the
# modules a test sees loaded are those it would see untraced
SITECUSTOMIZE = """\
import atexit, os, sys

_package = {package!r} + os.sep
_out = {out!r}
_ran = set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_package) else None


def _write():
    sys.settrace(None)
    name = os.path.join(_out, "%d-%s.lines" % (os.getpid(),
                                               os.urandom(4).hex()))
    with open(name, "w") as f:
        f.writelines("%s\\t%d\\n" % fl for fl in _ran)


atexit.register(_write)
sys.settrace(_call)
"""


def ran_lines(out):
    ran = {}
    for name in os.listdir(out):
        if name.endswith(".lines"):
            with open(os.path.join(out, name)) as f:
                for row in f:
                    path, line = row.rstrip("\n").split("\t")
                    ran.setdefault(path, set()).add(int(line))
    return ran


def is_docstring(node, parent):
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body and parent.body[0] is node
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unreached(node, ran):
    """The outermost statements below node none of whose lines ran."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield from unreached(child, ran)
        elif isinstance(child, ast.stmt) and not is_docstring(child, node):
            first = min([child.lineno] + [d.lineno for d in getattr(
                child, "decorator_list", ())])
            if ran.isdisjoint(range(first, child.end_lineno + 1)):
                yield child
            else:
                yield from unreached(child, ran)


def main():
    with tempfile.TemporaryDirectory() as out:
        with open(os.path.join(out, "sitecustomize.py"), "w") as f:
            f.write(SITECUSTOMIZE.format(package=str(PACKAGE), out=out))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [out, str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        rc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors"], cwd=ROOT, env=env).returncode
        ran = ran_lines(out)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for stmt in unreached(ast.parse(source), ran.get(str(path), set())):
            print("%s:%d: %s" % (path.relative_to(ROOT), stmt.lineno,
                                 lines[stmt.lineno - 1].strip()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
