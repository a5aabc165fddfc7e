"""Every file write under ``src/repro`` sits inside a named funnel.

The crash-state enumerator (``test_crash_states.py``) checks the write
funnels it records; this scan keeps code written later from writing
around them.  A write-mode ``open``/``os.fdopen``/``os.open``,
``os.replace``/``os.rename``, ``shutil.move``, ``tempfile.mkstemp``,
``.truncate(`` or ``Path.write_text``/``write_bytes`` outside the
functions named in :data:`~tests.harness.recording_fs.FUNNELS` fails.
"""

import ast
from pathlib import Path

import repro
from tests.harness.recording_fs import FUNNELS

SRC = Path(repro.__file__).parent

_MODULE_CALLS = {
    ("os", "replace"), ("os", "rename"), ("shutil", "move"), ("tempfile", "mkstemp"),
}
_METHODS = {"truncate", "write_text", "write_bytes"}
_OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes_mode(mode: ast.expr | None) -> bool:
    """A mode argument that may write (a non-constant one might)."""
    if mode is None:
        return False
    if not isinstance(mode, ast.Constant):
        return True
    return isinstance(mode.value, str) and bool(set(mode.value) & set("wax+"))


def _is_write(call: ast.Call) -> str | None:
    """The name of the write ``call`` performs, or ``None``."""
    func = call.func
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if isinstance(func, ast.Name) and func.id == "open":
        return "open" if _writes_mode(call.args[1] if len(call.args) > 1 else mode) else None
    if not isinstance(func, ast.Attribute):
        return None
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    if (owner, func.attr) in _MODULE_CALLS:
        return f"{owner}.{func.attr}"
    if (owner, func.attr) == ("os", "fdopen"):
        return "os.fdopen" if _writes_mode(call.args[1] if len(call.args) > 1 else mode) else None
    if (owner, func.attr) == ("os", "open"):
        flags = {n.attr for n in ast.walk(call.args[1]) if isinstance(n, ast.Attribute)}
        return "os.open" if flags & _OS_WRITE_FLAGS else None
    if func.attr in _METHODS:
        return f".{func.attr}"
    if func.attr == "open" and any(  # Path.open("w")
        isinstance(a, ast.Constant) and _writes_mode(a) for a in [*call.args, mode]
    ):
        return ".open"
    return None


def writes(source: str, filename: str = "<src>") -> list[tuple[str, int, str]]:
    """``(owner, line, write)`` for every write call in ``source``; the
    owner is the outermost function, ``Class.method`` for a method."""
    found = []

    def visit(node, owner, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, child.name if owner is None else cls)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = owner or (f"{cls}.{child.name}" if cls else child.name)
                visit(child, name, cls)
            else:
                if isinstance(child, ast.Call) and (what := _is_write(child)):
                    found.append((owner or "<module>", child.lineno, what))
                visit(child, owner, cls)

    visit(ast.parse(source, filename), None, None)
    return found


def _src_writes():
    for path in sorted(SRC.rglob("*.py")):
        for owner, line, what in writes(path.read_text(), str(path)):
            yield f"{path.relative_to(SRC.parent)}:{line}", owner, what


def test_every_write_sits_in_a_funnel():
    stray = [f"{where}: {what} in {owner}" for where, owner, what in _src_writes() if owner not in FUNNELS]
    assert stray == []


def test_every_funnel_still_writes():
    """A funnel renamed or emptied would leave the enumerator checking
    nothing; the list and the code must name the same functions."""
    assert {owner for _, owner, _ in _src_writes()} == FUNNELS


def test_scan_flags_writes_outside_a_funnel():
    source = '''
import os, tempfile

def save(p):
    with open(p, "w") as fh:
        fh.write("x")

def publish(tmp, p):
    os.replace(tmp, p)

class Log:
    def cut(self, fh):
        fh.truncate(0)

    def dump(self, p):
        p.write_text("x")

def scratch(d):
    return tempfile.mkstemp(dir=d)

def raw(p):
    return os.open(p, os.O_WRONLY | os.O_CREAT)
'''
    assert {(owner, what) for owner, _, what in writes(source)} == {
        ("save", "open"),
        ("publish", "os.replace"),
        ("Log.cut", ".truncate"),
        ("Log.dump", ".write_text"),
        ("scratch", "tempfile.mkstemp"),
        ("raw", "os.open"),
    }


def test_scan_flags_shutil_move():
    source = '''
import shutil

def stash(path, target):
    shutil.move(str(path), str(target))
'''
    assert [(owner, what) for owner, _, what in writes(source)] == [("stash", "shutil.move")]


def test_scan_passes_read_only_opens():
    source = '''
import os

def load(p):
    with open(p) as fh:
        fh.read()
    with open(p, "rb") as fh:
        fh.read()
    with open(p, mode="r") as fh:
        fh.read()
    return os.open(p, os.O_RDONLY)
'''
    assert writes(source) == []
