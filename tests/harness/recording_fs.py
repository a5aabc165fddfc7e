"""A recording file-system seam and the crash states of what it records.

Only ``repro/harness/store.py`` and ``repro/nvct/journal.py`` open files
for writing (``test_write_funnels.py`` keeps it that way).  While
:meth:`RecordingFS.recording` is active, the names those two modules
call — ``open``, ``os.open``/``fdopen``/``fsync``/``replace``/``unlink``,
``tempfile.mkstemp`` and ``shutil.move`` — act on the real disk and log
one :class:`Op` per create, write, truncate, fsync, rename, unlink and
directory fsync under the root.  Every call of a write funnel (see
:data:`FUNNELS`) is logged as a :class:`Call` spanning its ops, and
:meth:`RecordingFS.fail` makes a chosen op raise ``OSError`` instead.

:func:`crash_states` replays the log.  A crash before op ``k`` keeps
every op before ``k`` that was made durable and chooses for the rest:

* a write or truncate is durable once its file is fsync'd; an
  un-fsynced one is kept, dropped, or (a write) torn at a seeded offset;
* a create, rename or unlink is durable once the directory holding the
  (destination) entry is fsync'd; metadata reaches the disk in program
  order, so a crash drops a suffix of the un-synced ones.

Directories count as durable once made: ``mkdir`` is not logged, and
``atomic_write_bytes`` fsyncs only a file's own parent, never a new
ancestor's (a cache shard ``aa/``, ``quarantine/``).  This is the ext4
ordered-data-mode assumption: its journal commits metadata in order, so
the fsync that makes a file or its directory entry durable also commits
the earlier ``mkdir`` of every directory on its path.  On a file system
without that ordering a crash could lose a fresh directory with its
entries; for the artifact cache that is a miss, not a wrong result.
Deletions outside the two modules (the scheduler's ``Path.unlink`` of a
published store) are not logged either.

:func:`funnel_violations` is Silhouette's pre-or-post rule applied per
funnel call: a crash while the call runs must leave its target in the
state before or after the call, and a crash after it returned must
leave the state after it (until the next call on the same target).
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import os
import random
import shutil
import stat
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import pytest

from repro.harness import store
from repro.harness.store import QUARANTINE_DIRNAME
from repro.nvct import journal
from repro.nvct.journal import SealedJournal, scan_journal

#: Every function under ``src/repro`` that may open a file for writing,
#: truncate, rename or move one.  All but the doctor's writability probe
#: (which keeps nothing) are recorded as :class:`Call`\ s.
FUNNELS = frozenset({
    "atomic_write_bytes",
    "quarantine_file",
    "repair_journal",
    "_check_writable",
    "SealedJournal.create",
    "SealedJournal._reopen",
    "SealedJournal._append",
})

_JOURNAL_FUNNELS = ("SealedJournal.create", "SealedJournal._append")
_TAIL_FUNNELS = ("SealedJournal._reopen", "repair_journal")


@dataclass(frozen=True)
class Op:
    """One logged operation; paths are relative to the recording root."""

    kind: str  # create | write | truncate | fsync | rename | unlink | dirsync
    path: str  # rename: the source; dirsync: the directory
    ino: int = -1
    offset: int = 0  # write: file offset; truncate: the new size
    data: bytes = b""
    dst: str = ""  # rename only

    @property
    def entry_dir(self) -> str:
        """The directory whose fsync makes this create/rename/unlink durable."""
        return os.path.dirname(self.dst if self.kind == "rename" else self.path)

    def __str__(self) -> str:
        detail = {
            "write": f" {len(self.data)}B @{self.offset}",
            "truncate": f" to {self.offset}",
            "rename": f" -> {self.dst}",
        }.get(self.kind, "")
        return f"{self.kind} {self.path}{detail}"


@dataclass
class Call:
    """One funnel call: ops ``[start, end)`` of the log are its own."""

    funnel: str
    path: str
    start: int
    end: int = -1
    target: str = ""  # quarantine_file: where the record went


class _Proxy:
    """A module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _RecordingFile:
    """A writable file handle that logs its writes and truncates."""

    def __init__(self, fs: "RecordingFS", fh, ino: int):
        self._fs, self._fh, self._ino = fs, fh, ino

    def write(self, data) -> int:
        path = self._fs._where[self._ino]
        self._fs._gate("write", path)
        offset = self._fh.tell()
        n = self._fh.write(data)
        self._fs.ops.append(Op("write", path, self._ino, offset, bytes(data)))
        return n

    def truncate(self, size: int | None = None) -> int:
        path = self._fs._where[self._ino]
        self._fs._gate("truncate", path)
        size = self._fh.tell() if size is None else size
        out = self._fh.truncate(size)
        self._fs.ops.append(Op("truncate", path, self._ino, size))
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class RecordingFS:
    """Log the file-system ops of the write funnels under ``root``."""

    def __init__(self, root: str | Path):
        self.root = str(Path(root).absolute())
        self.ops: list[Op] = []
        self.calls: list[Call] = []
        self._faults: list[Callable[[str, str], bool]] = []
        self._inos: dict[tuple[int, int], int] = {}  # (st_dev, st_ino) -> inode id
        self._where: dict[int, str] = {}  # inode id -> its current path
        self._dirfds: dict[int, str] = {}
        self._active: set[str] = set()

    # -- faults ----------------------------------------------------------------

    def fail(self, kind: str, path: str = "", skip: int = 0, times: int = 1) -> None:
        """Raise ``OSError(EIO)`` instead of performing ops of ``kind``
        (``read`` included) on paths ending in ``path``: the
        ``skip + 1``-th through ``skip + times``-th such op fail."""
        seen = 0

        def fault(op_kind: str, rel: str) -> bool:
            nonlocal seen
            if op_kind != kind or not rel.endswith(path):
                return False
            seen += 1
            return skip < seen <= skip + times

        self._faults.append(fault)

    def _gate(self, kind: str, rel: str) -> None:
        if any([fault(kind, rel) for fault in self._faults]):
            raise OSError(errno.EIO, f"injected {kind} failure", rel)

    # -- bookkeeping -------------------------------------------------------------

    def _rel(self, path) -> str | None:
        if not isinstance(path, (str, os.PathLike)):
            return None
        path = os.path.abspath(os.fspath(path))
        if path == self.root:
            return ""
        if path.startswith(self.root + os.sep):
            return path[len(self.root) + 1 :]
        return None

    def _ino(self, fd: int) -> int | None:
        st = os.fstat(fd)
        return self._inos.get((st.st_dev, st.st_ino))

    def _ino_of(self, path) -> int:
        st = os.stat(path)
        ino = self._inos.get((st.st_dev, st.st_ino))
        assert ino is not None, f"{path} predates the recording (write it with inject)"
        return ino

    def _create(self, fd: int, rel: str) -> int:
        st = os.fstat(fd)
        ino = len(self._where)
        self._inos[(st.st_dev, st.st_ino)] = ino
        self._where[ino] = rel
        self.ops.append(Op("create", rel, ino))
        return ino

    def _renamed(self, ino: int, src: str, dst: str) -> None:
        self.ops.append(Op("rename", src, ino, dst=dst))
        self._where[ino] = dst

    # -- the patched names -----------------------------------------------------------

    def _open(self, file, mode="r", *args, **kwargs):
        rel = self._rel(file)
        if rel is None or not set(mode) & set("wax+"):
            return builtins.open(file, mode, *args, **kwargs)
        existed = os.path.exists(file)
        self._gate("open", rel)
        fh = builtins.open(file, mode, *args, **kwargs)
        if not existed:
            return _RecordingFile(self, fh, self._create(fh.fileno(), rel))
        ino = self._ino_of(file)
        if "w" in mode:
            self.ops.append(Op("truncate", rel, ino, 0))
        return _RecordingFile(self, fh, ino)

    def _fdopen(self, fd: int, mode="r", *args, **kwargs):
        fh = os.fdopen(fd, mode, *args, **kwargs)
        ino = self._ino(fd)
        if ino is None or not set(mode) & set("wax+"):
            return fh
        return _RecordingFile(self, fh, ino)

    def _os_open(self, path, flags, *args, **kwargs) -> int:
        fd = os.open(path, flags, *args, **kwargs)
        rel = self._rel(path)
        if rel is not None and os.path.isdir(path):
            self._dirfds[fd] = rel
        return fd

    def _os_close(self, fd: int) -> None:
        self._dirfds.pop(fd, None)
        os.close(fd)

    def _fsync(self, fd: int) -> None:
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            rel = self._dirfds.get(fd)
            if rel is not None:
                self._gate("dirsync", rel)
            os.fsync(fd)
            if rel is not None:
                self.ops.append(Op("dirsync", rel))
            return
        ino = self._ino(fd)
        if ino is not None:
            self._gate("fsync", self._where[ino])
        os.fsync(fd)
        if ino is not None:
            self.ops.append(Op("fsync", self._where[ino], ino))

    def _replace(self, src, dst) -> None:
        rel = self._rel(src)
        if rel is None:
            return os.replace(src, dst)
        self._gate("rename", rel)
        ino = self._ino_of(src)
        os.replace(src, dst)
        self._renamed(ino, rel, self._rel(dst))

    def _move(self, src, dst):
        rel = self._rel(src)
        if rel is None:
            return shutil.move(src, dst)
        self._gate("rename", rel)
        ino = self._ino_of(src)
        out = shutil.move(src, dst)
        self._renamed(ino, rel, self._rel(dst))
        return out

    def _unlink(self, path) -> None:
        rel = self._rel(path)
        if rel is None:
            return os.unlink(path)
        self._gate("unlink", rel)
        ino = self._ino_of(path)
        os.unlink(path)
        self.ops.append(Op("unlink", rel, ino))

    def _mkstemp(self, suffix=None, prefix=None, dir=None, text=False):
        rel = self._rel(dir)
        if rel is not None:
            self._gate("create", rel)
        fd, name = tempfile.mkstemp(suffix, prefix, dir, text)
        if rel is not None:
            self._create(fd, self._rel(name))
        return fd, name

    def _funnel(self, name: str, fn, path_of):
        def call(*args, **kwargs):
            rel = self._rel(path_of(args))
            if rel is None or rel in self._active:  # nested on one target: the outer call counts
                return fn(*args, **kwargs)
            record = Call(name, rel, len(self.ops))
            self.calls.append(record)
            self._active.add(rel)
            try:
                out = fn(*args, **kwargs)
                if name == "quarantine_file" and out is not None:
                    record.target = self._rel(out)
                return out
            finally:
                self._active.discard(rel)
                record.end = len(self.ops)

        return call

    @contextlib.contextmanager
    def recording(self) -> Iterator["RecordingFS"]:
        """Patch the two modules for the duration of the block."""
        real_read_bytes = Path.read_bytes

        def read_bytes(path):
            rel = self._rel(path)
            if rel is not None:
                self._gate("read", rel)
            return real_read_bytes(path)

        os_proxy = _Proxy(
            os, open=self._os_open, close=self._os_close, fdopen=self._fdopen,
            fsync=self._fsync, replace=self._replace, unlink=self._unlink,
        )
        with pytest.MonkeyPatch.context() as mp:
            for module in (store, journal):
                mp.setattr(module, "os", os_proxy)
                mp.setattr(module, "open", self._open, raising=False)
            mp.setattr(store, "tempfile", _Proxy(tempfile, mkstemp=self._mkstemp))
            mp.setattr(store, "shutil", _Proxy(shutil, move=self._move))
            mp.setattr(Path, "read_bytes", read_bytes)
            for name in ("atomic_write_bytes", "quarantine_file", "repair_journal"):
                mp.setattr(store, name, self._funnel(name, getattr(store, name), lambda a: a[0]))
            for name in ("create", "_reopen"):
                fn = SealedJournal.__dict__[name].__func__
                wrapped = self._funnel(f"SealedJournal.{name}", fn, lambda a: a[1])
                mp.setattr(SealedJournal, name, classmethod(wrapped))
            mp.setattr(
                SealedJournal, "_append",
                self._funnel("SealedJournal._append", SealedJournal._append, lambda a: a[0].path),
            )
            yield self

    def inject(self, path: str | Path, data: bytes) -> None:
        """Durably replace ``path``'s bytes outside any funnel: the damage
        a test plants (bit rot, a torn tail) becomes part of the log."""
        path = Path(path)
        rel = self._rel(path)
        record = Call("inject", rel, len(self.ops))
        existed = path.exists()
        path.parent.mkdir(parents=True, exist_ok=True)
        with builtins.open(path, "wb") as fh:
            fh.write(data)
            ino = self._ino_of(path) if existed else self._create(fh.fileno(), rel)
        if existed:
            self.ops.append(Op("truncate", rel, ino, 0))
        self.ops += [Op("write", rel, ino, 0, data), Op("fsync", rel, ino)]
        if not existed:
            self.ops.append(Op("dirsync", os.path.dirname(rel)))
        record.end = len(self.ops)
        self.calls.append(record)


# -- crash states ----------------------------------------------------------------


@dataclass
class CrashState:
    """The disk after a crash before op ``k``: ``entries`` maps each path
    to its inode, ``applied`` each inode to the data ops that reached it
    (``(op index, cut)``, ``cut`` set for a torn write)."""

    k: int
    variant: str
    entries: dict[str, int]
    applied: dict[int, tuple]
    _contents: "_Contents" = field(repr=False)

    def read(self, rel: str) -> bytes | None:
        ino = self.entries.get(rel)
        return None if ino is None else self._contents.of(self.applied.get(ino, ()))


class _Contents:
    """File bytes by applied-op sequence, memoised on every prefix."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self._memo: dict[tuple, bytes] = {(): b""}

    def of(self, applied: tuple) -> bytes:
        n = len(applied)
        while applied[:n] not in self._memo:
            n -= 1
        data = self._memo[applied[:n]]
        for j in range(n, len(applied)):
            data = self._apply(data, *applied[j])
            self._memo[applied[: j + 1]] = data
        return data

    def _apply(self, data: bytes, i: int, cut: int | None) -> bytes:
        op = self.ops[i]
        if op.kind == "truncate":
            return data[: op.offset] + bytes(max(0, op.offset - len(data)))
        payload = op.data if cut is None else op.data[:cut]
        data = data + bytes(max(0, op.offset - len(data)))
        return data[: op.offset] + payload + data[op.offset + len(payload) :]


def crash_states(ops: list[Op], seed: int = 0, keep_only: bool = False) -> Iterator[CrashState]:
    """Every crash state of ``ops``, by prefix.  Per prefix: all volatile
    ops kept; all un-fsynced data ops dropped; the last un-fsynced write
    torn; a seeded keep/drop/tear mix of the un-fsynced data ops; each
    suffix of the un-synced metadata ops dropped; everything volatile
    dropped.  ``keep_only`` yields just the first of these."""
    contents = _Contents(ops)
    data_ops: dict[int, list[int]] = {}
    dir_ops: list[int] = []
    vol_data: list[int] = []
    vol_dir: list[int] = []

    def build(k, variant, drop_data=(), cuts=None, drop_dir=()):
        cuts = cuts or {}
        entries: dict[str, int] = {}
        for j in dir_ops:
            if j in drop_dir:
                continue
            op = ops[j]
            if op.kind == "create":
                entries[op.path] = op.ino
                continue
            if entries.get(op.path) == op.ino:
                del entries[op.path]
            if op.kind == "rename":
                entries[op.dst] = op.ino
        applied = {
            ino: tuple((i, cuts.get(i)) for i in idx if i not in drop_data)
            for ino, idx in data_ops.items()
        }
        return CrashState(k, variant, entries, applied, contents)

    for k in range(len(ops) + 1):
        if k:
            i, op = k - 1, ops[k - 1]
            if op.kind in ("write", "truncate"):
                data_ops.setdefault(op.ino, []).append(i)
                vol_data.append(i)
            elif op.kind == "fsync":
                vol_data = [j for j in vol_data if ops[j].ino != op.ino]
            elif op.kind == "dirsync":
                vol_dir = [j for j in vol_dir if ops[j].entry_dir != op.path]
            else:
                dir_ops.append(i)
                vol_dir.append(i)
        yield build(k, "keep")
        if keep_only:
            continue
        rng = random.Random(f"{seed}:{k}")
        if vol_data:
            yield build(k, "drop-data", drop_data=set(vol_data))
        writes = [i for i in vol_data if ops[i].kind == "write" and ops[i].data]
        if writes:
            last = writes[-1]
            yield build(k, "tear", cuts={last: rng.randrange(len(ops[last].data))})
        if len(vol_data) > 1:
            drop, cuts = set(), {}
            for i in vol_data:
                choice = rng.choice(("keep", "drop", "tear"))
                if choice == "drop":
                    drop.add(i)
                elif choice == "tear" and ops[i].kind == "write" and ops[i].data:
                    cuts[i] = rng.randrange(len(ops[i].data))
            yield build(k, "mix", drop_data=drop, cuts=cuts)
        for pos, i in enumerate(vol_dir):
            yield build(k, f"drop-dir-from-{i}", drop_dir=set(vol_dir[pos:]))
        if vol_data and vol_dir:
            yield build(k, "drop-all", drop_data=set(vol_data), drop_dir=set(vol_dir))


# -- the pre-or-post oracle -----------------------------------------------------


def _intact(raw: bytes | None) -> bytes:
    raw = raw or b""
    return raw[: scan_journal(raw)[2]]


def _view(call: Call, st: CrashState, tail: bytes):
    """What ``call`` promises about its target in state ``st``."""
    if call.funnel in _JOURNAL_FUNNELS:
        return _intact(st.read(call.path))
    if call.funnel in _TAIL_FUNNELS:
        # The journal's intact lines, and whether the invalid tail the
        # call found is still somewhere: in the journal or in quarantine.
        raw = st.read(call.path) or b""
        intact = _intact(raw)
        head, name = os.path.split(call.path)
        prefix = os.path.join(head, QUARANTINE_DIRNAME, name + ".tail")
        kept = raw[len(intact):] == tail or any(
            st.read(q) == tail for q in st.entries if q.startswith(prefix)
        )
        if call.funnel == "repair_journal":  # its truncate is durable on return
            return intact, kept, raw == intact
        return intact, kept
    if call.funnel == "quarantine_file":
        data = st.read(call.path)
        return data if data is not None else st.read(call.target)
    return st.read(call.path)


def funnel_violations(fs: RecordingFS, seed: int = 0) -> list[str]:
    """Every (call, crash state) pair breaking the pre-or-post rule."""
    calls = [c for c in fs.calls if c.funnel != "inject"]
    by_path: dict[str, list[Call]] = {}
    for c in sorted(fs.calls, key=lambda c: c.start):
        by_path.setdefault(c.path, []).append(c)
    window: dict[int, int] = {}  # id(call) -> last k it answers for
    for events in by_path.values():
        for c, nxt in zip(events, events[1:] + [None]):
            window[id(c)] = nxt.start if nxt is not None else len(fs.ops)
    bounds = {k for c in calls for k in (c.start, c.end)}
    keep = {st.k: st for st in crash_states(fs.ops, keep_only=True) if st.k in bounds}
    tails = {}
    for c in calls:
        raw = keep[c.start].read(c.path) or b""
        tails[id(c)] = raw[len(_intact(raw)):]
    pre = {id(c): _view(c, keep[c.start], tails[id(c)]) for c in calls}
    post = {id(c): _view(c, keep[c.end], tails[id(c)]) for c in calls}
    found = []
    for st in crash_states(fs.ops, seed):
        for c in calls:
            if not c.start < st.k <= window[id(c)]:
                continue
            view = _view(c, st, tails[id(c)])
            if view == post[id(c)] or (st.k < c.end and view == pre[id(c)]):
                continue
            when = "interrupted" if st.k < c.end else "returned"
            last = fs.ops[st.k - 1]
            found.append(
                f"{c.funnel}({c.path}) {when}: crash after op {st.k - 1} "
                f"({last}), variant {st.variant}, is neither pre- nor post-state"
            )
    return found
