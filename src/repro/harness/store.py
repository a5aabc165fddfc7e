"""Self-healing integrity layer for every durable artifact.

The paper's premise is that persisted state survives failures *only if
you can trust what you read back*: EasyCrash verifies recomputed results
at the application level, and WITCHER-style testing shows how silently
corrupt persistent state escapes naive checks.  Our own durable
artifacts — :class:`~repro.harness.cache.ArtifactCache` entries,
published golden stores, ``--stats`` documents, the campaign and lease
journals — are atomically *written*; this module makes every one of them
verified on *read*, with one sealing primitive used two ways:

* **The sealed line** (:func:`seal_line` / :func:`open_line`): a JSON
  object gains a ``crc`` field over its canonical dump.  Journal lines,
  wire messages and ``--stats`` documents are sealed lines.
* **The sealed file** (:func:`seal_head` / :func:`open_head`): the only
  on-disk layout of binary artifacts — :data:`MAGIC`, one sealed JSON
  header line ``{kind, schema_version, ...}``, then the raw payload.
  ``kind`` tells a cache entry (:data:`ENTRY_KIND`, whose header also
  carries ``payload_crc32``, ``git_sha`` and ``created_at``) from a
  published golden store (whose header carries a per-array crc32
  table).  A mismatch or an unreadable header raises the typed
  :class:`~repro.errors.SnapshotCorruptError`.
* **One readable format**: bytes without the seal (no magic, no
  ``crc``) and unknown (newer/foreign) schema versions are refused as
  corrupt — a reader must never wave through state it cannot verify,
  nor guess at a format it does not understand.
* **Quarantine** (:func:`quarantine_file`, :func:`quarantine_bytes`): a
  record that fails its checksum is *moved* into a ``quarantine/``
  subdirectory — never silently deleted — and the ``store.quarantined``
  / ``store.crc_failures`` counters fire, so a flipped bit costs one
  recomputation and leaves the evidence behind for postmortems.
* **Disk governance** (:func:`parse_quota`, :class:`LRUIndex`): the
  artifact cache tracks access recency in a logical-clock index and
  evicts least-recently-used entries once ``REPRO_CACHE_QUOTA`` is
  exceeded, so multi-week campaigns cannot fill the disk.
* **Doctor** (:func:`preflight`, :func:`fsck_cache`, :func:`fsck_journal`,
  :func:`repair_cache`): the ``repro doctor`` CLI — environment
  preflight plus an fsck that classifies every stored entry as ``ok`` /
  ``corrupt`` / ``foreign-version`` / ``orphaned-tmp``
  and, with ``--repair``, quarantines the bad ones and rebuilds the LRU
  index.

Every write to disk goes through one of the funnels here
(:func:`atomic_write_bytes`, :func:`quarantine_file`,
:func:`repair_journal`) or the journal's
(:class:`~repro.nvct.journal.SealedJournal`).  The test tree checks
them by enumerating crash states (``tests/harness/test_crash_states.py``).
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import SnapshotCorruptError
from repro.obs.metrics import bump

__all__ = [
    "MAGIC",
    "STORE_SCHEMA_VERSION",
    "QUOTA_ENV_VAR",
    "QUARANTINE_DIRNAME",
    "ENTRY_KIND",
    "crc32",
    "created_at",
    "store_git_sha",
    "seal_line",
    "open_line",
    "seal_head",
    "open_head",
    "fsync_dir",
    "atomic_write_bytes",
    "quarantine_file",
    "quarantine_bytes",
    "parse_quota",
    "LRUIndex",
    "GCReport",
    "collect_entries",
    "run_gc",
    "Verdict",
    "CheckResult",
    "fsck_cache",
    "fsck_journal",
    "repair_cache",
    "repair_journal",
    "preflight",
]

#: Every sealed file (:func:`seal_head`) starts with these bytes.
MAGIC = b"%REPRO-STORE%"

#: Current sealed-header schema version.  Bump when the header or a
#: payload layout changes.
STORE_SCHEMA_VERSION = 2

#: Header ``kind`` of an artifact-cache entry.
ENTRY_KIND = "cache-entry"

#: Cache disk quota in bytes (optional ``k``/``m``/``g`` suffix).
QUOTA_ENV_VAR = "REPRO_CACHE_QUOTA"

#: Subdirectory (of a store root) holding quarantined records.
QUARANTINE_DIRNAME = "quarantine"

#: Name of the LRU index file at a cache root.
INDEX_NAME = "index.json"


def crc32(data: bytes | memoryview) -> int:
    """Unsigned CRC-32 of ``data`` (every store checksum)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def created_at() -> str:
    """UTC timestamp for sealed headers (ISO-8601, second precision)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


_git_sha_cache: str | None = None


def store_git_sha() -> str:
    """The repository's short commit id, resolved once per process."""
    global _git_sha_cache
    if _git_sha_cache is None:
        from repro.obs.export import git_sha

        _git_sha_cache = git_sha()
    return _git_sha_cache


def _canonical_json(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- the sealed line -----------------------------------------------------------


def seal_line(doc: dict) -> dict:
    """Add a ``crc`` field covering the canonical dump of ``doc``."""
    return {**doc, "crc": crc32(_canonical_json(doc))}


def open_line(doc: object) -> dict:
    """Verify and strip a line CRC.

    Raises :class:`SnapshotCorruptError` when ``doc`` is not a JSON
    object, its CRC is absent, or the CRC does not match (the latter
    fires ``store.crc_failures``).  A journal treats such a line as its
    end, exactly like a torn tail.
    """
    if not isinstance(doc, dict) or "crc" not in doc:
        raise SnapshotCorruptError("sealed line lacks its checksum")
    body = {k: v for k, v in doc.items() if k != "crc"}
    if crc32(_canonical_json(body)) != doc["crc"]:
        bump("store.crc_failures", unit="records")
        raise SnapshotCorruptError("sealed line failed its checksum")
    return body


# -- the sealed file: magic, one sealed header line, raw payload ---------------


def seal_head(kind: str, **fields: object) -> bytes:
    """The head of a sealed file: :data:`MAGIC`, then one
    :func:`seal_line`-sealed JSON line ``{kind, schema_version, **fields}``
    and a newline.  The raw payload follows the head.

    A ``payload_crc32`` field, when the writer includes one, is the
    :func:`crc32` of every byte after the head; :func:`open_head`
    verifies it.
    """
    header = seal_line({**fields, "kind": kind, "schema_version": STORE_SCHEMA_VERSION})
    return MAGIC + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def open_head(data: bytes | mmap.mmap, kind: str) -> tuple[dict, int]:
    """Verify the head of a sealed file: ``(header, payload_offset)``.

    Checks the magic, the header line's CRC, the ``schema_version``, the
    ``kind``, and the payload's ``payload_crc32`` when the header has
    one.  Anything else — no magic, an unterminated or unreadable line, a
    CRC mismatch (``store.crc_failures`` fires), a foreign schema version
    or another kind of file — raises :class:`SnapshotCorruptError`.
    """
    if data[: len(MAGIC)] != MAGIC:
        raise SnapshotCorruptError("no store magic before the header")
    end = data.find(b"\n", len(MAGIC))
    if end < 0:
        raise SnapshotCorruptError("header line is unterminated")
    try:
        line = json.loads(data[len(MAGIC) : end])
    except ValueError as exc:
        raise SnapshotCorruptError(f"header is unreadable ({exc})") from exc
    header = open_line(line)
    if header.get("schema_version") != STORE_SCHEMA_VERSION:
        raise SnapshotCorruptError(
            f"header has foreign schema_version {header.get('schema_version')!r} "
            f"(this build reads {STORE_SCHEMA_VERSION})"
        )
    if header.get("kind") != kind:
        raise SnapshotCorruptError(f"header is of a {header.get('kind')!r}, not a {kind!r}")
    offset = end + 1
    if "payload_crc32" in header and crc32(memoryview(data)[offset:]) != header["payload_crc32"]:
        bump("store.crc_failures", unit="records")
        raise SnapshotCorruptError(
            f"payload failed its checksum (crc32 != {header['payload_crc32']})"
        )
    return header, offset


# -- atomic durable writes -----------------------------------------------------


def fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` durable (best effort)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes | Iterable[bytes | memoryview]) -> Path:
    """Atomic, durable publish: same-dir temp file + fsync + ``os.replace``.

    The single write primitive behind :func:`repro.obs.export.write_text`,
    the quarantine mover's fallback, the LRU index and the published
    golden store — a crash mid-write leaves either the old file or the
    new one, never a torn hybrid.  ``data`` is one buffer or a sequence
    of buffers written back to back, so a large artifact streams from
    its own arrays instead of being joined into one ``bytes`` first.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in [data] if isinstance(data, (bytes, bytearray, memoryview)) else data:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except Exception:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


# -- quarantine ----------------------------------------------------------------


def _quarantine_target(root: Path, name: str) -> Path:
    qdir = root / QUARANTINE_DIRNAME
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / name
    n = 0
    while target.exists():
        n += 1
        target = qdir / f"{name}.{n}"
    return target


def quarantine_file(path: str | Path, root: str | Path | None = None) -> Path | None:
    """Move a corrupt record into ``<root>/quarantine/`` (never delete).

    ``root`` defaults to the record's own directory's store root — for a
    cache entry laid out ``root/<kind>/<aa>/<key>.json``, pass the cache
    root so the quarantine name keeps the ``<kind>.<key>`` identity.
    Returns the quarantine path, or ``None`` when the move failed (the
    record is then left in place; self-healing still recomputes).
    """
    path = Path(path)
    base = Path(root) if root is not None else path.parent
    try:
        rel = path.relative_to(base)
        name = ".".join(rel.parts)
    except ValueError:
        name = path.name
    target = _quarantine_target(base, name)
    try:
        shutil.move(str(path), str(target))
    except OSError:
        return None
    fsync_dir(target.parent)  # make the move itself durable …
    fsync_dir(path.parent)  # … and the disappearance from the source dir
    bump("store.quarantined", unit="records")
    return target


def quarantine_bytes(data: bytes, root: str | Path, name: str) -> Path | None:
    """Preserve corrupt bytes (e.g. a journal's bad tail) under quarantine."""
    target = _quarantine_target(Path(root), name)
    try:
        atomic_write_bytes(target, data)
    except OSError:
        return None
    bump("store.quarantined", unit="records")
    return target


# -- disk governance: quota parsing, LRU index, GC -----------------------------

_QUOTA_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_quota(spec: str | int | None) -> int | None:
    """``REPRO_CACHE_QUOTA`` value → bytes (``None``/empty/invalid → no quota).

    Accepts a plain byte count or a ``k``/``m``/``g`` suffix (powers of
    1024, case-insensitive): ``500m``, ``2g``, ``65536``.
    """
    if spec is None:
        return None
    if isinstance(spec, int):
        return spec if spec > 0 else None
    text = spec.strip().lower()
    if not text:
        return None
    factor = 1
    if text[-1] in _QUOTA_SUFFIX:
        factor = _QUOTA_SUFFIX[text[-1]]
        text = text[:-1]
    try:
        value = int(float(text) * factor)
    except ValueError:
        return None
    return value if value > 0 else None


class LRUIndex:
    """Logical-clock access index for a cache root (drives LRU eviction).

    Atime is a monotonically increasing *tick*, not wall clock, so
    eviction order is deterministic and immune to clock skew.  The index
    is advisory: the filesystem stays the source of truth for existence
    and size (``rebuild`` re-scans it), so a lost or stale index can
    never lose data — at worst eviction order degrades to arbitrary for
    untracked entries, and ``repro doctor fsck --repair`` rebuilds it.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / INDEX_NAME
        self._atimes: dict[str, int] = {}
        self._tick = 0
        self._load()

    def _load(self) -> None:
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
            self._tick = int(doc["tick"])
            self._atimes = {str(k): int(v) for k, v in doc["entries"].items()}
        except (OSError, ValueError, KeyError, TypeError):
            self._atimes = {}
            self._tick = 0

    def save(self) -> None:
        doc = {"tick": self._tick, "entries": self._atimes}
        try:
            atomic_write_bytes(self.path, json.dumps(doc, sort_keys=True).encode("utf-8"))
        except OSError:
            pass  # advisory: a failed index write must not fail the cache

    def touch(self, rel: str, save: bool = True) -> None:
        self._tick += 1
        self._atimes[rel] = self._tick
        if save:
            self.save()

    def forget(self, rel: str) -> None:
        self._atimes.pop(rel, None)

    def atime(self, rel: str) -> int:
        return self._atimes.get(rel, 0)

    def rebuild(self, entries: Iterable[str]) -> None:
        """Reconcile with the filesystem: keep known ticks, drop ghosts."""
        entries = set(entries)
        self._atimes = {rel: t for rel, t in self._atimes.items() if rel in entries}
        for rel in sorted(entries - set(self._atimes)):
            self._tick += 1
            self._atimes[rel] = self._tick
        self.save()


def collect_entries(root: str | Path) -> list[tuple[str, int]]:
    """All record files under a cache root: ``[(relpath, size_bytes)]``.

    Skips the quarantine subtree, the LRU index, and in-flight temp files.
    """
    root = Path(root)
    out: list[tuple[str, int]] = []
    if not root.is_dir():
        return out
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if rel.parts[0] == QUARANTINE_DIRNAME or rel.name == INDEX_NAME:
            continue
        if rel.suffix == ".tmp":
            continue
        try:
            out.append((rel.as_posix(), path.stat().st_size))
        except OSError:
            continue
    return out


@dataclass
class GCReport:
    """Outcome of one quota-enforcement pass."""

    quota: int
    total_before: int
    total_after: int
    evicted: list[str] = field(default_factory=list)

    @property
    def bytes_freed(self) -> int:
        return self.total_before - self.total_after


def run_gc(root: str | Path, quota: int, index: LRUIndex | None = None) -> GCReport:
    """Evict least-recently-used entries until the store fits ``quota``.

    Eviction is ordinary garbage collection of *valid* data (the entries
    are recomputable by construction), so unlike corruption handling it
    deletes; quarantined records are never touched and never counted
    against the quota.
    """
    root = Path(root)
    index = index if index is not None else LRUIndex(root)
    entries = collect_entries(root)
    total = sum(size for _, size in entries)
    report = GCReport(quota=quota, total_before=total, total_after=total)
    if total <= quota:
        return report
    for rel, size in sorted(entries, key=lambda e: (index.atime(e[0]), e[0])):
        if report.total_after <= quota:
            break
        try:
            (root / rel).unlink()
        except OSError:
            continue
        index.forget(rel)
        report.total_after -= size
        report.evicted.append(rel)
    index.save()
    if report.evicted:
        bump("store.gc_evictions", unit="records", n=len(report.evicted))
        bump("store.gc_bytes_freed", unit="bytes", n=report.bytes_freed)
    return report


# -- doctor: fsck --------------------------------------------------------------

#: fsck verdicts, in decreasing order of health.
VERDICTS = ("ok", "corrupt", "foreign-version", "orphaned-tmp")


@dataclass
class Verdict:
    """One fsck finding: a store file and what the scan concluded."""

    path: Path
    verdict: str
    detail: str = ""

    @property
    def bad(self) -> bool:
        return self.verdict in ("corrupt", "foreign-version", "orphaned-tmp")


def _classify_entry(path: Path) -> Verdict:
    try:
        header, _ = open_head(path.read_bytes(), ENTRY_KIND)
    except OSError as exc:
        return Verdict(path, "corrupt", f"unreadable: {exc}")
    except SnapshotCorruptError as exc:
        foreign = "foreign schema_version" in str(exc)
        return Verdict(path, "foreign-version" if foreign else "corrupt", str(exc))
    return Verdict(path, "ok", f"schema v{header['schema_version']}")


def fsck_cache(root: str | Path) -> list[Verdict]:
    """Scan a cache root; one verdict per stored file (tmp files included)."""
    root = Path(root)
    verdicts: list[Verdict] = []
    if not root.is_dir():
        return verdicts
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if rel.parts[0] == QUARANTINE_DIRNAME or rel.name == INDEX_NAME:
            continue
        if rel.suffix == ".tmp":
            verdicts.append(Verdict(path, "orphaned-tmp", "in-flight temp file with no owner"))
            continue
        verdicts.append(_classify_entry(path))
    return verdicts


def fsck_journal(path: str | Path) -> tuple[list[Verdict], int]:
    """Verify a campaign journal line by line: ``(verdicts, valid_bytes)``.

    ``valid_bytes`` is the length of the intact prefix — everything after
    it (a torn or checksum-failing tail) gets a ``corrupt`` verdict.
    """
    from repro.nvct.journal import scan_journal

    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return [Verdict(path, "corrupt", f"unreadable: {exc}")], 0
    header, lines, valid = scan_journal(raw)
    verdicts: list[Verdict] = []
    if header is None:
        verdicts.append(Verdict(path, "corrupt", "no usable journal header"))
    else:
        verdicts.append(Verdict(path, "ok", f"{len(lines)} checksummed record(s)"))
    if valid < len(raw):
        verdicts.append(
            Verdict(
                path,
                "corrupt",
                f"invalid tail: {len(raw) - valid} byte(s) past offset {valid}",
            )
        )
    return verdicts, valid


def repair_cache(root: str | Path) -> list[Path]:
    """Quarantine every bad cache entry and rebuild the LRU index.

    Returns the quarantine destinations: ``corrupt`` / ``foreign-version``
    / ``orphaned-tmp`` files are moved, never deleted.
    """
    root = Path(root)
    moved: list[Path] = []
    for verdict in fsck_cache(root):
        if not verdict.bad:
            continue
        target = quarantine_file(verdict.path, root)
        if target is not None:
            moved.append(target)
    index = LRUIndex(root)
    index.rebuild(rel for rel, _ in collect_entries(root))
    return moved


def repair_journal(path: str | Path) -> Path | None:
    """Truncate a journal to its intact prefix, quarantining the bad tail."""
    path = Path(path)
    verdicts, valid = fsck_journal(path)
    raw = path.read_bytes() if path.exists() else b""
    if valid >= len(raw):
        return None
    target = quarantine_bytes(raw[valid:], path.parent, path.name + ".tail")
    with open(path, "r+b") as fh:
        fh.truncate(valid)
        fh.flush()
        os.fsync(fh.fileno())  # the repair itself must survive a crash
    return target


# -- doctor: preflight ---------------------------------------------------------


@dataclass
class CheckResult:
    """One preflight probe: name, pass/fail, human detail."""

    name: str
    ok: bool
    detail: str


def _check_writable(directory: Path) -> tuple[bool, str]:
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".doctor")
        os.close(fd)
        os.unlink(tmp)
    except OSError as exc:
        return False, f"not writable: {exc}"
    return True, "writable"


def preflight(
    cache_dir: str | Path | None = None,
    journals: Iterable[str | Path] = (),
    min_free_bytes: int = 256 << 20,
) -> list[CheckResult]:
    """Environment checks a long campaign depends on.

    Covers the interpreter and numpy versions, cache-dir writability and
    free disk (against ``min_free_bytes``), the configured quota, and
    ownership/writability of any journals the user intends to resume.
    """
    checks: list[CheckResult] = []
    py = sys.version_info
    checks.append(
        CheckResult(
            "python",
            py >= (3, 10),
            f"{py.major}.{py.minor}.{py.micro} (needs >= 3.10)",
        )
    )
    try:
        import numpy

        checks.append(CheckResult("numpy", True, numpy.__version__))
    except Exception as exc:  # pragma: no cover - numpy is a hard dependency
        checks.append(CheckResult("numpy", False, f"not importable: {exc}"))

    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        ok, detail = _check_writable(cache_dir)
        checks.append(CheckResult("cache-dir", ok, f"{cache_dir}: {detail}"))
        try:
            usage = shutil.disk_usage(cache_dir if cache_dir.exists() else cache_dir.parent)
            checks.append(
                CheckResult(
                    "free-disk",
                    usage.free >= min_free_bytes,
                    f"{usage.free / (1 << 20):.0f} MB free "
                    f"(needs >= {min_free_bytes / (1 << 20):.0f} MB)",
                )
            )
        except OSError as exc:
            checks.append(CheckResult("free-disk", False, str(exc)))
    else:
        checks.append(
            CheckResult("cache-dir", True, "not configured (REPRO_CACHE_DIR unset)")
        )
    quota_spec = os.environ.get(QUOTA_ENV_VAR, "").strip()
    if quota_spec:
        quota = parse_quota(quota_spec)
        checks.append(
            CheckResult(
                "cache-quota",
                quota is not None,
                f"{quota_spec!r} -> {quota} bytes" if quota else f"unparseable: {quota_spec!r}",
            )
        )
    for journal in journals:
        journal = Path(journal)
        name = f"journal:{journal.name}"
        if not journal.exists():
            checks.append(CheckResult(name, True, f"{journal}: will be created"))
            continue
        owned = True
        if hasattr(os, "getuid"):
            try:
                owned = journal.stat().st_uid == os.getuid()
            except OSError:
                owned = False
        writable = os.access(journal, os.W_OK)
        checks.append(
            CheckResult(
                name,
                owned and writable,
                f"{journal}: "
                + ("owned" if owned else "foreign owner")
                + ", "
                + ("writable" if writable else "read-only"),
            )
        )
    return checks
