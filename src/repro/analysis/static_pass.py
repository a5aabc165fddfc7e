"""Static (AST) pass over application sources.

The pass understands the application contract of :mod:`repro.apps.base`:
an app class allocates managed objects in ``_allocate`` via
``self.ws.array/scalar/iterator``, runs its main loop in ``_iterate``
inside ``with ws.region(...)`` blocks, and may touch raw NumPy state
freely in the sanctioned init/verification paths (``_allocate``,
``_initialize``, ``_post_restore``, ``verify``, ``reference_outcome``).

Rules
-----

``raw-np-escape``
    ``.np`` (the raw architectural array) referenced in a method
    reachable from ``_iterate``.  Reads bypass the access counter
    (warning); writes additionally bypass crash-point splitting and the
    cache simulation entirely (error).
``out-of-region-write``
    A managed write (``write``/``update``/``write_at``/``set``) reachable
    from ``_iterate`` through a call chain that is not protected by any
    ``with ws.region(...)`` block.
``region-mismatch``
    Region ids used by the main loop vs. the class ``REGIONS``
    declaration, in both directions.  Simple loop-carried region names
    (literal tuples, ``enumerate`` over literals, f-strings over such
    variables) are resolved; if any region argument stays unresolvable,
    the declared-but-unused direction is skipped for that class.
``unregistered-object``
    ``self.<attr> = np.zeros(...)``-style allocations in ``_allocate``
    that bypass the persistent heap (no access accounting, no NVM image,
    invisible to restart).

Suppression: ``# analysis: allow(<rule>)`` on the offending line or the
line directly above.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding, Severity

__all__ = ["analyze_source", "analyze_paths"]

#: methods whose raw-NumPy use is sanctioned (init / postmortem paths)
SANCTIONED_METHODS = frozenset(
    {
        "__init__",
        "_allocate",
        "_initialize",
        "_post_restore",
        "verify",
        "reference_outcome",
        "nominal_iterations",
    }
)

MANAGED_WRITE_METHODS = frozenset({"write", "update", "write_at", "set"})

NUMPY_ALLOCATORS = frozenset(
    {
        "array",
        "arange",
        "empty",
        "empty_like",
        "full",
        "full_like",
        "linspace",
        "ones",
        "ones_like",
        "zeros",
        "zeros_like",
    }
)

_ALLOW_RE = re.compile(r"#\s*analysis:\s*allow\(([^)]*)\)")


def _allowed_rules(lines: list[str], lineno: int) -> set[str]:
    """Rules suppressed at a 1-based source line (same line or the one above)."""
    out: set[str] = set()
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines):
            m = _ALLOW_RE.search(lines[ln - 1])
            if m:
                out.update(part.strip() for part in m.group(1).split(","))
    return out


def _expr_text(node: ast.AST, limit: int = 60) -> str:
    text = ast.unparse(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclass
class _ClassInfo:
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef]
    regions: tuple[str, ...] | None  # literal REGIONS, if declared


def _collect_classes(tree: ast.Module) -> list[_ClassInfo]:
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        regions: tuple[str, ...] | None = None
        for item in node.body:
            if (
                isinstance(item, ast.Assign)
                and len(item.targets) == 1
                and isinstance(item.targets[0], ast.Name)
                and item.targets[0].id == "REGIONS"
            ):
                try:
                    value = ast.literal_eval(item.value)
                except ValueError:
                    continue
                if isinstance(value, tuple) and all(isinstance(v, str) for v in value):
                    regions = value
        bases = tuple(
            b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
        )
        out.append(_ClassInfo(node.name, node, bases, methods, regions))
    return out


def _is_app_class(info: _ClassInfo) -> bool:
    return "_iterate" in info.methods or "_allocate" in info.methods


def _self_attr(node: ast.AST) -> str | None:
    """``self.<attr>`` -> attr name, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _managed_attrs(info: _ClassInfo) -> set[str]:
    """Attributes bound to ``self.ws.array/scalar/iterator(...)`` anywhere
    in the class."""
    out: set[str] = set()
    for fn in info.methods.values():
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in {"array", "scalar", "iterator"}
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "ws"
            ):
                out.update(a for a in map(_self_attr, node.targets) if a is not None)
    return out


# -- region-name resolution ----------------------------------------------------


def _literal_str_seq(node: ast.AST) -> list[object] | None:
    """A tuple/list literal -> python values (strings and tuples kept)."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    try:
        return list(ast.literal_eval(node))
    except ValueError:
        return None


def _loop_bindings(fn: ast.FunctionDef) -> dict[str, set[str]]:
    """String values loop variables can take, for simple literal loops.

    Handles ``for x in ("a", "b")``, ``for a, b in (("r", 1), ...)`` and
    both wrapped in ``enumerate(...)``.
    """
    bindings: dict[str, set[str]] = {}

    def bind(target: ast.AST, values: list[object]) -> None:
        if isinstance(target, ast.Name):
            strs = {v for v in values if isinstance(v, str)}
            if strs:
                bindings.setdefault(target.id, set()).update(strs)
            return
        if isinstance(target, ast.Tuple):
            for pos, elt in enumerate(target.elts):
                sub = [
                    v[pos]
                    for v in values
                    if isinstance(v, tuple) and len(v) > pos
                ]
                bind(elt, sub)

    for node in ast.walk(fn):
        if not isinstance(node, ast.For):
            continue
        it, target = node.iter, node.target
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "enumerate"
            and it.args
        ):
            seq = _literal_str_seq(it.args[0])
            if seq is not None and isinstance(target, ast.Tuple) and len(target.elts) == 2:
                bind(target.elts[1], seq)
            continue
        seq = _literal_str_seq(it)
        if seq is not None:
            bind(target, seq)
    return bindings


def _resolve_region_arg(
    node: ast.AST, bindings: dict[str, set[str]]
) -> set[str] | None:
    """Possible region-name strings of a ``region(...)`` argument, or
    ``None`` when unresolvable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.Name):
        return bindings.get(node.id)
    if isinstance(node, ast.JoinedStr):
        options: list[set[str]] = []
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                options.append({part.value})
            elif isinstance(part, ast.FormattedValue):
                sub = _resolve_region_arg(part.value, bindings)
                if sub is None:
                    return None
                options.append(sub)
            else:
                return None
        out = {""}
        for opt in options:
            out = {prefix + piece for prefix in out for piece in opt}
        return out
    return None


def _region_calls(fn: ast.FunctionDef) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "region"
    ]


# -- per-class analysis --------------------------------------------------------


@dataclass
class _ClassAnalyzer:
    info: _ClassInfo
    path: Path
    lines: list[str]
    regions: tuple[str, ...] | None
    findings: list[Finding] = field(default_factory=list)

    def _add(
        self,
        rule: str,
        severity: Severity,
        node: ast.AST,
        message: str,
        symbol: str,
        method: str,
    ) -> None:
        lineno = getattr(node, "lineno", 0)
        if rule in _allowed_rules(self.lines, lineno):
            return
        self.findings.append(
            Finding(
                rule=rule,
                severity=severity,
                where=f"{self.path}:{lineno}",
                message=message,
                key=f"{rule}:{self.path.name}:{self.info.name}.{method}:{symbol}",
            )
        )

    # -- reachability ----------------------------------------------------------

    def main_loop_entries(self) -> dict[str, set[bool]]:
        """Methods reachable from ``_iterate`` through ``self.<method>()``
        calls, each mapped to how it can be entered: ``True`` through a
        call chain outside every ``with ws.region(...)`` block, ``False``
        through one inside a region.  Each (method, flag) pair is expanded
        once, so recursion terminates."""
        entered: dict[str, set[bool]] = {}
        work = [("_iterate", True)]
        while work:
            name, unprotected = work.pop()
            if name not in self.info.methods or unprotected in entered.get(name, ()):
                continue
            entered.setdefault(name, set()).add(unprotected)
            for callee, call_in_region in self._self_calls_with_region(self.info.methods[name]):
                work.append((callee, unprotected and not call_in_region))
        return entered

    # -- rule: raw-np-escape ---------------------------------------------------

    def check_np_escapes(self, hot: set[str]) -> None:
        for name in sorted(hot):
            fn = self.info.methods[name]
            write_nodes = self._assignment_target_nodes(fn)
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Attribute) and node.attr == "np"):
                    continue
                # Plain module references (``np.zeros``) are Name nodes,
                # not Attribute; an Attribute ``.np`` is the managed-array
                # property (or something shaped exactly like it).
                is_write = id(node) in write_nodes
                text = _expr_text(node)
                self._add(
                    "raw-np-escape",
                    Severity.ERROR if is_write else Severity.WARNING,
                    node,
                    f"raw array {'written' if is_write else 'read'} via "
                    f"`{text}` in main-loop code; use the managed "
                    "read/write API so the access is simulated",
                    text,
                    name,
                )

    @staticmethod
    def _assignment_target_nodes(fn: ast.FunctionDef) -> set[int]:
        """ids of AST nodes that appear inside assignment targets."""
        out: set[int] = set()
        for node in ast.walk(fn):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for tgt in targets:
                for sub in ast.walk(tgt):
                    out.add(id(sub))
        return out

    # -- rule: out-of-region-write ---------------------------------------------

    def check_out_of_region_writes(self, unprotected: set[str], managed: set[str]) -> None:
        """``unprotected``: main-loop methods some call chain enters
        outside every region block."""
        for name in sorted(unprotected):
            fn = self.info.methods[name]
            for node, in_region in self._managed_writes_with_region(fn, managed):
                if in_region:
                    continue
                text = _expr_text(node.func)
                self._add(
                    "out-of-region-write",
                    Severity.ERROR,
                    node,
                    f"managed write `{text}(...)` executes outside any "
                    "`with ws.region(...)` block: the store belongs to no "
                    "declared region",
                    text,
                    name,
                )

    def _walk_with_region_flag(self, fn: ast.FunctionDef):
        """Yield (node, lexically-inside-region-with) for a function body."""

        def visit(node: ast.AST, in_region: bool):
            for child in ast.iter_child_nodes(node):
                child_in_region = in_region
                if isinstance(child, ast.With) and any(
                    isinstance(item.context_expr, ast.Call)
                    and isinstance(item.context_expr.func, ast.Attribute)
                    and item.context_expr.func.attr == "region"
                    for item in child.items
                ):
                    child_in_region = True
                yield child, child_in_region
                yield from visit(child, child_in_region)

        yield from visit(fn, False)

    def _self_calls_with_region(self, fn: ast.FunctionDef):
        for node, in_region in self._walk_with_region_flag(fn):
            if isinstance(node, ast.Call):
                attr = _self_attr(node.func)
                if attr is not None:
                    yield attr, in_region

    def _managed_writes_with_region(self, fn: ast.FunctionDef, managed: set[str]):
        for node, in_region in self._walk_with_region_flag(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MANAGED_WRITE_METHODS
            ):
                # self.<managed>.write(...), self.<managed>.arr.update(...)
                base = node.func.value
                if isinstance(base, ast.Attribute) and base.attr == "arr":
                    base = base.value
                if _self_attr(base) in managed:
                    yield node, in_region

    # -- rule: region-mismatch -------------------------------------------------

    def check_region_mismatch(self, hot: set[str]) -> None:
        if self.regions is None or "_iterate" not in self.info.methods:
            return
        used: set[str] = set()
        fully_resolved = True
        first_region_node: ast.AST | None = None
        for name in sorted(hot):
            fn = self.info.methods[name]
            bindings = _loop_bindings(fn)
            for call in _region_calls(fn):
                if first_region_node is None:
                    first_region_node = call
                if not call.args:
                    continue
                resolved = _resolve_region_arg(call.args[0], bindings)
                if resolved is None:
                    fully_resolved = False
                    continue
                for rid in sorted(resolved):
                    if rid not in self.regions:
                        self._add(
                            "region-mismatch",
                            Severity.ERROR,
                            call,
                            f"region {rid!r} entered by {name}() is not in "
                            f"{self.info.name}.REGIONS",
                            rid,
                            name,
                        )
                used.update(resolved)
        if fully_resolved:
            for rid in self.regions:
                if rid not in used:
                    self._add(
                        "region-mismatch",
                        Severity.ERROR,
                        first_region_node or self.info.node,
                        f"region {rid!r} declared in {self.info.name}.REGIONS "
                        "is never entered by the main loop",
                        rid,
                        "_iterate",
                    )

    # -- rule: unregistered-object ---------------------------------------------

    def check_unregistered_objects(self) -> None:
        fn = self.info.methods.get("_allocate")
        if fn is None:
            return
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in NUMPY_ALLOCATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in {"np", "numpy"}
            ):
                continue
            for tgt in node.targets:
                attr = _self_attr(tgt)
                if attr is None:
                    continue
                self._add(
                    "unregistered-object",
                    Severity.ERROR,
                    node,
                    f"`self.{attr}` allocated with "
                    f"`{_expr_text(node.value.func)}(...)` but never "
                    "registered with the PersistentHeap: it has no NVM "
                    "image and its accesses are invisible to the simulator",
                    f"self.{attr}",
                    "_allocate",
                )


def _analyze_module(
    tree: ast.Module,
    source: str,
    path: Path,
    region_registry: dict[str, tuple[str, ...]],
) -> list[Finding]:
    lines = source.splitlines()
    findings: list[Finding] = []
    for info in _collect_classes(tree):
        if not _is_app_class(info):
            continue
        regions = info.regions
        if regions is None:
            for base in info.bases:
                if base in region_registry:
                    regions = region_registry[base]
                    break
        analyzer = _ClassAnalyzer(info, path, lines, regions)
        entered = analyzer.main_loop_entries()
        hot = {m for m in entered if m not in SANCTIONED_METHODS}
        analyzer.check_np_escapes(hot)
        analyzer.check_out_of_region_writes(
            {m for m in hot if True in entered[m]}, _managed_attrs(info)
        )
        analyzer.check_region_mismatch(hot)
        analyzer.check_unregistered_objects()
        findings.extend(analyzer.findings)
    return findings


def analyze_source(source: str, filename: str = "<string>") -> list[Finding]:
    """Run the static pass over one module's source text."""
    tree = ast.parse(source, filename=filename)
    registry = {
        info.name: info.regions
        for info in _collect_classes(tree)
        if info.regions is not None
    }
    return _analyze_module(tree, source, Path(filename), registry)


def analyze_paths(paths: Iterable[Path | str]) -> list[Finding]:
    """Run the static pass over a set of files (two-phase, so REGIONS
    declarations resolve across modules for subclassed apps)."""
    parsed: list[tuple[Path, str, ast.Module]] = []
    registry: dict[str, tuple[str, ...]] = {}
    for raw in sorted(Path(p) for p in paths):
        source = raw.read_text()
        tree = ast.parse(source, filename=str(raw))
        parsed.append((raw, source, tree))
        for info in _collect_classes(tree):
            if info.regions is not None:
                registry[info.name] = info.regions
    findings: list[Finding] = []
    for path, source, tree in parsed:
        findings.extend(_analyze_module(tree, source, path, registry))
    return findings
