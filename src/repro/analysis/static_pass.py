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

Ordering rules (interprocedural, over the :mod:`~repro.analysis.
callgraph` linearization of one ``_iterate`` pass; they activate only on
*manual* ``persist()`` calls — plan-driven flushes are checked by the
dynamic pass):

``persist-order``
    A scalar commit marker is persisted while another object it guards
    still has unpersisted stores (WITCHER-style ordering invariant: the
    marker becomes durable before the data it vouches for).
``torn-commit``
    A commit group (consecutive persists, no stores or region exits in
    between) publishes two or more objects with no single atomic root —
    the group's final persist must target a one-word scalar, the only
    atomically-persistable object, for the commit to be all-or-nothing.
``redundant-persist``
    An object re-persisted with no store since its previous persist in
    the same pass: pure flush latency, no durability gained.
``unpersisted-at-exit``
    In a class that opts into manual persistence, an object whose last
    store of the pass is never followed by a persist — it leaves the
    iteration volatile while sibling objects were committed.

Suppression: ``# analysis: allow(<rule>)`` on the offending line or the
line directly above.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.callgraph import ClassGraph, Op, build_class_graph, self_attr
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


def _hot_methods(info: _ClassInfo, graph: ClassGraph | None = None) -> set[str]:
    """Methods reachable from ``_iterate`` (the main-loop call graph)."""
    if graph is None:
        graph = build_class_graph(info.name, info.methods)
    return graph.reachable("_iterate")


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

    def check_out_of_region_writes(self, hot: set[str], managed: set[str]) -> None:
        if "_iterate" not in self.info.methods:
            return
        # entered[name] = {True} if ever called outside a region block,
        # {False} if only inside; writes only matter on the True side.
        entered: dict[str, set[bool]] = {"_iterate": {True}}
        work = [("_iterate", True)]
        seen: set[tuple[str, bool]] = set()
        while work:
            name, unprotected = work.pop()
            if (name, unprotected) in seen or name not in self.info.methods:
                continue
            seen.add((name, unprotected))
            fn = self.info.methods[name]
            for callee, call_in_region in self._self_calls_with_region(fn):
                callee_unprotected = unprotected and not call_in_region
                entered.setdefault(callee, set()).add(callee_unprotected)
                work.append((callee, callee_unprotected))
        for name in sorted(hot):
            if True not in entered.get(name, set()):
                continue
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
                attr = self_attr(node.func)
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
                if self_attr(base) in managed:
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

    # -- ordering rules (interprocedural, callgraph-linearized) ----------------

    def check_persist_ordering(self, graph: ClassGraph) -> None:
        """persist-order / torn-commit / redundant-persist /
        unpersisted-at-exit over one linearized ``_iterate`` pass.

        All four rules key on *manual* ``persist()`` calls — a class with
        none (the plan-driven idiom every registry app uses) produces no
        ordering findings, so the rules gate nothing retroactively.
        """
        seq = graph.linearize("_iterate")
        if not any(op.kind == "persist" for op in seq):
            return
        data_kinds = {"array", "scalar"}
        scalars = {a for a, k in graph.managed.items() if k == "scalar"}
        tracked = {a for a, k in graph.managed.items() if k in data_kinds}

        # pending[obj] = first store op since obj's last persist
        pending: dict[str, Op] = {}
        ever_persisted: set[str] = set()
        for op in seq:
            if op.kind == "store" and op.target in tracked:
                pending.setdefault(op.target, op)
            elif op.kind == "persist" and op.target in tracked:
                if op.target in scalars:
                    for guarded, store_op in sorted(pending.items()):
                        if guarded == op.target:
                            continue
                        self._add(
                            "persist-order",
                            Severity.ERROR,
                            op,
                            f"commit marker `self.{op.target}` persisted while "
                            f"`self.{guarded}` (stored at line "
                            f"{store_op.lineno}) still has unpersisted data: "
                            "a crash after this persist exposes a durable "
                            "marker guarding volatile state — persist the "
                            "data first, the marker last",
                            f"{op.target}:{guarded}",
                            op.method,
                        )
                if op.target not in pending and op.target in ever_persisted:
                    self._add(
                        "redundant-persist",
                        Severity.WARNING,
                        op,
                        f"`self.{op.target}.persist()` with no store since "
                        "its previous persist in the same pass: every line "
                        "is already durable, the flush is dead cost",
                        op.target,
                        op.method,
                    )
                ever_persisted.add(op.target)
                pending.pop(op.target, None)

        self._check_torn_commits(seq, tracked, scalars)

        # unpersisted-at-exit: stored after its last persist, never
        # committed before the pass ends.
        for obj, store_op in sorted(pending.items()):
            self._add(
                "unpersisted-at-exit",
                Severity.WARNING,
                store_op,
                f"`self.{obj}` stored at line {store_op.lineno} but never "
                "persisted before the iteration ends, in a class that "
                "commits durability manually: the object stays volatile "
                "while its siblings were persisted",
                obj,
                store_op.method,
            )

    def _check_torn_commits(
        self, seq: list[Op], tracked: set[str], scalars: set[str]
    ) -> None:
        """Flag multi-object commit groups with no atomic root.

        A *commit group* is a maximal run of persist ops with no store or
        region exit in between.  Publishing >= 2 objects is all-or-nothing
        only if the group's final persist targets a one-word scalar (the
        single atomically-persistable word, stored last) — otherwise a
        crash between the group's flushes leaves a torn logical commit.
        """
        group: list[Op] = []

        def close_group() -> None:
            targets = {op.target for op in group}
            if len(targets) >= 2 and group[-1].target not in scalars:
                first = group[0]
                self._add(
                    "torn-commit",
                    Severity.ERROR,
                    first,
                    f"commit group persists {len(targets)} objects "
                    f"({', '.join(sorted(targets))}) with no atomic root: "
                    "the final persist of the group must be a one-word "
                    "scalar marker for the multi-object commit to be "
                    "all-or-nothing",
                    "+".join(sorted(targets)),
                    first.method,
                )
            group.clear()

        for op in seq:
            if op.kind == "persist" and op.target in tracked:
                group.append(op)
            elif group:
                close_group()
        if group:
            close_group()

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
                attr = self_attr(tgt)
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
        graph = build_class_graph(info.name, info.methods)
        hot = _hot_methods(info, graph)
        hot_unsanctioned = {m for m in hot if m not in SANCTIONED_METHODS}
        managed = set(graph.managed)
        analyzer.check_np_escapes(hot_unsanctioned)
        analyzer.check_out_of_region_writes(hot_unsanctioned, managed)
        analyzer.check_region_mismatch(hot_unsanctioned)
        analyzer.check_unregistered_objects()
        analyzer.check_persist_ordering(graph)
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
