"""Static pass: each rule fires exactly once on its dedicated fixture."""

import textwrap

from repro.analysis import analyze_source
from repro.analysis.findings import Severity


def run(src: str):
    return analyze_source(textwrap.dedent(src), filename="fixture.py")


# -- raw-np-escape -------------------------------------------------------------

RAW_NP_WRITE = """
    import numpy as np

    class EscapeApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _initialize(self):
            self.u.np[...] = 0.0  # sanctioned init-time escape

        def _iterate(self, it):
            with self.ws.region("R1"):
                self.u.np[0] = 1.0  # the escape under test
            return False
"""


def test_raw_np_write_escape_fires_once():
    findings = run(RAW_NP_WRITE)
    assert len(findings) == 1
    (f,) = findings
    assert f.rule == "raw-np-escape"
    assert f.severity is Severity.ERROR
    assert f.where.startswith("fixture.py:")
    assert "written" in f.message


RAW_NP_READ_IN_HELPER = """
    class HelperEscapeApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _residual(self):
            return self.u.np.sum()  # escapes via a helper

        def _iterate(self, it):
            with self.ws.region("R1"):
                r = self._residual()
            return False

        def reference_outcome(self):
            return {"r": self._residual()}  # also called from a sanctioned root
"""


def test_raw_np_read_through_iterate_reachable_helper():
    findings = run(RAW_NP_READ_IN_HELPER)
    assert [f.rule for f in findings] == ["raw-np-escape"]
    assert findings[0].severity is Severity.WARNING


DEEP_ESCAPE = """
    class DeepApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _kernel(self):
            self.u.np[0] = 1.0  # two self-calls below _iterate

        def _step(self):
            self._kernel()

        def _iterate(self, it):
            with self.ws.region("R1"):
                self._step()
            return False
"""


def test_reachability_follows_self_call_chains():
    findings = run(DEEP_ESCAPE)
    assert [(f.rule, f.severity) for f in findings] == [
        ("raw-np-escape", Severity.ERROR)
    ]
    assert findings[0].key == "raw-np-escape:fixture.py:DeepApp._kernel:self.u.np"

    # The same helpers, but nothing reachable from _iterate calls them.
    unreached = DEEP_ESCAPE.replace("                self._step()", "                pass")
    assert "self._step()" not in unreached.split("def _iterate")[1]
    assert run(unreached) == []

    # Mutually recursive helpers: the walk terminates and still sees both.
    recursive = """
    class PingPongApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _ping(self, n):
            if n:
                self._pong(n - 1)
            return self.u.np.sum()

        def _pong(self, n):
            if n:
                self._ping(n - 1)
            self.u.write(slice(None), 0.0)

        def _iterate(self, it):
            with self.ws.region("R1"):
                self._ping(3)
            self._pong(3)
            return False
    """
    findings = run(recursive)
    assert sorted((f.rule, f.key.split(":")[2]) for f in findings) == [
        ("out-of-region-write", "PingPongApp._pong"),
        ("raw-np-escape", "PingPongApp._ping"),
    ]


def test_sanctioned_only_helper_is_clean():
    src = """
    class CleanApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _residual(self):
            return self.u.np.sum()  # only reachable from verify paths

        def _iterate(self, it):
            with self.ws.region("R1"):
                self.u.write(slice(None), 0.0)
            return False

        def verify(self):
            return self._residual() == 0.0
    """
    assert run(src) == []


def test_allow_annotation_suppresses():
    src = """
    class AllowedApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _iterate(self, it):
            with self.ws.region("R1"):
                s = self.u.np.sum()  # analysis: allow(raw-np-escape)
            return False
    """
    assert run(src) == []


# -- out-of-region-write -------------------------------------------------------

OUT_OF_REGION = """
    class OorApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _iterate(self, it):
            with self.ws.region("R1"):
                v = self.u.read()
            self.u.write(slice(None), 0.0)  # outside any region
            return False
"""


def test_out_of_region_write_fires_once():
    findings = run(OUT_OF_REGION)
    assert len(findings) == 1
    (f,) = findings
    assert f.rule == "out-of-region-write"
    assert f.severity is Severity.ERROR
    assert "self.u.write" in f.message


def test_write_in_helper_called_inside_region_is_clean():
    src = """
    class HelperWriteApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _store(self, v):
            self.u.write(slice(None), v)

        def _iterate(self, it):
            with self.ws.region("R1"):
                self._store(1.0)
            return False
    """
    assert run(src) == []


def test_write_in_helper_called_outside_region_fires():
    src = """
    class HelperWriteApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _store(self, v):
            self.u.write(slice(None), v)

        def _iterate(self, it):
            with self.ws.region("R1"):
                pass
            self._store(1.0)
            return False
    """
    assert [f.rule for f in run(src)] == ["out-of-region-write"]


def test_scalar_set_is_a_managed_write():
    src = """
    class ScalarApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.c = self.ws.scalar("c", 0.0)

        def _iterate(self, it):
            with self.ws.region("R1"):
                pass
            self.c.set(it)
            return False
    """
    assert [f.rule for f in run(src)] == ["out-of-region-write"]


# -- region-mismatch -----------------------------------------------------------

REGION_MISMATCH_UNDECLARED = """
    class MismatchApp:
        REGIONS = ("R1", "R2")

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _iterate(self, it):
            with self.ws.region("R1"):
                pass
            with self.ws.region("R2"):
                pass
            with self.ws.region("R3"):
                pass
            return False
"""


def test_undeclared_region_fires_once():
    findings = run(REGION_MISMATCH_UNDECLARED)
    assert len(findings) == 1
    (f,) = findings
    assert f.rule == "region-mismatch"
    assert "'R3'" in f.message and "not in" in f.message


def test_declared_but_unused_region_fires_once():
    src = """
    class UnusedRegionApp:
        REGIONS = ("R1", "R9")

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _iterate(self, it):
            with self.ws.region("R1"):
                pass
            return False
    """
    findings = run(src)
    assert len(findings) == 1
    assert findings[0].rule == "region-mismatch"
    assert "'R9'" in findings[0].message and "never entered" in findings[0].message


def test_loop_carried_and_fstring_regions_resolve():
    """The SP/BT idiom: region ids from literal tuples and f-strings."""
    src = """
    class LoopRegionApp:
        REGIONS = ("rhs_x", "rhs_y", "x_form", "y_form")

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _iterate(self, it):
            for rid, frac in (("rhs_x", 0.5), ("rhs_y", 0.5)):
                with self.ws.region(rid):
                    pass
            for axis, base in enumerate(("x", "y")):
                with self.ws.region(f"{base}_form"):
                    pass
            return False
    """
    assert run(src) == []


def test_unresolvable_region_arg_skips_unused_direction():
    src = """
    class DynamicRegionApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))

        def _iterate(self, it):
            with self.ws.region(self.pick(it)):  # statically opaque
                pass
            return False

        def pick(self, it):
            return "R1"
    """
    assert run(src) == []


# -- unregistered-object -------------------------------------------------------

UNREGISTERED = """
    import numpy as np

    class UnregisteredApp:
        REGIONS = ("R1",)

        def _allocate(self):
            self.u = self.ws.array("u", (8,))
            self.tmp = np.zeros(8)  # bypasses the heap

        def _iterate(self, it):
            with self.ws.region("R1"):
                pass
            return False
"""


def test_unregistered_object_fires_once():
    findings = run(UNREGISTERED)
    assert len(findings) == 1
    (f,) = findings
    assert f.rule == "unregistered-object"
    assert f.severity is Severity.ERROR
    assert "self.tmp" in f.message


def test_findings_have_stable_linenumber_free_keys():
    findings = run(UNREGISTERED)
    key = findings[0].key
    assert key == "unregistered-object:fixture.py:UnregisteredApp._allocate:self.tmp"
    # Shifting the code down must not change the key (only `where`).
    shifted = run("\n\n\n" + UNREGISTERED)
    assert shifted[0].key == key
    assert shifted[0].where != findings[0].where


def test_real_app_suite_is_clean_statically():
    from repro.analysis.driver import default_app_paths
    from repro.analysis.static_pass import analyze_paths

    paths = default_app_paths()
    assert len(paths) >= 11
    assert analyze_paths(paths) == []
