"""The campaign's core correctness property: snapshotting many crash
points during ONE execution yields exactly the same NVM images as
separate executions crashed at each point individually."""

import numpy as np
import pytest

from repro.nvct.campaign import _sample_crash_points
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, Runtime
from tests.nvct.test_campaign import Counterloop


def snapshots_for(points, plan):
    rt = Runtime(plan=plan, crash_points=points)
    app = Counterloop(runtime=rt, size=256, nit=6)
    app.setup()
    app.run()
    return list(rt.golden_store().snapshots(copy=True))


@pytest.mark.parametrize(
    "plan",
    [PersistencePlan.none(), PersistencePlan.at_loop_end(["acc"])],
    ids=["no-plan", "loop-flush"],
)
def test_multi_snapshot_equals_single_snapshot(plan):
    counting = CountingRuntime()
    app = Counterloop(runtime=counting, size=256, nit=6)
    app.setup()
    app.run()
    points = _sample_crash_points((counting.window_begin, counting.counter), 12, 3, "x")

    multi = snapshots_for(points, plan)
    assert len(multi) == len(points)
    for i, p in enumerate(points):
        single = snapshots_for(np.array([p]), plan)
        assert len(single) == 1
        assert multi[i].counter == single[0].counter == p
        assert multi[i].iteration == single[0].iteration
        assert multi[i].region == single[0].region
        for name, payload in multi[i].nvm_state.items():
            assert np.array_equal(payload, single[0].nvm_state[name]), (
                f"NVM image of {name} differs at crash point {p}"
            )
        assert multi[i].rates == pytest.approx(single[0].rates)


def test_snapshot_counters_strictly_increasing():
    counting = CountingRuntime()
    app = Counterloop(runtime=counting, size=256, nit=6)
    app.setup()
    app.run()
    points = _sample_crash_points((counting.window_begin, counting.counter), 20, 5, "y")
    snaps = snapshots_for(points, PersistencePlan.none())
    counters = [s.counter for s in snaps]
    assert counters == sorted(counters)
    assert len(set(counters)) == len(counters)
