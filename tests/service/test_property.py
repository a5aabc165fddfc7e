"""Property-based interleaving test for the service's safety invariants.

Hypothesis drives random sequences of grants, clock ticks, heartbeats,
reaper runs and commits (with current and deliberately stale tokens)
against a :class:`LeaseTable` plus :class:`TrialLedger`, checking the
three load-bearing invariants of the whole design:

* fencing tokens are **strictly increasing** across all grants, including
  re-grants of reaped chunks;
* a commit succeeds **only** under the chunk's current lease token — a
  stale token is never accepted, no matter the interleaving;
* every trial index reaches the ledger **exactly once**, however many
  times its records are delivered.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import TrialLedger
from repro.service.leases import Chunk, LeaseTable

N_CHUNKS = 4
INDICES = {c: tuple(range(c * 3, c * 3 + 3)) for c in range(N_CHUNKS)}

_chunk_ids = st.integers(min_value=0, max_value=N_CHUNKS - 1)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("grant"), st.sampled_from(["w1", "w2", "w3"])),
        st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=10.0)),
        st.tuples(st.just("heartbeat"), _chunk_ids),
        st.tuples(st.just("reap"), st.none()),
        st.tuples(st.just("commit"), _chunk_ids),
        st.tuples(st.just("commit_stale"), _chunk_ids),
        st.tuples(st.just("deliver"), _chunk_ids),
    ),
    max_size=80,
)


@settings(max_examples=75, deadline=None)
@given(_ops)
def test_fencing_and_exactly_once_under_arbitrary_interleavings(sequence):
    table = LeaseTable(
        [Chunk(c, 0, INDICES[c]) for c in range(N_CHUNKS)], deadline_s=5.0
    )
    ledger = TrialLedger(journal=None)
    now = 0.0
    last_token = 0
    live: dict[int, int] = {}  # chunk -> token we believe is current
    committed: set[int] = set()
    delivered: set[int] = set()  # indices the ledger accepted (model)

    def deliver(chunk_id):
        # any holder — zombie or current — may stream the chunk's records
        for i in INDICES[chunk_id]:
            if ledger.add(i, object()):
                assert i not in delivered, "index journaled twice"
                delivered.add(i)

    for op, arg in sequence:
        if op == "grant":
            state = table.grant(arg, now)
            if state is not None:
                assert state.token > last_token, "fencing tokens must increase"
                last_token = state.token
                assert state.chunk.chunk_id not in committed
                live[state.chunk.chunk_id] = state.token
        elif op == "tick":
            now += arg
        elif op == "heartbeat":
            token = live.get(arg)
            if token is not None:
                table.heartbeat(arg, token, now)
        elif op == "reap":
            for state in table.expire_due(now):
                live.pop(state.chunk.chunk_id, None)
        elif op == "commit":
            token = live.get(arg)
            if token is None:
                continue
            deliver(arg)
            assert table.commit(arg, token) == "ok"
            committed.add(arg)
            live.pop(arg)
        elif op == "commit_stale":
            stale = table.states[arg].token - 1
            deliver(arg)  # the zombie's records still landed...
            assert table.commit(arg, stale) != "ok"  # ...but its seal fences

    # ledger state is consistent with what was delivered and committed
    assert ledger.indices == delivered
    for chunk_id in committed:
        assert set(INDICES[chunk_id]) <= ledger.indices
    assert table.done() == (committed == set(range(N_CHUNKS)))
