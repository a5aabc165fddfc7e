"""The worker's retry policy and circuit breaker."""

from repro.service.worker import CircuitBreaker, RetryPolicy


def test_backoff_is_exponential_capped_and_seeded():
    p = RetryPolicy(base_delay=0.1, max_delay=1.0, seed=3)
    delays = [p.delay("k", a) for a in range(6)]
    assert delays == [p.delay("k", a) for a in range(6)]  # deterministic
    assert RetryPolicy(seed=4).delay("k", 0) != p.delay("k", 0)  # seed matters
    assert p.delay("other-key", 0) != p.delay("k", 0)  # key matters
    for attempt, d in enumerate(delays):
        cap = min(1.0, 0.1 * 2**attempt)
        assert 0.5 * cap <= d <= cap  # jitter stays within [cap/2, cap]
    assert delays[5] <= 1.0  # max_delay caps the tail


def test_circuit_breaker_trips_on_consecutive_failures():
    br = CircuitBreaker(threshold=3)
    assert br.allow()
    assert not br.record_failure()
    assert not br.record_failure()
    br.record_success()  # success resets the streak
    assert not br.record_failure()
    assert not br.record_failure()
    assert br.allow()
    assert br.record_failure()  # third consecutive: trips
    assert not br.allow()
    br.record_success()  # open breakers stay open
    assert not br.allow()
