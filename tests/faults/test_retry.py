"""RetryPolicy: backoff shape and jitter bounds."""

import pytest

from repro.faults.retry import RetryPolicy


class TestDelay:
    def test_exponential_then_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, jitter=0.0)
        delays = [policy.delay_s(k) for k in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounded_fraction(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=10.0, jitter=0.25, seed=1)
        rng = policy.rng()
        for attempt in range(1, 8):
            base = policy.delay_s(attempt)
            jittered = policy.delay_s(attempt, rng)
            assert base <= jittered <= base * 1.25

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_s(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)
