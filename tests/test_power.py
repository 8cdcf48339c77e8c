"""Argument checks of the size/power study."""

import pytest

from didperm import run_power_study

VALID = dict(cell_n=4, delta=0.0, noise_sd=1.0, replications=1, alpha=0.05, iterations=49)


@pytest.mark.parametrize(
    "argument, value, message",
    [
        ("cell_n", 0, "cell_n must be >= 1"),
        ("replications", 0, "replications must be >= 1"),
        ("noise_sd", 0.0, "noise_sd must be positive"),
        ("alpha", 1.0, "alpha must lie strictly between 0 and 1"),
        # simulate_null's rule; derive_seed alone would wrap either seed into 64 bits
        ("master_seed", 2**64, "master_seed must be an unsigned 64-bit integer"),
        ("master_seed", -1, "master_seed must be an unsigned 64-bit integer"),
    ],
)
def test_rejects_bad_argument(argument, value, message):
    with pytest.raises(ValueError, match=message):
        run_power_study(**{**VALID, argument: value})
