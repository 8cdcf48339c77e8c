"""Committed SHA-256 pins of `simulate_null` runs, of two CLI reports and of audit output.

The `simulate_null` pins hold the stream contract fixed; the report pins
hold the bytes that `didperm enumerate` and `didperm test` write, and
`AUDIT_PINS` the lines that `didperm audit` prints.

The replay tests (`helpers.replay_block`) compare `simulate_null` with an
oracle that shares no draw code with it.  Up to n = 4096 (multi-row
blocks), and for Bernoulli rows at every n (stream contract block-v4),
both sides read only Philox's raw words, whose stream NEP 19 keeps fixed
across numpy versions: the oracle ranks them with Python's `sorted`,
reads Bernoulli bits by shifts of Python ints and builds the count
thresholds in exact rationals.  Fixed-margin rows past n = 4096 (one-row
blocks) call the same `Generator` methods on both sides (`choice`,
`hypergeometric`), so a numpy release that changed one of them would
move both sides alike and leave them agreeing.  These pins would not
move with it.

Each pin is the SHA-256 of a run's values (little-endian float64 bytes)
and its discard count, for the four schemes on one deterministic panel
per n, over 2B + 5 iterations (three stream blocks).  n = 5, 80 and
4096 take multi-row blocks, so their pins hold block-v4.  At n = 5000
(one-row blocks) the fixed-margin pins hold block-v2's subset draw, and
the Bernoulli pins block-v4's raw-word rows.  The n = 5 panel discards
thousands of degenerate draws, so its pins cover the redraw order too.

`digest_panel` has n/3 affected, so none of those pins reaches the
agreement-set draw, taken at dual fixed margins with both margins n/2.
`BALANCED_PINS` pin it the same way, at n = 80 (multi-row blocks,
block-v4) and n = 5000 (one-row blocks, block-v3), on a panel with both
margins n/2.  The `test` report pin (INPRESS, 20 observations per cell,
dual fixed margins) is balanced and multi-row, so it also pins block-v4.

`EXACT_PINS` pin `enumerate_null` the same way: the SHA-256 of its
values, in increasing order, and its discard count.  Dual fixed margins
with both margins n/2 at n = 8 and n = 12 reach the agreement-set route,
with normal outcomes and with outcomes near the range that ingest allows
(`helpers.range_outcomes`), whose sums are taken scaled by a power of
two; dual Bernoulli at n = 9 reaches the product-form walk.

`WALK_PINS` pin the product-form walk on the other spaces it takes, in
both of its orientations (`panel._product_cells` sums along the label
block with fewer rows).  Dual fixed margins 4 and 4 at n = 12 step
through the affected rows.  Affected-only fixed (n = 16, margin 8) and
Bernoulli (n = 12) spaces step through the one time row, and so do dual
fixed margins 6 and 2 at n = 12.  Margins 6 and 1 step the same way,
but a time margin of 1 empties a cell of every relabeling, so that pin
holds the discard count of a space with no value.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from didperm import (
    INPRESS,
    Margins,
    Mode,
    PanelSample,
    RandomizationScheme,
    make_fixture,
    enumerate_null,
    generator_for,
    simulate_null,
    write_fixture_csv,
)
from didperm.cli import main
from helpers import documented_block_rows, range_outcomes

MASTER_SEED = 11

# (n, margins, mode) -> (SHA-256 of the values, degenerate draws discarded)
PINS = {
    (5, "affected", "fixed"): ("62520182073e7d2e161c301926e4ba1c32069b4a27c0bc0cb9aca13052b56b41", 2257),
    (5, "affected", "bernoulli"): ("3d460b17a753d265ad52e85619a87b1a8fe4cac1c9622909748a9a526f4ce2f4", 5558),
    (5, "dual", "fixed"): ("aa9ee8992aa29f982f6cdf35fa3c8e4d8f16112f76a08ca3ed3f434d72c0f1c4", 2164),
    (5, "dual", "bernoulli"): ("24e8bf6b2b2c47fcf6cc4d88ac00da0bf47f9d1944f78309c90e2006ca3b743c", 10674),
    (80, "affected", "fixed"): ("57e3406136ef87c014543f77749b30f7175a0fc3ac6cb11ef8dd12e5809e5f6a", 0),
    (80, "affected", "bernoulli"): ("7dea4f1ec3d0ad2a8880233f9aebe85614d4671098ba77c2f3cbc05fa7229bf6", 0),
    (80, "dual", "fixed"): ("d8dc9dc96b5d2d2c947e2035a55d31df5167ec84c142ccd39e465646648a7c08", 0),
    (80, "dual", "bernoulli"): ("e825fd6a6e4717ff5b84a4b8fcad19c99c265e41a2ef4cc67af3a8a18f38851c", 0),
    (4096, "affected", "fixed"): ("b9f53455c47bc85b841d6c3716f78cb5176f18a819069534e2814f58c668286d", 0),
    (4096, "affected", "bernoulli"): ("aef2f1ca2a9aacc1842d85b67dc487d9d45badb2789164cee004189210cde810", 0),
    (4096, "dual", "fixed"): ("55d70bb0d664a4f81ebd4ed54cbf5b984407f8d34a438fb338d9ac84a7414326", 0),
    (4096, "dual", "bernoulli"): ("004375faa500a5e65ba4403eac0f14f045954dc3396c1ce0b69cb892a719ed1a", 0),
    (5000, "affected", "fixed"): ("829184d3cd3979c68159b871f164baf48e3c9ac8dec510474b678bf6598239f4", 0),
    (5000, "affected", "bernoulli"): ("04f4bbcf373076d1844a8dbf946322e156a3bef991fba805c1916dbfe44b96f7", 0),
    (5000, "dual", "fixed"): ("05599492f27482880df62397c5fb5d69bbf8307fb4594f0af262b3801ab339a6", 0),
    (5000, "dual", "bernoulli"): ("c063cde5fa146feb225d9305233be33b638fc79cc22c8a77a752aeec17093604", 0),
}


# n -> (SHA-256 of the values, degenerate draws discarded), dual fixed margins
BALANCED_PINS = {
    80: ("1272e076d8eedc9bd524bd381f2a54e4395b0518cba0bfe288ad8e9f3232de7d", 0),
    5000: ("cbd526fc400414f152a23478fb2012754989fbd6728dae315ebb8657e0d01517", 0),
}


# (n, outcomes, mode) -> (SHA-256 of the values, degenerate relabelings discarded), dual margins
EXACT_PINS = {
    (8, "normal", "fixed"): ("4f941bad94396f62bdfa8be99491d9267ad0c5819168cc864ffc2707fafec061", 140),
    (8, "range", "fixed"): ("e54913d20a1f3cfdc85a5a437f022baff89328aed810972f5b779016e274cc28", 140),
    (12, "normal", "fixed"): ("93bf2baef598393a84cc85badc48ce421bd4729636f3d8893cd9a927a44ffa0b", 1848),
    (12, "range", "fixed"): ("e453f98eabc1aa79ccef4c782c34370f92b69490f211f0f8287915453d9bcd24", 1848),
    (9, "normal", "bernoulli"): ("2953e0ab8faf2e6439bf90dc5fb74dbcb3c71700e64b0cf94432ae1bb3a6d0e5", 75664),
}


# (n, n_affected, n_time, margins, mode) -> (SHA-256 of the values, degenerate
# relabelings discarded), on `walk_panel`
WALK_PINS = {
    (16, 8, 8, "affected", "fixed"): ("54e18e962a9dd62e83f67932f90ee16131cfeb6e1dd6c104acd3bcf89312c8c9", 2),
    (12, 6, 6, "affected", "bernoulli"): ("10107b381e13e90270644cf0329bfd0d7c3976e38c79a541a18369ce15e5b9ad", 252),
    (12, 4, 4, "dual", "fixed"): ("cf840914ae83c0d3dc9274848517b65b2db9433e77650fb9a4ca4116b7f7d010", 35145),
    (12, 6, 1, "dual", "fixed"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 11088),
    (12, 6, 2, "dual", "fixed"): ("769acd715c0592e27a599139c321a89509ea6ed9f3e7cc77c91f9339b773afb5", 27720),
}


def digest_panel(n):
    """A panel built from integer arithmetic alone, so it needs no random stream.

    Margins: affected holds ceil(n/3) ones, time floor(n/2), so at even n
    the time margin is a tie.
    """
    i = np.arange(n)
    y = (i * 7919 % 1009) / 101.0 - 5.0
    return PanelSample(y=y, time=i % 2, affected=(i % 3 == 0).astype(int))


def balanced_digest_panel(n):
    """`digest_panel`'s outcomes with both margins at n/2 (n even) and every cell n/4 or so."""
    i = np.arange(n)
    y = (i * 7919 % 1009) / 101.0 - 5.0
    return PanelSample(y=y, time=i % 2, affected=(i // 2) % 2)


def exact_panel(n, outcomes):
    """`balanced_digest_panel`'s labels with standard normal or near-range outcomes."""
    i = np.arange(n)
    y = generator_for(n).standard_normal(n) if outcomes == "normal" else range_outcomes(n)
    return PanelSample(y=y, time=i % 2, affected=(i // 2) % 2)


def walk_panel(n, n_affected, n_time):
    """Standard normal outcomes; the first n_affected observations are affected, every (n // n_time)-th is post."""
    i = np.arange(n)
    y = generator_for(n).standard_normal(n)
    return PanelSample(y=y, time=i % (n // n_time) == 0, affected=i < n_affected)


def digest(dist):
    """SHA-256 of a distribution's values, and its discard count."""
    values = hashlib.sha256(dist.values.astype("<f8").tobytes()).hexdigest()
    return values, dist.degenerate_draws_discarded


def run_digest(sample, scheme):
    """SHA-256 of the values of a 2B + 5 iteration run, and its discard count."""
    iterations = 2 * documented_block_rows(sample.n) + 5
    return digest(simulate_null(sample, scheme, iterations=iterations, master_seed=MASTER_SEED))


@pytest.mark.parametrize("n, margins, mode", sorted(PINS))
def test_simulate_null_digest(n, margins, mode):
    scheme = RandomizationScheme(Margins(margins), Mode(mode))
    assert run_digest(digest_panel(n), scheme) == PINS[n, margins, mode], (
        f"the simulate_null stream for n={n}, {margins}/{mode} changed under "
        f"numpy {np.__version__}; the pins hold the documented stream contract "
        "(block-v4 up to n = 4096, block-v2 past it)"
    )


@pytest.mark.parametrize("n", sorted(BALANCED_PINS))
def test_balanced_dual_fixed_digest(n):
    scheme = RandomizationScheme(Margins.DUAL, Mode.FIXED_MARGINS)
    assert run_digest(balanced_digest_panel(n), scheme) == BALANCED_PINS[n], (
        f"the simulate_null stream for n={n}, dual/fixed with both margins n/2, "
        f"changed under numpy {np.__version__}; the pins hold stream contracts "
        "block-v4 (n = 80) and block-v3 (n = 5000)"
    )


@pytest.mark.parametrize("n, outcomes, mode", sorted(EXACT_PINS))
def test_enumerate_null_digest(n, outcomes, mode):
    dist = enumerate_null(exact_panel(n, outcomes), RandomizationScheme(Margins.DUAL, Mode(mode)))
    assert digest(dist) == EXACT_PINS[n, outcomes, mode], (
        f"the enumerate_null values for n={n}, {outcomes} outcomes, dual/{mode} "
        f"changed under numpy {np.__version__}"
    )


@pytest.mark.parametrize("n, n_affected, n_time, margins, mode", sorted(WALK_PINS))
def test_product_walk_digest(n, n_affected, n_time, margins, mode):
    scheme = RandomizationScheme(Margins(margins), Mode(mode))
    dist = enumerate_null(walk_panel(n, n_affected, n_time), scheme)
    assert digest(dist) == WALK_PINS[n, n_affected, n_time, margins, mode], (
        f"the enumerate_null values for n={n}, margins ({n_affected}, {n_time}), "
        f"{margins}/{mode} changed under numpy {np.__version__}"
    )


# command -> (observations per cell of the INPRESS fixture, flags, SHA-256 of
# the report bytes).  The enumerate run is n = 12 with both margins 6, so
# its p-value counts ties within the tie tolerance.
REPORT_PINS = {
    "enumerate": (
        3,
        ["--scheme", "dual", "--mode", "fixed"],
        "26f1f49419de16cd9a100df32b1911c5903968b44fa2fbbeaecb055b1689a4f7",
    ),
    "test": (
        20,
        ["--iterations", "3000", "--seed", "11"],
        "e00e51a867204977fa3b71bd5fac896cbce4b69ae713bebf9bdb08abf162c303",
    ),
}


@pytest.mark.parametrize("command", sorted(REPORT_PINS))
def test_report_digest(command, tmp_path):
    per_cell, flags, pin = REPORT_PINS[command]
    path = write_fixture_csv(tmp_path / "inpress.csv", make_fixture(INPRESS, per_cell=per_cell))
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--input", str(path), *flags, "--output", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == pin, (
        f"the didperm {command} report bytes (n = {4 * per_cell}) changed under "
        f"numpy {np.__version__}"
    )


# (n, n_affected, n_time, margins, mode) -> SHA-256 of the `didperm audit`
# stdout (outcome seed 0).  Balanced and unbalanced dual fixed spaces, dual
# Bernoulli and affected-only fixed margins.
AUDIT_PINS = {
    (12, 6, 6, "dual", "fixed"): "99a5386f36f0b2ac84ce5e6fb6c6b331bc22e3e8197da7507f2ed75b3fca53db",
    (12, 4, 6, "dual", "fixed"): "1804da6bc009ff112471763787c52cac2bc7a9299788890538a705979c0d16e8",
    (10, 5, 5, "dual", "fixed"): "15c63d6c8de0c1494aff6d46f29c214e0ebb3181b5c6d536bb9e4f2bf4bf4cc2",
    (9, 4, 5, "dual", "bernoulli"): "ffe17d1cc429a1a55e0007074c92b8be0ab7538fc377569a317fc5c22191eee7",
    (8, 4, 4, "affected", "fixed"): "4d23a236bb99503dba8cda30653c05b3e6329d697ef2f2b87d20a673288e1bc3",
}


@pytest.mark.parametrize("n, n_affected, n_time, margins, mode", sorted(AUDIT_PINS))
def test_audit_digest(n, n_affected, n_time, margins, mode):
    flags = ["--n", str(n), "--n-affected", str(n_affected), "--n-time", str(n_time)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["audit", *flags, "--scheme", margins, "--mode", mode])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == AUDIT_PINS[n, n_affected, n_time, margins, mode], (
        f"the didperm audit output for n={n}, margins ({n_affected}, {n_time}), "
        f"{margins}/{mode} changed under numpy {np.__version__}"
    )
