"""The vectorized refinement commit against the one-at-a-time rule.

``refine._commit`` decides which of a batch's movers commit; the
sequential loop ``refine._commit_sequential`` is the reference.  Every
case compares the commit mask and the ``joined`` marks bit for bit, under
the production round cutoffs and under cutoffs that force all rounds,
no rounds, or one round and then the tail.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import refine

#: (ROUND_MIN_MOVERS, ROUND_MIN_UNDECIDED, ROUND_MIN_SHARE) settings.
CUTOFFS = {
    "production": (refine.ROUND_MIN_MOVERS, refine.ROUND_MIN_UNDECIDED,
                   refine.ROUND_MIN_SHARE),
    "rounds-only": (1, 0, 0.0),
    "tail-only": (1, 10 ** 9, 0.0),
    "one-round": (1, 0, 2.0),
}

SHAPES = ("random", "two-cycles", "cycle", "chain-up", "chain-down",
          "one-target", "outside")


@pytest.fixture(params=sorted(CUTOFFS))
def cutoffs(request, monkeypatch):
    names = ("ROUND_MIN_MOVERS", "ROUND_MIN_UNDECIDED", "ROUND_MIN_SHARE")
    for name, value in zip(names, CUTOFFS[request.param]):
        monkeypatch.setattr(refine, name, value)
    return request.param


def make_batch(shape, k, num_labels, seed, joined_frac=0.0, race_frac=0.0):
    """Movers with distinct ascending own labels and ``shape`` targets."""
    rng = np.random.default_rng(seed)
    num_labels = max(num_labels, k + 2)
    own = np.sort(rng.choice(num_labels, k, replace=False)).astype(np.int32)
    if shape == "random":
        target = rng.integers(0, num_labels, k).astype(np.int32)
    elif shape == "two-cycles":  # movers 2i and 2i+1 target each other
        target = own.copy()
        even = k - k % 2
        target[:even] = own[:even].reshape(-1, 2)[:, ::-1].ravel()
    elif shape == "cycle":
        target = np.roll(own, -rng.integers(1, max(k, 2)))
    elif shape == "chain-up":
        target = np.append(own[1:], own[-1] + 1).astype(np.int32)
    elif shape == "chain-down":
        target = np.insert(own[:-1], 0, own[0] + 1).astype(np.int32)
    elif shape == "one-target":
        target = np.full(k, own[rng.integers(0, k)], dtype=np.int32)
    else:  # targets that are nobody's own label
        others = np.setdiff1d(np.arange(num_labels), own)
        target = rng.choice(others, k).astype(np.int32)
    same = target == own  # a mover never targets its own label
    target[same] = (target[same] + 1) % num_labels
    num_labels = max(num_labels, int(target.max()) + 1)
    joined = rng.random(num_labels) < joined_frac
    races = rng.random(k) < race_frac if race_frac else None
    return own, target, joined, races


def both(own, target, joined, races, scratch=None):
    """(vectorized, reference) results of one batch: mask and joined."""
    n = joined.shape[0]
    if scratch is None:
        # Stale contents: the commit must not rely on a cleared map.
        scratch = np.random.default_rng(0).integers(
            -2 ** 40, 2 ** 40, n, dtype=np.int64)
    jv, jr = joined.copy(), joined.copy()
    vacated = np.zeros(n, dtype=bool)
    got = refine._commit(own, target, jv, vacated.copy(), races, scratch)
    want = refine._commit_sequential(own, target, jr, vacated, races)
    assert not vacated.any()
    return (got, jv), (want, jr)


def assert_same(own, target, joined, races):
    (got, jv), (want, jr) = both(own, target, joined, races)
    assert got.dtype == want.dtype == bool
    assert np.array_equal(got, want)
    assert np.array_equal(jv, jr)
    return want


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.sampled_from(SHAPES),
       k=st.integers(1, 700),
       spare=st.integers(0, 3000),
       seed=st.integers(0, 2 ** 31 - 1),
       joined_frac=st.sampled_from([0.0, 0.05, 0.5]),
       race_frac=st.sampled_from([0.0, 0.002, 0.2]))
def test_commit_matches_sequential(cutoffs, shape, k, spare, seed,
                                   joined_frac, race_frac):
    own, target, joined, races = make_batch(
        shape, k, k + spare, seed, joined_frac, race_frac)
    assert_same(own, target, joined, races)


@pytest.mark.parametrize("shape", ["chain-up", "chain-down"])
def test_long_monotone_chain(cutoffs, shape):
    own, target, joined, races = make_batch(shape, 4096, 4096, seed=1)
    commit = assert_same(own, target, joined, races)
    if shape == "chain-up":
        # Mover k targets mover k+1: every other mover commits.
        assert commit.tolist() == [k % 2 == 0 for k in range(4096)]


def test_many_movers_on_one_target(cutoffs):
    own, target, joined, races = make_batch("one-target", 2048, 4096, seed=3)
    commit = assert_same(own, target, joined, races)
    owner = int(np.flatnonzero(own == target[0])[0])
    # Everyone below the target's owner piles in; the owner stays (its
    # own label was joined); everyone above finds the label still there.
    assert commit.sum() == 2047 and not commit[owner]


def test_owns_joined_by_earlier_batches(cutoffs):
    own, target, joined, _ = make_batch("random", 1500, 3000, seed=4)
    joined[own[::3]] = True
    commit = assert_same(own, target, joined, None)
    assert not commit[::3].any()


def test_forced_races_always_commit(cutoffs):
    own, target, joined, _ = make_batch("chain-up", 1024, 1024, seed=5,
                                        joined_frac=0.3)
    races = np.zeros(1024, dtype=bool)
    races[1::2] = True  # the movers the chain rule would reject
    commit = assert_same(own, target, joined, races)
    assert commit[races].all()


def test_repeated_own_labels_use_the_loop(cutoffs):
    # A caller-supplied membership with zero-weight members can hand two
    # movers the same own label.
    rng = np.random.default_rng(6)
    own = np.sort(rng.integers(0, 400, 1024)).astype(np.int32)
    target = rng.integers(0, 400, 1024).astype(np.int32)
    target[target == own] = (target[target == own] + 1) % 400
    joined = np.zeros(400, dtype=bool)
    assert_same(own, target, joined, None)
    assert refine._commit_rounds(own, target, joined.copy(), None,
                                 np.zeros(400, dtype=np.int64)) is None


def test_rounds_path_runs_under_production_cutoffs():
    own, target, joined, races = make_batch("random", 4096, 8192, seed=7)
    scratch = np.zeros(joined.shape[0], dtype=np.int64)
    commit = refine._commit_rounds(own, target, joined.copy(), races, scratch)
    assert commit is not None
    assert np.array_equal(commit, assert_same(own, target, joined, races))
