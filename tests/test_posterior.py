import datetime as dt
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from koalition.pooling import PooledSample
from koalition.posterior import (
    DirichletPosterior,
    posterior_from,
    sample_shares,
)

AS_OF = dt.date(2018, 3, 5)


def make_pooled(registry, counts, n_eff):
    return PooledSample(
        as_of=AS_OF, window_days=14, counts=counts, n_eff=n_eff, polls_used=()
    )


@pytest.fixture
def simple_posterior(two_party_registry):
    pooled = make_pooled(two_party_registry, {"a": 400, "b": 380, "other": 220}, 1000)
    return posterior_from(pooled, two_party_registry, prior_alpha=0.5)


def test_conjugate_addition(two_party_registry):
    pooled = make_pooled(two_party_registry, {"a": 400, "b": 380, "other": 220}, 1000)
    post = posterior_from(pooled, two_party_registry, prior_alpha=0.5)
    assert post.alpha == (400.5, 380.5, 220.5)
    assert post.other_id == "other"


def test_prior_only_posterior_is_legal(two_party_registry):
    pooled = make_pooled(two_party_registry, {"a": 0, "b": 0, "other": 0}, 0)
    post = posterior_from(pooled, two_party_registry, prior_alpha=0.5)
    assert post.alpha == (0.5, 0.5, 0.5)


def test_posterior_mean_ratio(registry):
    counts = dict.fromkeys(registry.ids, 0)
    counts.update({"union": 400, "spd": 380, "gruene": 180, "other": 40})
    # prior 0.5 on 7 parties: total = 1000 + 3.5
    post = posterior_from(make_pooled(registry, counts, 1000), registry)
    mean = post.mean()
    assert mean["spd"] == pytest.approx(380.5 / 1003.5, abs=1e-15)
    assert sum(mean.values()) == pytest.approx(1.0, abs=1e-12)


def test_per_party_prior_mapping(two_party_registry):
    pooled = make_pooled(two_party_registry, {"a": 10, "b": 10, "other": 0}, 20)
    post = posterior_from(
        pooled, two_party_registry, prior_alpha={"a": 1.0, "b": 2.0, "other": 0.5}
    )
    assert post.alpha == (11.0, 12.0, 0.5)


def test_bad_prior_rejected(two_party_registry):
    pooled = make_pooled(two_party_registry, {"a": 1, "b": 1, "other": 0}, 2)
    with pytest.raises(ValueError, match="bad-prior"):
        posterior_from(pooled, two_party_registry, prior_alpha=0.0)
    with pytest.raises(ValueError, match="bad-prior"):
        posterior_from(pooled, two_party_registry, prior_alpha={"a": 1.0})


def test_empty_request_rejected(simple_posterior):
    with pytest.raises(ValueError, match="empty-request"):
        sample_shares(simple_posterior, 0, seed=1)


def test_row_sums_and_range(simple_posterior):
    draws = sample_shares(simple_posterior, 5000, seed=3).draws
    assert np.all(np.abs(draws.sum(axis=1) - 1.0) <= 1e-12)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_determinism_and_seed_sensitivity(simple_posterior):
    a = sample_shares(simple_posterior, 2000, seed=11).draws
    b = sample_shares(simple_posterior, 2000, seed=11).draws
    c = sample_shares(simple_posterior, 2000, seed=12).draws
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_seed_outside_domain_rejected(simple_posterior, bad):
    with pytest.raises(ValueError, match="bad-seed"):
        sample_shares(simple_posterior, 10, seed=bad)


def test_edge_seeds_give_distinct_streams():
    # "spd" has a key word below 2^63 and "union" one above it; a key built
    # through float64 merged these seeds for one party or the other.
    post = DirichletPosterior(
        parties=("union", "spd", "other"), alpha=(300.5, 200.5, 50.5), other_id="other"
    )
    cases = {
        "spd": [2**63, 2**63 + 1, 2**63 + 512, 2**64 - 1],
        "union": [2**53, 2**53 + 1, 2**63 - 1, 2**64 - 1],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for party, seeds in cases.items():
            col = post.parties.index(party)
            blocks = [sample_shares(post, 64, seed).draws[:, col] for seed in seeds]
            for i in range(len(blocks)):
                for j in range(i):
                    assert not np.array_equal(blocks[i], blocks[j]), (party, seeds[i], seeds[j])


def test_prefix_stability(simple_posterior):
    short = sample_shares(simple_posterior, 123, seed=5).draws
    full = sample_shares(simple_posterior, 9000, seed=5).draws
    assert np.array_equal(full[:123], short)


def test_worker_invariance(simple_posterior):
    one = sample_shares(simple_posterior, 20_000, seed=9, workers=1).draws
    four = sample_shares(simple_posterior, 20_000, seed=9, workers=4).draws
    assert np.array_equal(one, four)


def test_on_block_sees_each_row_once(monkeypatch, simple_posterior):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    block = 4096
    m = 3 * block + 5
    seen = []

    def on_block(lo, hi, shares):
        seen.append((lo, hi, threading.get_ident(), shares.copy()))

    draws = sample_shares(simple_posterior, m, seed=8, workers=4, on_block=on_block).draws
    assert sorted((lo, hi) for lo, hi, _, _ in seen) == [
        (0, block), (block, 2 * block), (2 * block, 3 * block), (3 * block, m)
    ]
    assert threading.get_ident() not in {ident for _, _, ident, _ in seen}
    for lo, hi, _, shares in seen:
        assert np.array_equal(shares, draws[lo:hi])


def test_unkept_blocks_are_the_kept_rows(monkeypatch, simple_posterior):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    m = 3 * 4096 + 5
    draws = sample_shares(simple_posterior, m, seed=8).draws
    seen = {}

    def on_block(lo, hi, shares):
        seen[lo, hi] = shares.copy()

    kept = sample_shares(simple_posterior, m, seed=8, workers=2, on_block=on_block,
                         keep=False)
    assert kept is None
    assert len(seen) == 4
    for (lo, hi), shares in seen.items():
        assert np.array_equal(shares, draws[lo:hi])


def test_every_call_samples_on_the_same_pool_threads(monkeypatch, simple_posterior):
    # A pool made per call left the number of malloc arenas, and so the
    # peak memory, to the thread schedule.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    names = set()
    for seed in range(3):
        sample_shares(simple_posterior, 4 * 4096, seed, workers=2, keep=False,
                      on_block=lambda lo, hi, shares: names.add(threading.current_thread().name))
    assert len(names) <= 2


def test_concurrent_callers_share_the_pool(monkeypatch, simple_posterior):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    m = 3 * 4096 + 5
    serial = [sample_shares(simple_posterior, m, seed, workers=1).draws for seed in range(6)]
    got = {}

    def call(seed):
        got[seed] = sample_shares(simple_posterior, m, seed, workers=2).draws

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(seed,)) for seed in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for seed in range(6):
        assert np.array_equal(got[seed], serial[seed])


def test_forked_child_samples_on_threads_of_its_own(monkeypatch, simple_posterior):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    draws = sample_shares(simple_posterior, 3 * 4096, seed=4, workers=2).draws
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)  # the pool inherited without its threads would hang
            again = sample_shares(simple_posterior, 3 * 4096, seed=4, workers=2).draws
            code = 0 if np.array_equal(again, draws) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_underflow_error_is_the_same_on_any_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    post = DirichletPosterior(parties=("a", "b"), alpha=(1e-12, 1e-12))
    messages = []
    for workers in (1, 2):
        with pytest.raises(ValueError, match="alpha too small") as err:
            sample_shares(post, 2 * 4096, seed=1, workers=workers)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_concentration_limit(two_party_registry):
    post = DirichletPosterior(
        parties=("a", "b", "other"), alpha=(1e9, 1e9, 1e-6), other_id="other"
    )
    draws = sample_shares(post, 500, seed=2).draws
    assert np.all(np.abs(draws[:, 0] - 0.5) < 1e-3)
    assert np.all(np.abs(draws[:, 1] - 0.5) < 1e-3)


def test_moments_match_analytic():
    # Beta(2, 2) marginal: mean 1/2, sd sqrt(1/20)
    post = DirichletPosterior(parties=("a", "b"), alpha=(2.0, 2.0))
    m = 100_000
    draws = sample_shares(post, m, seed=20240301).draws
    sd = np.sqrt(2.0 * 2.0 / ((4.0) ** 2 * 5.0))
    assert abs(draws[:, 0].mean() - 0.5) <= 3 * sd / np.sqrt(m)


def test_moments_multiparty_all_components():
    alpha = (400.5, 380.5, 120.5, 60.5, 40.5)
    post = DirichletPosterior(parties=tuple("abcde"), alpha=alpha)
    m = 100_000
    draws = sample_shares(post, m, seed=77).draws
    total = sum(alpha)
    for k, a in enumerate(alpha):
        mean = a / total
        sd = np.sqrt(mean * (1 - mean) / (total + 1))
        assert abs(draws[:, k].mean() - mean) <= 4 * sd / np.sqrt(m)


def test_party_streams_follow_identity(two_party_registry):
    # Reordering parties permutes columns but leaves each party's draws alone.
    p1 = DirichletPosterior(parties=("a", "b", "other"), alpha=(5.0, 3.0, 0.5),
                            other_id="other")
    p2 = DirichletPosterior(parties=("b", "a", "other"), alpha=(3.0, 5.0, 0.5),
                            other_id="other")
    d1 = sample_shares(p1, 1000, seed=4).draws
    d2 = sample_shares(p2, 1000, seed=4).draws
    assert np.array_equal(d1[:, 0], d2[:, 1])  # party a
    assert np.array_equal(d1[:, 1], d2[:, 0])  # party b
    assert np.array_equal(d1[:, 2], d2[:, 2])  # other


def test_posterior_requires_positive_alpha():
    with pytest.raises(ValueError):
        DirichletPosterior(parties=("a", "b"), alpha=(1.0, 0.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_alpha_is_a_bad_prior(two_party_registry, bad):
    with pytest.raises(ValueError, match="bad-prior"):
        DirichletPosterior(parties=("a", "b"), alpha=(1.0, bad))
    pooled = make_pooled(two_party_registry, {"a": 1, "b": 1, "other": 0}, 2)
    with pytest.raises(ValueError, match="bad-prior"):
        posterior_from(pooled, two_party_registry, prior_alpha=bad)


def test_alpha_total_must_be_finite():
    # Each component is finite, their sum is not: every row of Gamma draws
    # would overflow.
    with pytest.raises(ValueError, match="bad-prior"):
        DirichletPosterior(parties=("a", "b"), alpha=(1e308, 1e308))


def test_draws_are_read_only(simple_posterior):
    matrix = sample_shares(simple_posterior, 1000, seed=1)
    with pytest.raises(ValueError):
        matrix.draws[0, 0] = 0.5
