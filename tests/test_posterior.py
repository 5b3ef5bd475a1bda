import datetime as dt
import os
import signal
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from koalition import posterior
from koalition.cli import ConfigError, load_config
from koalition.forecast import ForecastSpec, inflate, shrink_factor
from koalition.pooling import PooledSample
from koalition.posterior import (
    DirichletPosterior,
    posterior_from,
    sample_shares,
)

AS_OF = dt.date(2018, 3, 5)
FIXTURES = Path(__file__).parent / "fixtures"


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


def test_bad_prior_rejected(two_party_registry):
    pooled = make_pooled(two_party_registry, {"a": 1, "b": 1, "other": 0}, 2)
    with pytest.raises(ValueError, match="bad-prior"):
        posterior_from(pooled, two_party_registry, prior_alpha=0.0)


def test_one_prior_rule_at_every_entry_point(tmp_path, registry, pooled_counts):
    # 1e308 is finite and > 0, but not its sum over the 7 parties.
    cfg = tmp_path / "huge-prior.ini"
    cfg.write_text((FIXTURES / "config.ini").read_text()
                   .replace("prior_alpha = 0.5", "prior_alpha = 1e308"))
    with pytest.raises(ConfigError, match="bad-prior"):
        load_config(cfg)
    with pytest.raises(ValueError, match="bad-prior"):
        posterior_from(pooled_counts, registry, 1e308)
    alpha = posterior_from(pooled_counts, registry).alpha
    with pytest.raises(ValueError, match="bad-prior"):
        DirichletPosterior(parties=registry.ids, alpha=alpha, prior=1e308)


@settings(max_examples=200, deadline=None)
@given(
    prior=st.floats(0.0, 1e3, exclude_min=True),
    counts=st.lists(st.integers(0, 10**7), min_size=3, max_size=3),
    horizon=st.integers(0, 3650),
)
def test_one_float_prior_is_the_broadcast_array_bit_for_bit(
    two_party_registry, prior, counts, horizon
):
    # The arithmetic the update and the inflation did on a per-party array.
    pooled = make_pooled(two_party_registry, dict(zip(two_party_registry.ids, counts)),
                         sum(counts))
    post = posterior_from(pooled, two_party_registry, prior)
    priors = np.full(len(counts), prior)
    alpha = priors + np.array(counts, dtype=float)
    assert np.array(post.alpha).tobytes() == alpha.tobytes()

    spec = ForecastSpec(election_date=AS_OF + dt.timedelta(days=horizon), as_of=AS_OF)
    if horizon:
        alpha = priors + shrink_factor(horizon, spec.tau) * (alpha - priors)
    assert np.array(inflate(post, spec).alpha).tobytes() == alpha.tobytes()


def test_empty_request_rejected(simple_posterior):
    with pytest.raises(ValueError, match="empty-request"):
        sample_shares(simple_posterior, 0, seed=1)


def test_row_sums_and_range(collect_shares, simple_posterior):
    draws = collect_shares(simple_posterior, 5000, seed=3)
    assert np.all(np.abs(draws.sum(axis=1) - 1.0) <= 1e-12)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_determinism_and_seed_sensitivity(collect_shares, simple_posterior):
    a = collect_shares(simple_posterior, 2000, seed=11)
    b = collect_shares(simple_posterior, 2000, seed=11)
    c = collect_shares(simple_posterior, 2000, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_seed_outside_domain_rejected(simple_posterior, bad):
    with pytest.raises(ValueError, match="bad-seed"):
        sample_shares(simple_posterior, 10, seed=bad)


def test_edge_seeds_give_distinct_streams(collect_shares):
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
            blocks = [collect_shares(post, 64, seed)[:, col] for seed in seeds]
            for i in range(len(blocks)):
                for j in range(i):
                    assert not np.array_equal(blocks[i], blocks[j]), (party, seeds[i], seeds[j])


def test_prefix_stability(collect_shares, simple_posterior):
    short = collect_shares(simple_posterior, 123, seed=5)
    full = collect_shares(simple_posterior, 9000, seed=5)
    assert np.array_equal(full[:123], short)


def test_worker_invariance(collect_shares, simple_posterior):
    one = collect_shares(simple_posterior, 20_000, seed=9, workers=1)
    four = collect_shares(simple_posterior, 20_000, seed=9, workers=4)
    assert np.array_equal(one, four)


def test_on_block_sees_each_row_once(collect_shares, monkeypatch, simple_posterior):
    # Runs streamed on 4 threads are the rows collected on 1.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run = posterior.RUN * posterior.BLOCK
    m = 3 * run + 5
    seen = []

    def on_block(lo, hi, shares):
        seen.append((lo, hi, threading.get_ident(), shares.copy()))

    assert sample_shares(simple_posterior, m, seed=8, workers=4, on_block=on_block) is None
    draws = collect_shares(simple_posterior, m, seed=8)
    assert sorted((lo, hi) for lo, hi, _, _ in seen) == [
        (0, run), (run, 2 * run), (2 * run, 3 * run), (3 * run, m)
    ]
    # At most min(workers, CPU count, runs) threads, the caller's among them.
    assert len({ident for _, _, ident, _ in seen}) <= 4
    for lo, hi, _, shares in seen:
        assert np.array_equal(shares.T, draws[lo:hi])


def test_unkept_blocks_are_the_kept_rows(collect_shares, monkeypatch, simple_posterior):
    # Two pool threads share four runs, so a thread streams more than one.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    m = 3 * posterior.RUN * posterior.BLOCK + 5
    draws = collect_shares(simple_posterior, m, seed=8)
    seen = {}

    def on_block(lo, hi, shares):
        seen[lo, hi] = shares.copy()

    assert sample_shares(simple_posterior, m, seed=8, workers=2, on_block=on_block) is None
    assert len(seen) == 4
    for (lo, hi), shares in seen.items():
        assert np.array_equal(shares.T, draws[lo:hi])


@pytest.mark.parametrize("workers, on_block", [(1, None), (2, lambda lo, hi, shares: None)])
def test_sampler_memory_is_block_sized(monkeypatch, registry, pooled_counts, workers, on_block):
    # An (m, K) output at m = 1e6 on 7 parties would be 56 MB.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    post = posterior_from(pooled_counts, registry)
    tracemalloc.start()
    try:
        sample_shares(post, 10**6, 5, workers, on_block=on_block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_every_call_samples_on_the_same_pool_threads(monkeypatch, simple_posterior):
    # A pool made per call left the number of malloc arenas, and so the
    # peak memory, to the thread schedule.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    names = set()
    for seed in range(3):
        sample_shares(simple_posterior, 4 * 4096, seed, workers=2,
                      on_block=lambda lo, hi, shares: names.add(threading.current_thread().name))
    assert len(names) <= 2


def test_concurrent_callers_share_the_pool(collect_shares, monkeypatch, simple_posterior):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    m = 3 * 4096 + 5
    serial = [collect_shares(simple_posterior, m, seed, workers=1) for seed in range(6)]
    got = {}

    def call(seed):
        got[seed] = collect_shares(simple_posterior, m, seed, workers=2)

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


def test_forked_child_samples_on_threads_of_its_own(collect_shares, monkeypatch, simple_posterior):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    draws = collect_shares(simple_posterior, 3 * 4096, seed=4, workers=2)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)  # the pool inherited without its threads would hang
            again = collect_shares(simple_posterior, 3 * 4096, seed=4, workers=2)
            code = 0 if np.array_equal(again, draws) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_pool_runs_one_task_per_thread(collect_shares, monkeypatch, simple_posterior):
    # Each task takes blocks in turn, so the pending futures do not grow
    # with m (24,415 blocks at m = 1e8).
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    submitted = []
    pool = ThreadPoolExecutor(max_workers=1)

    class CountingPool:
        def submit(self, fn, *args):
            submitted.append(fn)
            return pool.submit(fn, *args)

    monkeypatch.setattr(posterior, "_POOLS", {1: CountingPool()})
    try:
        m = 40 * 4096 + 3
        draws = collect_shares(simple_posterior, m, seed=6, workers=2)
    finally:
        pool.shutdown()
    assert len(submitted) == 1  # beside the task on the caller's thread
    assert np.array_equal(draws, collect_shares(simple_posterior, m, seed=6))


def test_each_task_makes_one_generator(collect_shares, monkeypatch, registry, pooled_counts):
    # One Philox per task, re-keyed for each party's block, not one per
    # party: two tasks at 7 parties make 2, not 14.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(posterior, "Philox", counting)
    post = posterior_from(pooled_counts, registry)
    assert len(post.parties) == 7
    collect_shares(post, 3 * posterior.RUN * posterior.BLOCK, seed=3, workers=2)
    assert len(made) == 2


def test_first_error_stops_later_blocks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    post = DirichletPosterior(parties=("a", "b"), alpha=(1e-12, 1e-12))
    blocks = []
    gamma_block = posterior._gamma_block

    def counting(stream, key, alpha, block, out):
        blocks.append(block)
        gamma_block(stream, key, alpha, block, out)

    monkeypatch.setattr(posterior, "_gamma_block", counting)
    with pytest.raises(ValueError, match="alpha too small"):
        sample_shares(post, 200 * 4096, seed=1, workers=2)
    # Every block underflows, so each of the two tasks stops after its first.
    assert len(set(blocks)) <= 2


PARTY_KEY = st.one_of(
    st.integers(2**63, 2**64 - 1),
    st.text(min_size=1, max_size=8).map(posterior._party_key),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    parties=st.tuples(PARTY_KEY, PARTY_KEY),
    blocks=st.lists(st.integers(0, 2**40), min_size=1, max_size=4),
    alpha=st.one_of(st.floats(1e-3, 1.0), st.floats(1.0, 1e4)),
)
def test_a_kept_stream_set_to_a_block_is_a_fresh_one(seed, parties, blocks, alpha):
    # One generator, re-keyed between two parties' blocks in turn: drawn
    # into a party row of a (K, RUN * BLOCK) run buffer, each block is a
    # fresh generator's at that key and counter and the other rows keep
    # their bytes; a short block gets the full block's first draws.
    size = posterior.BLOCK
    generator = Generator(Philox(0))
    stream = generator, generator.bit_generator.state
    run = np.random.default_rng(seed % 2**32).random((3, posterior.RUN * size))
    for i, block in enumerate(blocks):
        lo = i % posterior.RUN * size
        for row, party in enumerate(parties):
            key = np.array([seed, party], dtype=np.uint64)
            fresh = Generator(Philox(counter=[0, 0, 0, block], key=key))
            want = fresh.standard_gamma(alpha, size=size)
            before = run.copy()
            posterior._gamma_block(stream, key, alpha, block, run[row, lo : lo + size])
            assert np.array_equal(run[row, lo : lo + size], want)
            before[row, lo : lo + size] = want
            assert run.tobytes() == before.tobytes()
            short = np.empty(5)
            posterior._gamma_block(stream, key, alpha, block, short)
            assert np.array_equal(short, want[:5])


def test_underflow_error_is_the_same_on_any_worker_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    post = DirichletPosterior(parties=("a", "b"), alpha=(1e-12, 1e-12))
    messages = []
    for workers in (1, 2):
        with pytest.raises(ValueError, match="alpha too small") as err:
            sample_shares(post, 2 * posterior.RUN * 4096, seed=1, workers=workers)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_concentration_limit(collect_shares, two_party_registry):
    post = DirichletPosterior(
        parties=("a", "b", "other"), alpha=(1e9, 1e9, 1e-6), other_id="other"
    )
    draws = collect_shares(post, 500, seed=2)
    assert np.all(np.abs(draws[:, 0] - 0.5) < 1e-3)
    assert np.all(np.abs(draws[:, 1] - 0.5) < 1e-3)


def test_moments_match_analytic(collect_shares):
    # Beta(2, 2) marginal: mean 1/2, sd sqrt(1/20)
    post = DirichletPosterior(parties=("a", "b"), alpha=(2.0, 2.0))
    m = 100_000
    draws = collect_shares(post, m, seed=20240301)
    sd = np.sqrt(2.0 * 2.0 / ((4.0) ** 2 * 5.0))
    assert abs(draws[:, 0].mean() - 0.5) <= 3 * sd / np.sqrt(m)


def test_moments_multiparty_all_components(collect_shares):
    alpha = (400.5, 380.5, 120.5, 60.5, 40.5)
    post = DirichletPosterior(parties=tuple("abcde"), alpha=alpha)
    m = 100_000
    draws = collect_shares(post, m, seed=77)
    total = sum(alpha)
    for k, a in enumerate(alpha):
        mean = a / total
        sd = np.sqrt(mean * (1 - mean) / (total + 1))
        assert abs(draws[:, k].mean() - mean) <= 4 * sd / np.sqrt(m)


def test_party_streams_follow_identity(collect_shares, two_party_registry):
    # Reordering parties permutes columns but leaves each party's draws alone.
    p1 = DirichletPosterior(parties=("a", "b", "other"), alpha=(5.0, 3.0, 0.5),
                            other_id="other")
    p2 = DirichletPosterior(parties=("b", "a", "other"), alpha=(3.0, 5.0, 0.5),
                            other_id="other")
    d1 = collect_shares(p1, 1000, seed=4)
    d2 = collect_shares(p2, 1000, seed=4)
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
