"""Conjugate Dirichlet posterior over party shares and reproducible sampling.

The posterior is the standard Dirichlet-multinomial update: concentration
alpha_k = prior + counts_k, one float prior for every party. Sampling
draws one Gamma variate per party and normalizes rows to sum 1.

Reproducibility contract: the Gamma stream for draw block c of party p is
keyed by (seed, party id, c) through a counter-based Philox generator, so
draw i depends only on (seed, i) and the party's own alpha. Consequences:

* identical (seed, m, alpha) give bit-identical rows on any worker
  count or schedule;
* the first k rows of a larger run equal a run of size k (prefix-stable);
* reordering parties permutes columns without changing any party's draws.

The unit of parallel work is a run of RUN consecutive blocks: one task,
run on the caller's thread and on each pool thread, draws each block of
a run for every party with the task's one Philox generator, set to the
party's key and the block's own counter, normalizes its rows in the
task's run buffer and hands the run's rows to the caller's hook on the
same thread. The run buffer is party-major: each party's Gamma block
is drawn straight into its own contiguous row, the row totals come from
electoral.row_totals over those party rows, equal bit for bit to a
row-major np.sum(axis=1), and the rows are divided in place. The hook
gets that (K, n) buffer itself. No sampler call holds an (m, K) array: a
caller reduces each run as it comes, and memory stays run-sized whatever
m is. Without a hook the runs are drawn and dropped. Every step works
draw by draw, so neither block nor run boundaries nor the schedule
change a bit.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .electoral import row_totals
from .pooling import PooledSample, PoolingConfig, pool
from .polls import PartyRegistry, Poll

__all__ = [
    "DirichletPosterior",
    "check_prior",
    "posterior_at",
    "posterior_from",
    "sample_shares",
]

DEFAULT_PRIOR_ALPHA = 0.5
DEFAULT_DRAWS = 100_000

# Draws are generated in fixed blocks, each at its own counter, which is
# what makes the stream prefix-stable: a partial tail block draws only its
# first rows, the same values a full block starts with.
BLOCK = 4096
# The hook gets RUN blocks per call, each drawn at its own counter: a
# caller's fixed cost per call is paid once per run, and each thread's
# buffers grow with the run.
RUN = 2
# Seeds are Philox key words: the domain is [0, 2^64).
SEED_BOUND = 1 << 64

# One pool per size, kept for the process, beside the caller's thread:
# with a pool per call, new threads that start before the old ones have
# returned their malloc arenas open more, so peak memory followed the
# thread schedule.
_POOLS: dict[int, ThreadPoolExecutor] = {}
os.register_at_fork(after_in_child=_POOLS.clear)  # a child has no pool threads


@dataclass(frozen=True)
class DirichletPosterior:
    """Concentration vector over parties, ordered as in the registry.

    prior is the float every alpha was updated from (posterior_from sets
    it), checked here once; forecast.inflate shrinks toward it, and
    refuses a posterior without one.
    """

    parties: tuple[str, ...]
    alpha: tuple[float, ...]
    other_id: str | None = None
    prior: float | None = None
    source: PooledSample | None = field(default=None, compare=False, hash=False)

    def __post_init__(self):
        if len(self.parties) != len(self.alpha):
            raise ValueError("parties and alpha length mismatch")
        if self.prior is not None:
            check_prior(self.prior, len(self.parties))
            if any(a < self.prior for a in self.alpha):
                raise ValueError("posterior alpha below prior: data content negative")
        if not all(math.isfinite(a) and a > 0 for a in self.alpha):
            raise ValueError("bad-prior: every alpha component must be finite and > 0")
        if not math.isfinite(self.alpha_total):
            raise ValueError("bad-prior: the alpha components must have a finite sum")
        if self.other_id is not None and self.other_id not in self.parties:
            raise ValueError(f"other bucket {self.other_id!r} not among parties")

    @property
    def alpha_total(self) -> float:
        return float(sum(self.alpha))

    def mean(self) -> dict[str, float]:
        total = self.alpha_total
        return {p: a / total for p, a in zip(self.parties, self.alpha)}


def check_prior(prior_alpha: float, n_parties: int) -> None:
    """The one rule for a prior: > 0, with a finite sum over the n parties.

    Raises:
        ValueError: "bad-prior" when prior_alpha breaks the rule.
    """
    if not (prior_alpha > 0 and math.isfinite(prior_alpha * n_parties)):
        raise ValueError(f"bad-prior: prior_alpha must be > 0 with a finite sum over "
                         f"{n_parties} parties, got {prior_alpha}")


def posterior_from(
    pooled: PooledSample,
    registry: PartyRegistry,
    prior_alpha: float = DEFAULT_PRIOR_ALPHA,
) -> DirichletPosterior:
    """Conjugate update: alpha_k = prior_alpha + counts_k.

    prior_alpha is one float, the same for every party, and the
    posterior carries it as its prior.

    Raises:
        ValueError: "bad-prior" from check_prior.
    """
    parties = registry.ids
    alpha = tuple(prior_alpha + float(pooled.counts.get(pid, 0)) for pid in parties)
    return DirichletPosterior(parties=parties, alpha=alpha, other_id=registry.other_id,
                              prior=prior_alpha, source=pooled)


def posterior_at(
    polls: list[Poll],
    registry: PartyRegistry,
    as_of: dt.date,
    pooling: PoolingConfig = PoolingConfig(),
    prior_alpha: float = DEFAULT_PRIOR_ALPHA,
) -> DirichletPosterior:
    """Pool the polls of as_of's window, then update the prior with them.

    The pooled sample stays attached as the posterior's source.

    Raises:
        NoPollsError: when the window holds no poll.
    """
    pooled = pool(polls, registry, as_of, pooling.window_days, pooling.dependence_factor)
    return posterior_from(pooled, registry, prior_alpha)


def _party_key(party_id: str) -> int:
    # Stable across runs and platforms, unlike hash(). A prefix >= 2^63 is
    # rounded to float64 precision: that is the key word the sampler has
    # always used for such parties, so every stream at seeds below 2^53
    # stays as it was. A prefix that rounds up to 2^64 is clamped into
    # the uint64 key word.
    digest = hashlib.sha256(party_id.encode("utf-8")).digest()
    prefix = int.from_bytes(digest[:8], "big")
    if prefix < 1 << 63:
        return prefix
    return min(int(float(prefix)), SEED_BOUND - 1)


def _gamma_block(stream: tuple[Generator, dict], key: np.ndarray, alpha: float,
                 block: int, out: np.ndarray) -> None:
    # stream is a task's Philox generator and a fresh state of it: counter
    # 0 and an empty output buffer. Set to the party's (seed, party key)
    # pair and the block's counter, it draws what a new Philox there
    # would, for ~2 us against ~15 us and an OS entropy read. The block
    # index lives in the high counter word, leaving 2^192 values of stream
    # per block: no overlap, no coordination between blocks. The generator
    # fills out in order, so out, at most BLOCK values, gets the block's
    # first out.size draws.
    generator, state = stream
    state["state"]["key"] = key
    state["state"]["counter"][3] = block
    generator.bit_generator.state = state
    generator.standard_gamma(alpha, size=out.size, out=out)


def sample_shares(
    posterior: DirichletPosterior,
    m: int,
    seed: int,
    workers: int = 1,
    *,
    on_block: Callable[[int, int, np.ndarray], None] | None = None,
) -> None:
    """Draw m share vectors from the posterior, reproducibly, a run at a time.

    The same task runs at every worker count. A run is RUN
    consecutive 4096-draw blocks (the last run may be shorter): for each
    block the task draws every party's Gamma block at that block's
    counter into the party's row of the run, sums the block's rows with
    electoral.row_totals and divides them in place, then calls
    on_block(lo, hi, shares) on its thread with the run's rows [lo, hi):
    shares is the task's run buffer, a C-ordered (K, hi - lo) array of
    party rows. The hook may overwrite it; it is valid only during the
    call; nothing is returned, and no call holds an (m, K) array. Without
    on_block the runs are drawn and dropped. When it starts, a task
    makes that buffer (RUN x 4096 x K floats), one row-sum scratch for a
    block's row totals and their spare (4 x 4096 floats) and one Philox
    generator, re-keyed for each party's block, and reuses them until it
    ends. Threads are capped at min(workers, CPU count, runs): the
    caller's thread runs the task, and the process's pool of one thread
    fewer runs it once on each of its threads, all taking runs in turn,
    so pending work does not grow with m. Runs may finish in any order;
    each calls on_block exactly once. The first error stops every task
    from starting another block and is raised once all have ended.

    Raises:
        ValueError: "empty-request" when m < 1; "bad-seed" when the seed
            is outside [0, 2^64); "alpha too small" when every party's
            Gamma draw of some row underflows to zero.
    """
    if m < 1:
        raise ValueError("empty-request: need m >= 1 draws")
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"bad-seed: seed must be in [0, 2^64), got {seed}")
    alpha = posterior.alpha
    k = len(alpha)
    run_rows = RUN * BLOCK
    n_runs = (m + run_rows - 1) // run_rows
    # An explicit uint64 key: numpy casts a list mixing words below and
    # above 2^63 through float64, which merges distinct seeds.
    keys = [np.array([seed, _party_key(p)], dtype=np.uint64) for p in posterior.parties]
    runs = iter(range(n_runs))
    lock = threading.Lock()
    errors = []

    def task():
        # Pulls runs until none is left. No error reaches a future: after
        # the first, no task starts another block, and the caller raises it.
        try:
            buffer, scratch = np.empty(k * run_rows), np.empty(4 * BLOCK)
            totals, spare = scratch[:BLOCK], scratch[BLOCK:]
            # Each block sets the key and counter: the seed only spares
            # numpy an OS entropy read.
            generator = Generator(Philox(0))
            stream = generator, generator.bit_generator.state
            while not errors:
                with lock:
                    run = next(runs, None)
                if run is None:
                    return
                lo = run * run_rows
                hi = min(lo + run_rows, m)
                # Party-major and contiguous, also for a short last run.
                gammas = buffer[: k * (hi - lo)].reshape(k, hi - lo)
                for start in range(0, hi - lo, BLOCK):
                    if errors:
                        return
                    block = gammas[:, start : start + BLOCK]
                    for party, row in enumerate(block):
                        _gamma_block(stream, keys[party], alpha[party], (lo + start) // BLOCK, row)
                    block_totals = row_totals(block, totals[: block.shape[1]], spare)
                    if not block_totals.all():
                        raise ValueError("alpha too small: gamma draws underflowed to zero")
                    np.divide(block, block_totals, out=block)
                if on_block is not None:
                    on_block(lo, hi, gammas)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    helpers = min(workers, os.cpu_count() or 1, n_runs) - 1
    # Two first calls at once may each make a pool; the one not kept
    # serves at most its own call, and its threads end with it.
    if helpers > 0 and helpers not in _POOLS:
        _POOLS[helpers] = ThreadPoolExecutor(max_workers=helpers)
    futures = [_POOLS[helpers].submit(task) for _ in range(helpers)]
    task()
    # No block still runs once this call returns or raises.
    wait(futures)
    if errors:
        raise errors[0]
