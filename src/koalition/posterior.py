"""Conjugate Dirichlet posterior over party shares and reproducible sampling.

The posterior is the standard Dirichlet-multinomial update: concentration
alpha_k = prior_k + counts_k. Sampling draws one Gamma variate per party
and normalizes rows to sum 1.

Reproducibility contract: the Gamma stream for draw block c of party p is
keyed by (seed, party id, c) through a counter-based Philox generator, so
draw i depends only on (seed, i) and the party's own alpha. Consequences:

* identical (seed, m, alpha) give a bit-identical matrix on any worker
  count or schedule;
* the first k rows of a larger run equal a run of size k (prefix-stable);
* reordering parties permutes columns without changing any party's draws.

The 4096-draw block is also the unit of parallel work: one task, run on
the caller's thread or on each pool thread, draws a block for every
party, normalizes its rows and hands them to the caller's per-block hook
on the same thread. Given a hook, sample_shares holds no (m, K) output,
so a caller that reduces each block as it comes needs only block-sized
memory. Every step is row by row, so neither
block boundaries nor the schedule change a bit.
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

from .pooling import PooledSample, PoolingConfig, pool
from .polls import PartyRegistry, Poll

__all__ = [
    "DirichletPosterior",
    "DrawMatrix",
    "posterior_at",
    "posterior_from",
    "resolve_prior",
    "sample_shares",
]

DEFAULT_PRIOR_ALPHA = 0.5
DEFAULT_DRAWS = 100_000

# Draws are generated in fixed blocks; a partial tail block is computed in
# full and sliced, which is what makes the stream prefix-stable.
BLOCK = 4096
# Seeds are Philox key words: the domain is [0, 2^64).
SEED_BOUND = 1 << 64

# One pool per thread count, kept for the process: with a pool per call,
# new threads that start before the old ones have returned their malloc
# arenas open more, so peak memory followed the thread schedule.
_POOLS: dict[int, ThreadPoolExecutor] = {}
os.register_at_fork(after_in_child=_POOLS.clear)  # a child has no pool threads


@dataclass(frozen=True)
class DirichletPosterior:
    """Concentration vector over parties, ordered as in the registry."""

    parties: tuple[str, ...]
    alpha: tuple[float, ...]
    other_id: str | None = None
    source: PooledSample | None = field(default=None, compare=False, hash=False)

    def __post_init__(self):
        if len(self.parties) != len(self.alpha):
            raise ValueError("parties and alpha length mismatch")
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

    def marginal_variance(self) -> dict[str, float]:
        # Dirichlet marginal: mean * (1 - mean) / (alpha_total + 1)
        total = self.alpha_total
        return {
            p: (a / total) * (1.0 - a / total) / (total + 1.0)
            for p, a in zip(self.parties, self.alpha)
        }


@dataclass(frozen=True)
class DrawMatrix:
    """m x K matrix of share vectors; rows sum to 1, entries in [0, 1]."""

    draws: np.ndarray
    seed: int
    m: int

    def __post_init__(self):
        self.draws.flags.writeable = False


def resolve_prior(prior_alpha, parties: tuple[str, ...]) -> np.ndarray:
    """The prior concentration per party: a scalar for all, or a per-party dict."""
    if isinstance(prior_alpha, dict):
        try:
            values = np.array([float(prior_alpha[p]) for p in parties])
        except KeyError as exc:
            raise ValueError(f"bad-prior: missing prior for party {exc.args[0]!r}") from None
    else:
        values = np.full(len(parties), float(prior_alpha))
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError("bad-prior: prior_alpha components must be finite and > 0")
    return values


def posterior_from(
    pooled: PooledSample,
    registry: PartyRegistry,
    prior_alpha=DEFAULT_PRIOR_ALPHA,
) -> DirichletPosterior:
    """Conjugate update: alpha_k = prior_k + counts_k.

    prior_alpha may be a scalar applied to every party or a per-party dict.
    """
    parties = registry.ids
    prior = resolve_prior(prior_alpha, parties)
    alpha = tuple(
        float(p) + float(pooled.counts.get(pid, 0)) for p, pid in zip(prior, parties)
    )
    return DirichletPosterior(
        parties=parties, alpha=alpha, other_id=registry.other_id, source=pooled
    )


def posterior_at(
    polls: list[Poll],
    registry: PartyRegistry,
    as_of: dt.date,
    pooling: PoolingConfig = PoolingConfig(),
    prior_alpha=DEFAULT_PRIOR_ALPHA,
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


class _PartyStream:
    """One party's Philox generator on one thread, moved from block to block.

    Setting the state of a kept generator gives the same stream as a new
    Philox at the block's counter. A new one costs ~15 us under the GIL:
    without a seed, numpy draws OS entropy for a SeedSequence the key
    then overrides. The state setter costs ~2 us.
    """

    def __init__(self, key: np.ndarray):
        self.key = key
        self.bitgen = Philox(key=key)
        self.generator = Generator(self.bitgen)
        # A fresh state: counter 0 and an empty output buffer.
        self.state = self.bitgen.state


def _gamma_block(stream: _PartyStream, alpha: float, block: int) -> np.ndarray:
    # The stream is keyed by the party's (seed, party key) pair. The block
    # index lives in the high counter word, leaving 2^192 values of stream
    # per block: no overlap, no coordination between blocks.
    stream.state["state"]["counter"][3] = block
    stream.bitgen.state = stream.state
    return stream.generator.standard_gamma(alpha, size=BLOCK)


def sample_shares(
    posterior: DirichletPosterior,
    m: int,
    seed: int,
    workers: int = 1,
    *,
    on_block: Callable[[int, int, np.ndarray], None] | None = None,
) -> DrawMatrix | None:
    """Draw m share vectors from the posterior, reproducibly.

    One task runs the blocks at every worker count: for each 4096-draw
    block it draws every party's Gamma block and normalizes the rows.
    Without on_block, the rows go into a preallocated (m, K) output,
    returned as a DrawMatrix. With it, the task calls on_block(lo, hi,
    shares) on its thread with the rows [lo, hi); they live in the task's
    block buffer, are valid only during the call and nothing is returned.
    On its first block a task makes that buffer and one Philox generator
    per party (K x 4096 floats, 0.43 MB at K=13) and reuses them until it
    ends. Threads are capped at min(workers, CPU count, blocks): one runs
    the task on the caller's thread, more run it once each in the
    process's pool for that count, taking blocks in turn, so pending work
    does not grow with m. Blocks may finish in any order; each calls
    on_block exactly once. The first error stops every task from starting
    another block and is raised once all have ended.

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
    n_blocks = (m + BLOCK - 1) // BLOCK
    # An explicit uint64 key: numpy casts a list mixing words below and
    # above 2^63 through float64, which merges distinct seeds.
    keys = [np.array([seed, _party_key(p)], dtype=np.uint64) for p in posterior.parties]
    out = np.empty((m, k)) if on_block is None else None
    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    errors = []

    def task():
        # Pulls blocks until none is left. No error reaches a future: after
        # the first, no task starts another block, and the caller raises it.
        try:
            streams = None
            while not errors:
                with lock:
                    block = next(blocks, None)
                if block is None:
                    return
                if streams is None:
                    gammas, totals = np.empty((BLOCK, k)), np.empty((BLOCK, 1))
                    streams = [_PartyStream(key) for key in keys]
                lo = block * BLOCK
                hi = min(lo + BLOCK, m)
                for col in range(k):
                    gammas[:, col] = _gamma_block(streams[col], alpha[col], block)
                rows = gammas[: hi - lo]
                row_totals = np.sum(rows, axis=1, keepdims=True, out=totals[: hi - lo])
                if not row_totals.all():
                    raise ValueError("alpha too small: gamma draws underflowed to zero")
                shares = np.divide(rows, row_totals, out=rows if out is None else out[lo:hi])
                if out is None:
                    on_block(lo, hi, shares)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    threads = min(workers, os.cpu_count() or 1, n_blocks)
    if threads > 1:
        # Two first calls at once may each make a pool; the one not kept
        # serves only its own call, and its threads end with it.
        executor = _POOLS.get(threads)
        if executor is None:
            executor = _POOLS[threads] = ThreadPoolExecutor(max_workers=threads)
        # No block still runs once this call returns or raises.
        wait([executor.submit(task) for _ in range(threads)])
    else:
        task()
    if errors:
        raise errors[0]
    return None if out is None else DrawMatrix(draws=out, seed=seed, m=m)
