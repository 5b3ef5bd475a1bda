"""Independent references for the electoral rules the package vectorizes,
for the Dirichlet posterior's moments and for the sample std.

Each rule is written out the slow, obvious way, one parliament at a
time, so the tests can compare the package's vectorized code with it.
Nothing here imports koalition: a reference that called the code it
checks would check that code against itself.
"""

import decimal
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np


def highest_averages(shares, house, method="sainte-lague"):
    """Enumerate every quotient, sort by (-q, party index), take the top."""
    r = np.asarray(shares, dtype=float)
    r = r / r.sum()
    entries = []
    for k, s in enumerate(r):
        for j in range(1, house + 1):
            div = (2 * j - 1) if method == "sainte-lague" else j
            entries.append((-(s / div), k, j))
    entries.sort()
    seats = [0] * len(r)
    for _, k, _ in entries[:house]:
        seats[k] += 1
    return seats


def threshold(shares, limit, other_id):
    """The parties of a share dict that enter parliament, renormalized.

    A party enters at a positive share of at least limit; the other
    bucket never does. Input order is kept, and an empty dict is a hung
    parliament.
    """
    eligible = {
        pid: share
        for pid, share in shares.items()
        if pid != other_id and share > 0.0 and share >= limit
    }
    total = sum(eligible.values())
    return {pid: share / total for pid, share in eligible.items()}


def some_proper_subset_wins(seats, coalition, house):
    """Whether a proper subset of the coalition holds more than half the house.

    Every proper subset is enumerated; coalitions are small.
    """
    return any(
        2 * sum(seats[p] for p in subset) > house
        for size in range(1, len(coalition))
        for subset in combinations(coalition, size)
    )


def dirichlet_marginal_variance(alpha):
    """Each component's variance under Dirichlet(alpha), in alpha's order:
    mean * (1 - mean) / (alpha_total + 1)."""
    total = float(sum(alpha))
    return [(a / total) * (1.0 - a / total) / (total + 1.0) for a in alpha]


def sample_std(values):
    """The sample standard deviation of the floats values, exactly: the
    Fraction mean and variance, grouped by value, then a 60-digit Decimal
    square root rounded to a float."""
    counts = Counter(values)
    n = sum(counts.values())
    mean = sum(Fraction(x) * c for x, c in counts.items()) / n
    variance = sum((Fraction(x) - mean) ** 2 * c for x, c in counts.items()) / (n - 1)
    with decimal.localcontext() as context:
        context.prec = 60
        return float((decimal.Decimal(variance.numerator) / variance.denominator).sqrt())
