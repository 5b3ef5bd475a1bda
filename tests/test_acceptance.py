"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import datetime as dt
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.stats import beta

from golden_figures import GOLDEN, build_figures
from reference import dirichlet_marginal_variance, highest_averages, threshold
from svg_checks import by_class, parse, polygon_pts, shoelace

import koalition
from koalition.cli import load_config
from koalition.electoral import ElectionRules, Workspace, allocate_many, elect_many
from koalition.engine import EventSpec, estimate_poe, seat_distribution
from koalition.forecast import ForecastSpec, inflate
from koalition.pooling import pool
from koalition.polls import parse_polls
from koalition.posterior import DirichletPosterior, posterior_at, posterior_from

FIXTURES = Path(__file__).parent / "fixtures"
AS_OF = dt.date(2018, 3, 5)
DAY = dt.timedelta(days=1)


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  criterion {number}: {title} ({elapsed:.2f}s)")


def two_party_posterior(a_counts: float, b_counts: float) -> DirichletPosterior:
    return DirichletPosterior(
        parties=("a", "b", "other"),
        alpha=(a_counts + 0.5, b_counts + 0.5, 0.5),
        other_id="other",
    )


def test_criterion_1_complement_identity():
    with criterion(1, "complement identity, exact at m=100000"):
        start = time.perf_counter()

        # seven-party scenario on shared draws
        alpha = {
            "union": 660.5, "spd": 340.5, "gruene": 240.5, "fdp": 200.5,
            "linke": 200.5, "afd": 260.5, "other": 100.5,
        }
        post7 = DirichletPosterior(
            parties=tuple(alpha), alpha=tuple(alpha.values()), other_id="other"
        )
        rules = ElectionRules()
        event = EventSpec("coalition-majority", ("union", "spd"))
        complement = EventSpec("coalition-majority", ("union", "spd"), negate=True)
        r = estimate_poe(post7, rules, event, 100_000, seed=4242)
        rn = estimate_poe(post7, rules, complement, 100_000, seed=4242)
        assert r.hits + rn.hits == 100_000
        assert r.probability + rn.probability == 1.0

        # two-outcome scenario: a 0.286/0.714-style split as identity instance
        post2 = two_party_posterior(491, 509)
        open_rules = ElectionRules(threshold=0.0, house_size=599)
        win = EventSpec("coalition-majority", ("a",))
        lose = EventSpec("coalition-majority", ("a",), negate=True)
        p = estimate_poe(post2, open_rules, win, 100_000, seed=538)
        q = estimate_poe(post2, open_rules, lose, 100_000, seed=538)
        assert p.probability + q.probability == 1.0
        assert p.hits + q.hits == 100_000
        assert 0.25 < p.probability < 0.32  # scenario tuned near 0.286

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"complement run took {elapsed:.2f}s"


def test_criterion_2_two_party_analytic_oracle():
    with criterion(2, "two-party MC within 3 stderr of Beta tail, 20 posteriors"):
        start = time.perf_counter()
        rules = ElectionRules(threshold=0.0, house_size=599)
        event = EventSpec("coalition-majority", ("a",))
        rng = np.random.default_rng(20180305)
        m = 100_000
        for i in range(20):
            total = float(rng.integers(300, 1500))
            ratio = float(rng.uniform(0.48, 0.52))
            a, b = total * ratio, total * (1.0 - ratio)
            post = two_party_posterior(a, b)
            result = estimate_poe(post, rules, event, m, seed=9000 + i)
            analytic = float(beta.sf(0.5, a + 0.5, b + 0.5))
            assert abs(result.probability - analytic) <= 3.0 * result.mc_stderr, (
                f"instance {i}: mc={result.probability} beta={analytic}"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle run took {elapsed:.2f}s"


def test_criterion_3_seat_allocation_oracle():
    with criterion(3, "Sainte-Lague matches brute force on 1000 random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(598)
        for i in range(1000):
            k = int(rng.integers(1, 7))
            house = int(rng.integers(1, 51))
            method = "sainte-lague" if i % 2 == 0 else "dhondt"
            shares = rng.dirichlet(np.ones(k) * float(rng.uniform(0.4, 3.0)))
            got = list(allocate_many(shares[None, :], house, method)[0])
            want = highest_averages(shares, house, method)
            assert got == want, f"instance {i}: {shares} -> {got} != {want}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"allocation oracle took {elapsed:.2f}s"


def test_criterion_4_threshold_semantics(collect_simulation):
    with criterion(4, "4.999% yields no seats, 5.000% yields seats"):
        rules = ElectionRules()

        # exact-share mechanics at the boundary, one row each
        rows = np.array([[0.04999, 0.80001, 0.15], [0.05, 0.80, 0.15]])
        eligible, seats, _ = elect_many(rows.T.copy(), rules, 2, Workspace(2, 3))
        eligible, seats = eligible.T, seats.T
        assert not eligible[0, 0] and seats[0, 0] == 0
        assert eligible[1, 0] and seats[1, 0] > 0
        at = threshold(dict(zip("ab", rows[1])), rules.threshold, "other")
        want = highest_averages([at["a"], at["b"], 0.0], rules.house_size)
        assert seats[1].tolist() == want

        # point-mass posteriors pushed through the Monte-Carlo path
        m = 10_000
        post_below = DirichletPosterior(
            parties=("a", "b", "other"),
            alpha=(0.04999e14, 0.80001e14, 0.15e14),
            other_id="other",
        )
        sim = collect_simulation(post_below, rules, m, seed=5)
        a_col = sim.parties.index("a")
        assert (sim.seats[:, a_col] == 0).all(), "sub-threshold party won seats"

        post_at = DirichletPosterior(
            parties=("a", "b", "other"),
            alpha=(0.05e14, 0.80e14, 0.15e14),
            other_id="other",
        )
        sim = collect_simulation(post_at, rules, m, seed=5)
        seated = (sim.seats[:, a_col] > 0).mean()
        # a continuous posterior centered on the boundary seats the party in
        # about half the draws; the exact-share case above is the sharp check
        assert seated > 0.2

        post_above = DirichletPosterior(
            parties=("a", "b", "other"),
            alpha=(0.05001e14, 0.79999e14, 0.15e14),
            other_id="other",
        )
        sim = collect_simulation(post_above, rules, m, seed=5)
        assert (sim.seats[:, a_col] > 0).all()


def test_criterion_5_coalition_monotonicity():
    with criterion(5, "PoE(superset) >= PoE(subset) on shared draws, 100 posteriors"):
        rules = ElectionRules()
        parties = ("p1", "p2", "p3", "p4", "p5", "other")
        rng = np.random.default_rng(77)
        m = 2_000
        for i in range(100):
            weights = rng.dirichlet(np.ones(6) * 2.0)
            total = float(rng.integers(500, 4000))
            post = DirichletPosterior(
                parties=parties,
                alpha=tuple(0.5 + total * w for w in weights),
                other_id="other",
            )
            base = list(rng.choice(parties[:5], size=2, replace=False))
            extra = [p for p in parties[:5] if p not in base]
            small = EventSpec("coalition-majority", tuple(base))
            large = EventSpec("coalition-majority", tuple(base + extra[:1]))
            r_small = estimate_poe(post, rules, small, m, seed=100 + i)
            r_large = estimate_poe(post, rules, large, m, seed=100 + i)
            assert r_large.hits >= r_small.hits, f"instance {i}"
            assert r_large.probability >= r_small.probability


def test_criterion_6_forecast_widening(registry, fixture_polls, fan_of):
    with criterion(6, "variance and fan band widen with horizon; h=0 is the nowcast"):
        rules = ElectionRules()
        pooled = pool(fixture_polls, registry, AS_OF, 14, 1.0)
        post = posterior_from(pooled, registry, 0.5)
        horizons = (0, 30, 60, 120)

        variances = []
        for h in horizons:
            spec = ForecastSpec(election_date=AS_OF + h * DAY, as_of=AS_OF)
            variances.append(dirichlet_marginal_variance(inflate(post, spec).alpha))
        for earlier, later in zip(variances, variances[1:]):
            assert all(b > a for a, b in zip(earlier, later))

        # h = 0 is bit-identical to the nowcast
        spec0 = ForecastSpec(election_date=AS_OF, as_of=AS_OF)
        assert inflate(post, spec0) is post
        event = EventSpec("coalition-majority", ("union", "spd"))
        nowcast = posterior_at(fixture_polls, registry, AS_OF)
        fc = estimate_poe(inflate(nowcast, spec0), rules, event, m=20_000, seed=6)
        nc = estimate_poe(post, rules, event, 20_000, seed=6)
        assert fc == nc

        # rendered fan bands: widths measured in pixels from the SVG
        from koalition.viz import render_fan_chart

        spec = ForecastSpec(election_date=AS_OF + 120 * DAY, as_of=AS_OF)
        fan = fan_of(fixture_polls, registry, spec, grid_days=30, m=50_000, seed=6)
        svg = render_fan_chart(fan, fixture_polls, registry, seed=6, m=50_000)
        root = parse(svg)
        asof_x = float(by_class(root, "asof-line")[0].get("x1"))
        for band in by_class(root, "band"):
            pts = polygon_pts(band)
            n = len(pts) // 2
            upper, lower = pts[:n], pts[n:][::-1]
            widths = [
                ly - uy
                for (ux, uy), (lx, ly) in zip(upper, lower)
                if lx >= asof_x - 1e-9
            ]
            assert len(widths) == 5  # h = 0, 30, 60, 90, 120
            for w1, w2 in zip(widths, widths[1:]):
                assert w2 >= w1 - 1e-9, "fan band narrowed with horizon"
            assert widths[-1] > widths[0]


def test_criterion_7_figure_suite():
    with criterion(7, "eight renderers byte-match goldens; blue area ~ majority"):
        figures = build_figures()
        assert len(figures) == 8
        for name, svg in figures.items():
            golden = (GOLDEN / f"{name}.svg").read_text(encoding="utf-8")
            assert svg == golden, f"{name}.svg drifted from its golden file"
            parse(svg)  # well-formed XML
            assert "<!-- koalition seed=" in svg

        # blue-area fraction of the density figure vs exact majority mass
        config = load_config(FIXTURES / "config.ini")
        polls = parse_polls((FIXTURES / "polls.csv").read_text(), config.registry)
        pooled = pool(polls, config.registry, AS_OF, config.pooling.window_days,
                      config.pooling.dependence_factor)
        post = posterior_from(pooled, config.registry, config.prior_alpha)
        dist = seat_distribution(post, config.rules, ("union", "spd"), 20_000, 42)
        assert 0.05 < dist.majority_mass < 0.99  # the check has teeth
        root = parse(figures["density"])
        fill = by_class(root, "majority-fill")
        baseline = float(by_class(root, "axis")[0].get("y1"))
        curve_pts = polygon_pts(by_class(root, "density")[0])
        total_area = sum(
            (x2 - x1) * ((baseline - y1) + (baseline - y2)) / 2.0
            for (x1, y1), (x2, y2) in zip(curve_pts, curve_pts[1:])
        )
        blue_area = shoelace(polygon_pts(fill[0])) if fill else 0.0
        assert abs(blue_area / total_area - dist.majority_mass) <= 0.02


def test_criterion_8_cli_thread_count_invariance():
    with criterion(8, "CLI nowcast bytes identical for 1 and 4 workers"):
        # The child imports the package this test imported, installed or not.
        src = str(Path(koalition.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for workers in ("1", "4"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "koalition.cli", "nowcast",
                    "--polls", str(FIXTURES / "polls.csv"),
                    "--config", str(FIXTURES / "config.ini"),
                    "--as-of", "2018-03-05", "--seed", "42",
                    "--workers", workers,
                ],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0]  # non-empty report
