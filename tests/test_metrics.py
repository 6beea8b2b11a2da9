import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from streamscale.metrics import (cre, icd_points, mk_distance, mk_proximity,
                                 select_gamma, shannon_entropy, std_dev,
                                 variation_coeff)
from streamscale.reach import OccupancyDistribution

from conftest import random_distribution
from oracles import icd, quad_icd, uniform_rate_distribution as uniform_dist


def dist_of(*pairs):
    """pairs: (hops, duration) or (hops, duration, weight)."""
    return OccupancyDistribution(*zip(*(p if len(p) == 3 else (*p, 1)
                                        for p in pairs)))


def test_icd_values():
    assert icd(dist_of((1, 1)), 0.5) == 1.0
    assert icd(dist_of((1, 1)), 1.0) == 0.0
    assert icd(dist_of((1, 2, 2), (1, 1, 2)), 0.7) == 0.5


def test_icd_points_step_shape():
    lams, vals = icd_points(dist_of((1, 2), (1, 1)))
    assert lams.tolist() == [0.0, 0.5, 1.0]
    assert vals.tolist() == [1.0, 0.5, 0.0]
    # K = 1 style distribution: two-step ICD
    lams, vals = icd_points(dist_of((1, 1, 5)))
    assert lams.tolist() == [0.0, 1.0]
    assert vals.tolist() == [1.0, 0.0]


def test_icd_points_match_exact_reference():
    # every row sits at 0, at an exact distinct rate or at 1, and holds
    # P(X > lambda) there
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = random_distribution(rng, 30, 40, 5)
        h, dur, _ = d.arrays()
        rates = sorted({Fraction(a, b) for a, b in zip(h.tolist(), dur.tolist())})
        exact = [Fraction(0)] + rates + ([Fraction(1)] if rates[-1] != 1 else [])
        lams, vals = icd_points(d)
        assert lams.tolist() == [float(x) for x in exact]
        assert vals.tolist() == pytest.approx([float(icd(d, x)) for x in exact],
                                              abs=1e-12)


def test_mk_closed_forms():
    assert mk_distance(dist_of((1, 1))) == pytest.approx(0.5, abs=1e-12)
    assert mk_proximity(dist_of((1, 1))) == pytest.approx(0.0, abs=1e-12)
    assert mk_distance(dist_of((1, 2))) == pytest.approx(0.25, abs=1e-12)
    assert mk_proximity(dist_of((1, 2))) == pytest.approx(0.25, abs=1e-12)
    # equal mass at 1/2 and 1
    assert mk_distance(dist_of((1, 2), (1, 1))) == pytest.approx(0.25, abs=1e-12)
    # discrete uniform: mk = 1/(2n) exactly (each segment contributes 1/(2n^2))
    for n in (10, 400):
        assert mk_distance(uniform_dist(n)) == pytest.approx(1 / (2 * n), abs=1e-12)


def test_cre_closed_forms():
    assert cre(dist_of((1, 1))) == pytest.approx(0.0, abs=1e-12)
    assert cre(dist_of((1, 2), (1, 1))) == pytest.approx(math.log(2) / 4, abs=1e-12)
    # approaches the uniform-density value 1/4 at rate O(1/n)
    assert cre(uniform_dist(2000)) == pytest.approx(0.25, abs=1.0 / 2000)


def test_std_dev_values():
    assert std_dev(dist_of((1, 2, 7))) == 0.0
    assert std_dev(dist_of((1, 2), (1, 1))) == pytest.approx(0.25, abs=1e-12)
    assert std_dev(uniform_dist(4000)) == pytest.approx(1 / math.sqrt(12), abs=1e-3)


def test_variation_coeff_values():
    assert variation_coeff(dist_of((3, 4, 9))) == 0.0
    assert variation_coeff(dist_of((1, 2), (1, 1))) == pytest.approx(1 / 3, abs=1e-12)
    assert variation_coeff(dist_of((1, 10), (1, 1))) == pytest.approx(0.45 / 0.55,
                                                                      abs=1e-12)


def test_shannon_values():
    assert shannon_entropy(dist_of((2, 3, 11)), 10) == 0.0
    # one sample in each half
    assert shannon_entropy(dist_of((1, 20), (11, 20)), 2) == pytest.approx(
        math.log(2), abs=1e-12)
    # slot-aligned uniform: exactly ln 10
    assert shannon_entropy(uniform_dist(1000), 10) == pytest.approx(
        math.log(10), abs=1e-12)


def test_shannon_boundary_upper_inclusive():
    # rate exactly 1/2 belongs to the lower slot of two
    assert shannon_entropy(dist_of((1, 2), (3, 4)), 2) == pytest.approx(
        math.log(2), abs=1e-12)
    # while anything above 1/2 shares the upper slot with 3/4
    assert shannon_entropy(dist_of((51, 100), (3, 4)), 2) == 0.0
    # occ = 1 falls in the top slot, not beyond
    assert shannon_entropy(dist_of((1, 1)), 7) == 0.0


def test_shannon_slot_masses_exact_above_2_53():
    # slot 3 holds 2^53 + 1, slot 10 holds 1; float64 slot sums would
    # round 2^53 + 1 down to 2^53 (entropy 4.3006e-15). The value is that
    # of the exact masses, from a 60-digit decimal computation
    d = OccupancyDistribution([1, 3, 1], [4, 11, 1], [2**53, 1, 1])
    assert shannon_entropy(d, 10) == pytest.approx(4.18962648681432e-15,
                                                   rel=1e-12, abs=0)


def test_shannon_bounded_by_log_slots():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = random_distribution(rng, 25, 30, 4)
        k = int(rng.integers(2, 20))
        assert shannon_entropy(d, k) <= math.log(k) + 1e-12


def test_metric_errors():
    empty = OccupancyDistribution()
    for fn in (mk_distance, std_dev, variation_coeff, cre, lambda d: icd(d, 0.5)):
        with pytest.raises(ValueError):
            fn(empty)
    with pytest.raises(ValueError):
        shannon_entropy(dist_of((1, 1)), 1)


def test_exact_integrals_match_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = random_distribution(rng, 30, 40, 5)
        q_mk = quad_icd(d, lambda p, lam: abs(p - (1 - lam)))
        q_cre = quad_icd(d, lambda p, lam: -p * math.log(p) if p > 0 else 0.0)
        assert mk_distance(d) == pytest.approx(q_mk, abs=1e-9)
        assert cre(d) == pytest.approx(q_cre, abs=1e-9)


def test_mk_bounds():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = random_distribution(rng, 20, 25, 6)
        md = mk_distance(d)
        assert 0.0 - 1e-12 <= md <= 0.5 + 1e-12
        assert 0.0 - 1e-12 <= mk_proximity(d) <= 0.5 + 1e-12


def test_mk_argmax_is_least_deviating_on_simplex():
    # over all weightings of a fixed support, the proximity maximizer is
    # the weighting whose ICD deviates least from 1 - lambda, with the
    # deviation measured independently by quadrature
    support = [(1, 4), (1, 2), (3, 4), (1, 1)]
    best_prox = None
    least_dev = None
    for w in itertools.product(range(7), repeat=4):
        if sum(w) != 6:
            continue
        d = dist_of(*[(h, dur, weight) for (h, dur), weight in zip(support, w)
                      if weight])
        dev = quad_icd(d, lambda p, lam: abs(p - (1 - lam)))
        prox = mk_proximity(d)
        if best_prox is None or prox > best_prox[0]:
            best_prox = (prox, w)
        if least_dev is None or dev < least_dev[0]:
            least_dev = (dev, w)
    assert best_prox[1] == least_dev[1]


def test_select_gamma_rules():
    assert select_gamma([(100, 1.0, 0.1), (10, 10.0, 0.3), (1, 100.0, 0.2)]) == \
        (10, 10.0)
    # ties resolve to the smallest window length
    assert select_gamma([(100, 1.0, 0.2), (10, 10.0, 0.2), (1, 100.0, 0.2)]) == \
        (100, 1.0)
    # argmax invariant under positive rescaling of the scores
    entries = [(50, 2.0, 0.12), (25, 4.0, 0.19), (5, 20.0, 0.07)]
    scaled = [(k, d, 13.5 * s) for k, d, s in entries]
    assert select_gamma(entries) == select_gamma(scaled)
    with pytest.raises(ValueError):
        select_gamma([])
