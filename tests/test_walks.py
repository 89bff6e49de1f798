"""Step laws, radial projection, exact n-step machinery and decay fits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import (
    ConvergenceError,
    RadialChain,
    ValidationError,
    ball,
    distance,
    dump_walk_spec,
    factor_returns,
    finite_walk,
    fit_local_limit,
    free_group,
    identity,
    isotropic_walk,
    lattice_offsets,
    load_walk_spec,
    nstep,
    ratio_sequence,
    spectral_radius,
    sphere,
    sphere_intersection,
    sphere_size,
    tree_alphabet,
    word,
    word_twin,
)
from treewalks.walks import EXACT_STEP_LIMIT

F2 = free_group(2)


def f2_lazy():
    e = identity(F2)
    fifth = Fraction(1, 5)
    mu = {e: fifth}
    for c in F2.letters:
        mu[word(F2, [c])] = fifth
    return finite_walk(F2, mu)


# -- validation --------------------------------------------------------------


def test_isotropic_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        isotropic_walk(2, {0: Fraction(1, 2), 1: Fraction(1, 3)})


def test_isotropic_rejects_negative_weight():
    with pytest.raises(ValidationError):
        isotropic_walk(2, {0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_isotropic_rejects_periodic_law():
    with pytest.raises(ValidationError):
        isotropic_walk(2, {2: 1})


def test_finite_walk_needs_holding_probability():
    mu = {word(F2, [c]): Fraction(1, 4) for c in F2.letters}
    with pytest.raises(ValidationError):
        finite_walk(F2, mu)


def test_finite_walk_needs_generating_support():
    e = identity(F2)
    # support inside the subgroup generated by the first letter only
    mu = {
        e: Fraction(1, 2),
        word(F2, [1]): Fraction(1, 4),
        word(F2, [-1]): Fraction(1, 4),
    }
    with pytest.raises(ValidationError):
        finite_walk(F2, mu)


# -- radial projection -------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_sphere_intersection_matches_enumeration(q):
    ab = tree_alphabet(q)
    pts = ball(ab, 4)
    for k in range(4):
        x = next(p for p in pts if len(p) == k)
        for kp in range(5):
            for d in range(8):
                expect = sum(
                    1 for y in pts if len(y) == kp and distance(x, y) == d
                )
                assert sphere_intersection(q, k, d, kp) == expect


@pytest.mark.parametrize("q", [2, 3])
def test_radial_rows_are_stochastic(q):
    spec = isotropic_walk(q, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    chain = RadialChain(spec)
    for k in range(6):
        assert sum(chain.row(k).values()) == 1


@pytest.mark.parametrize("q", [2, 3])
def test_radial_chain_equals_word_convolution(q):
    # the distance process of the twin walk must reproduce the radial law
    spec = isotropic_walk(q, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    twin = word_twin(spec)
    chain = RadialChain(spec)
    for n in range(9):
        vec = chain.distribution_exact(n)
        table = nstep(twin, n, exact=True).table
        by_distance: dict[int, Fraction] = {}
        for w, p in table.items():
            by_distance[len(w)] = by_distance.get(len(w), Fraction(0)) + p
        for k, mass in enumerate(vec):
            assert mass == by_distance.get(k, Fraction(0))


def test_word_twin_rejects_longer_range():
    spec = isotropic_walk(2, {0: Fraction(1, 2), 2: Fraction(1, 2)})
    with pytest.raises(ValidationError):
        word_twin(spec)


# -- n-step laws -------------------------------------------------------------


def test_nstep_exact_is_a_probability_distribution():
    spec = f2_lazy()
    res = nstep(spec, 6, exact=True)
    assert sum(res.table.values()) == 1


@pytest.mark.parametrize("involutive", [False, True])
def test_nstep_exact_keys_are_checked_words(involutive):
    # the table keys skip the constructor's check; rebuilding each one
    # through word() checks, and reduces, its letters
    spec = f2_lazy()
    if involutive:
        spec = word_twin(isotropic_walk(2, {0: Fraction(1, 2), 1: Fraction(1, 2)}))
    table = nstep(spec, 6, exact=True).table
    assert len(table) > 1
    assert all(key == word(spec.alphabet, key.letters) for key in table)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (3, 1)])
def test_chapman_kolmogorov_small(n, m):
    spec = f2_lazy()
    pn = nstep(spec, n, exact=True)
    pm = nstep(spec, m, exact=True)
    pnm = nstep(spec, n + m, exact=True)
    for y in ball(F2, n + m):
        conv = sum(pw * pm.pair(w, y) for w, pw in pn.table.items())
        assert conv == pnm.probability(y)


def test_pruned_convolution_brackets_exact_value():
    spec = f2_lazy()
    exact = nstep(spec, 8, exact=True)
    rough = nstep(spec, 8, exact=False, prune=1e-5)
    assert rough.pruned > 0
    for y in ball(F2, 3):
        p = float(exact.probability(y))
        assert rough.probability(y) <= p + 1e-12
        assert p <= rough.upper(y) + 1e-12


def test_isotropic_nstep_accepts_distances():
    spec = isotropic_walk(2, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    res = nstep(spec, 4, exact=True)
    total = sum(
        res.probability(k) * sphere_size(2, k) for k in range(5)
    )
    assert total == 1


# -- lattice helpers ---------------------------------------------------------


def test_lattice_offsets_of_lazy_walk(z_spec, f2_spec):
    assert lattice_offsets(z_spec) == {0: 0.5, 1: 0.25, -1: 0.25}
    with pytest.raises(ValidationError, match="rank-one word walk"):
        lattice_offsets(f2_spec)


def test_lattice_returns_match_binomial_closed_form(z_spec):
    # one lazy step is a difference of two fair coins, so the n-step
    # law is C(2n, n+m)/4^n on the nose
    seq = factor_returns(z_spec, 40)
    for n in range(41):
        expect = math.comb(2 * n, n) / 4.0**n
        assert abs(seq[n] - expect) < 1e-13 * max(expect, 1e-300)


def test_lazy_lattice_ratios_head_toward_one(z_spec):
    got = ratio_sequence(
        z_spec, identity(z_spec.alphabet), word(z_spec.alphabet, [1, 1]), 2000
    )
    assert abs(got.last - 1.0) < 2e-2
    assert got.cauchy_tail < 1e-4


# -- ratio sequences and fits ------------------------------------------------


def test_ratio_sequence_isotropic_matches_twin():
    # word-walk convolution carries the whole support ball, so keep n small
    spec = isotropic_walk(2, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    twin = word_twin(spec)
    x = word(tree_alphabet(2), [1])
    e = identity(tree_alphabet(2))
    got_radial = ratio_sequence(spec, e, x, 12)
    got_words = ratio_sequence(twin, e, x, 12)
    tail_r = dict(zip(got_radial.ns, got_radial.values))
    tail_w = dict(zip(got_words.ns, got_words.values))
    assert set(tail_r) == set(tail_w)
    for n in tail_r:
        assert abs(tail_r[n] - tail_w[n]) < 1e-10


def test_fit_recovers_synthetic_decay():
    rho, alpha, c = 0.93, 1.5, 0.7
    values = [0.0, 0.0] + [
        c * rho**n * n**-alpha for n in range(2, 900)
    ]
    fit = fit_local_limit(values, (200, 800))
    assert abs(fit.rho - rho) < 1e-8
    assert abs(fit.alpha - alpha) < 1e-8
    assert fit.residual_rms < 1e-10
    assert fit.rho_shift < 1e-8


def test_fit_rejects_short_window():
    values = [0.5**n for n in range(40)]
    with pytest.raises(ValidationError):
        fit_local_limit(values, (30, 60))


def test_fit_rejects_window_from_zero():
    # log n at n = 0 would put -inf into the design matrix
    values = [0.5**n for n in range(100)]
    with pytest.raises(ValidationError, match="window 0:100"):
        fit_local_limit(values, (0, 100))


def test_ratio_sequence_rejects_words_of_another_alphabet():
    # a word over F3 is no vertex of an F2 or a Z walk, whatever its letters
    F3 = free_group(3)
    line = load_walk_spec("mode finitely-supported\nrank 1\ne 1/2\n1 1/4\n-1 1/4\n")
    for spec in (f2_lazy(), line):
        e = identity(spec.alphabet)
        pairs = [(identity(F3), word(F3, [3])), (e, word(F3, [1])), (word(F3, [1]), e)]
        for x, y in pairs:
            with pytest.raises(ValidationError, match="walk's alphabet"):
                ratio_sequence(spec, x, y, 4)


def ratio_bound(spec, x) -> float:
    """Upper bound sup_y H(x,y) <= 1/(rho^k p^(k)(e,x)), smallest usable k."""
    rho = spectral_radius(spec).value
    for k in range(len(x), EXACT_STEP_LIMIT + 1):
        p = nstep(spec, k).probability(x)
        if p > 0:
            return 1.0 / (rho ** k * float(p))
    raise ConvergenceError(
        f"no positive n-step probability up to {EXACT_STEP_LIMIT} steps"
    )


def test_ratio_bound_dominates_observed_ratios():
    spec = f2_lazy()
    x = word(F2, [1])
    e = identity(F2)
    c_x = ratio_bound(spec, x)
    assert c_x >= 1.0
    seq = ratio_sequence(spec, x, e, 8)
    assert max(seq.values) <= c_x * 1.01


# -- spectral radius ---------------------------------------------------------


def test_spectral_radius_isotropic_closed_form(t3_spec):
    # lazy uniform: half the mass holds, half moves at the plain-walk rate
    got = spectral_radius(t3_spec)
    assert abs(got.value - (0.5 + math.sqrt(2.0) / 3.0)) < 1e-14


def test_spectral_radius_free_group_matches_singularity(f2_spec):
    got = spectral_radius(f2_spec)
    expect = (1 + 2 * math.sqrt(3.0)) / 5.0
    assert abs(got.value - expect) < 1e-10


def test_spectral_radius_symmetric_lattice_is_one(z_spec):
    got = spectral_radius(z_spec)
    assert abs(got.value - 1.0) < 1e-12


def test_spectral_radius_biased_lattice():
    ab = free_group(1)
    e = identity(ab)
    mu = {
        e: Fraction(1, 2),
        word(ab, [1]): Fraction(3, 8),
        word(ab, [-1]): Fraction(1, 8),
    }
    spec = finite_walk(ab, mu)
    got = spectral_radius(spec)
    # min over c of the exponentially tilted step mass
    expect = 0.5 + 2 * math.sqrt(3.0 / 64.0)
    assert abs(got.value - expect) < 1e-12


# -- serialization -----------------------------------------------------------


def test_spec_text_round_trip_word_walk():
    spec = f2_lazy()
    again = load_walk_spec(dump_walk_spec(spec))
    assert again == spec


def test_spec_text_round_trip_isotropic(t3_spec):
    again = load_walk_spec(dump_walk_spec(t3_spec))
    assert again == t3_spec


def test_load_rejects_malformed_text():
    with pytest.raises(ValidationError):
        load_walk_spec("mode: nonsense\n")
