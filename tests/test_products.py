"""Product walks: factorization identities, switching mixtures, combined
decay parameters and boundary identification.

Independent checks used here: an exact pair-state convolution built in
the test for the switching law, the binomial closed form of the lazy
line walk, the exponential-tilt closed form for the biased line, and
hand-combined decay parameters.
"""

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import (
    EndPrefix,
    ProductBoundaryPoint,
    ProductWalk,
    ValidationError,
    cartesian_asymptotics,
    cartesian_product,
    direct_product,
    factor_alpha,
    factor_kernel,
    factor_returns,
    finite_walk,
    free_group,
    identity,
    isotropic_walk,
    nstep,
    preset,
    product_nstep_pair,
    product_ratio_kernel,
    product_report,
    product_return_sequence,
    ratio_sequence,
    tree_alphabet,
    word,
    word_twin,
)
from treewalks.products import _logsumexp, identify_equivalent_boundary

T3 = tree_alphabet(2)
Z1 = free_group(1)


def biased_line() -> "object":
    return finite_walk(
        Z1,
        {
            identity(Z1): Fraction(1, 2),
            word(Z1, [1]): Fraction(3, 8),
            word(Z1, [-1]): Fraction(1, 8),
        },
    )


def pair_state_law(pw, n):
    """Exact law of the switching product after n steps, by brute
    convolution over pair states: each step flips the coin, then the
    chosen coordinate performs one step of its own walk."""
    left = word_twin(pw.left) if pw.left.mode == "isotropic" else pw.left
    right = word_twin(pw.right) if pw.right.mode == "isotropic" else pw.right
    s = pw.weight
    dist = {(identity(left.group), identity(right.group)): Fraction(1)}
    for _ in range(n):
        nxt = defaultdict(Fraction)
        for (w1, w2), p in dist.items():
            for g, wgt in left.mu_map.items():
                nxt[(w1 * g, w2)] += p * s * wgt
            for g, wgt in right.mu_map.items():
                nxt[(w1, w2 * g)] += p * (1 - s) * wgt
        dist = dict(nxt)
    return dist


# -- construction and validation ----------------------------------------------


def test_product_kind_is_checked(t3_spec, z_spec):
    with pytest.raises(ValidationError):
        ProductWalk(t3_spec, z_spec, "tensor")


@pytest.mark.parametrize("w", [Fraction(0), Fraction(1), Fraction(3, 2)])
def test_switch_weight_must_be_interior(t3_spec, z_spec, w):
    with pytest.raises(ValidationError):
        cartesian_product(t3_spec, z_spec, w)


def test_interior_weight_accepted(t3_spec, z_spec):
    pw = cartesian_product(t3_spec, z_spec, Fraction(1, 3))
    assert pw.weight == Fraction(1, 3)
    assert pw.kind == "cartesian"


def test_boundary_point_needs_an_end():
    up = EndPrefix.from_pattern(Z1, [1], 6)
    with pytest.raises(ValidationError):
        ProductBoundaryPoint(word(Z1, [1]), word(Z1, [-1]))
    assert ProductBoundaryPoint(up, word(Z1, [1])).left is up
    assert ProductBoundaryPoint(word(Z1, [1]), up).right is up


# -- n-step laws ---------------------------------------------------------------


def test_direct_law_factorizes_against_binomial_closed_form(z_spec):
    # line x line: each coordinate is a lazy line walk whose n-step law
    # is C(2n, n+m)/4^n, so the pair law is the product of two binomials
    pw = direct_product(z_spec, z_spec)
    for n in range(0, 7):
        for m1 in range(-n, n + 1):
            for m2 in range(-n, n + 1):
                y1 = word(Z1, [1] * m1 if m1 >= 0 else [-1] * -m1)
                y2 = word(Z1, [1] * m2 if m2 >= 0 else [-1] * -m2)
                expected = Fraction(math.comb(2 * n, n + m1), 4**n) * Fraction(
                    math.comb(2 * n, n + m2), 4**n
                )
                assert product_nstep_pair(pw, n, y1, y2) == expected


@pytest.mark.parametrize("weight", [Fraction(1, 2), Fraction(1, 3)])
def test_switching_law_matches_pair_state_convolution(t3_spec, z_spec, weight):
    pw = cartesian_product(t3_spec, z_spec, weight)
    for n in (2, 4, 5):
        law = pair_state_law(pw, n)
        probe_pairs = [
            (y1, y2)
            for (y1, y2) in law
            if len(y1) <= 2 and len(y2) <= 2
        ]
        assert probe_pairs
        for y1, y2 in probe_pairs:
            assert product_nstep_pair(pw, n, y1, y2) == law[(y1, y2)]
        # and a pair outside the support comes back exactly zero
        far = word(T3, [1, 2, 1, 2, 1, 2])
        if n < 6:
            assert product_nstep_pair(pw, n, far, identity(Z1)) == 0


def test_switching_returns_frozen_values(t3xz):
    # exact rationals pinned from the pair-state convolution
    e1, e2 = identity(T3), identity(Z1)
    assert product_nstep_pair(t3xz, 4, e1, e2) == Fraction(8113, 55296)
    assert product_nstep_pair(t3xz, 7, e1, e2) == Fraction(2287295, 31850496)
    assert product_nstep_pair(t3xz, 10, e1, e2) == Fraction(
        230795466227, 5283615080448
    )


# -- return sequences ----------------------------------------------------------


def test_direct_return_sequence_matches_exact_pairs(t3_spec, z_spec):
    pw = direct_product(t3_spec, z_spec)
    seq = product_return_sequence(pw, 8)
    assert seq[0] == 1.0
    e1, e2 = identity(T3), identity(Z1)
    for n in range(1, 9):
        exact = product_nstep_pair(pw, n, e1, e2)
        assert math.isclose(seq[n], float(exact), rel_tol=1e-12)


def test_switching_return_sequence_matches_exact_mixture(t3xz):
    seq = product_return_sequence(t3xz, 10)
    e1, e2 = identity(T3), identity(Z1)
    for n in range(0, 11):
        exact = product_nstep_pair(t3xz, n, e1, e2)
        assert math.isclose(seq[n], float(exact), rel_tol=1e-11)


def test_switching_return_sequence_long_range_is_sane(t3xz):
    # by n ~ 10^3 the summands span hundreds of orders of magnitude;
    # the log-domain mixture must stay positive, finite and decaying
    # at the combined rate
    seq = product_return_sequence(t3xz, 1500)
    assert np.all(np.isfinite(seq)) and np.all(seq > 0)
    tail = seq[1000:1500]
    growth = tail[1:] / tail[:-1]
    combined = 0.5 * (0.5 + math.sqrt(2.0) / 3.0) + 0.5
    assert np.all(growth < 1.0)
    assert abs(growth[-1] - combined) < 5e-3


# -- factor dispatch -----------------------------------------------------------


def test_factor_returns_routes_all_three_structures(t3_spec, z_spec, f2_spec):
    r_iso = factor_returns(t3_spec, 6)
    r_lat = factor_returns(z_spec, 6)
    r_nn = factor_returns(f2_spec, 6)
    for n in range(7):
        assert math.isclose(
            r_lat[n], math.comb(2 * n, n) / 4.0**n, rel_tol=1e-13
        )
        assert math.isclose(
            r_nn[n],
            float(nstep(f2_spec, n, exact=True).probability(identity(f2_spec.group))),
            rel_tol=1e-13,
        )
        twin_return = float(
            nstep(word_twin(t3_spec), n, exact=True).probability(identity(T3))
        )
        assert math.isclose(r_iso[n], twin_return, rel_tol=1e-13)


def test_factor_returns_rejects_long_range_factor():
    ab = free_group(2)
    mu = {
        identity(ab): Fraction(1, 4),
        word(ab, [1]): Fraction(1, 8),
        word(ab, [-1]): Fraction(1, 8),
        word(ab, [2]): Fraction(1, 8),
        word(ab, [-2]): Fraction(1, 8),
        word(ab, [1, 2]): Fraction(1, 8),
        word(ab, [-2, -1]): Fraction(1, 8),
    }
    spec = finite_walk(ab, mu)
    with pytest.raises(ValidationError):
        factor_returns(spec, 4)
    with pytest.raises(ValidationError):
        factor_kernel(spec, word(ab, [1]), EndPrefix.from_pattern(ab, [1], 6))


def test_factor_alpha_values(t3_spec, z_spec, f2_spec):
    assert factor_alpha(t3_spec) == 1.5
    assert factor_alpha(z_spec) == 0.5
    assert factor_alpha(f2_spec) == 1.5


def test_symmetric_line_kernel_is_flat(z_spec):
    up = EndPrefix.from_pattern(Z1, [1], 10)
    for letters in ([], [1], [1, 1, 1], [-1, -1]):
        k = factor_kernel(z_spec, word(Z1, letters), up)
        assert k.value == pytest.approx(1.0, abs=1e-15)
        assert k.stabilized


def test_lattice_end_row_carries_the_prefix_depth(z_spec):
    up = EndPrefix.from_pattern(Z1, [1], 6)
    assert factor_kernel(z_spec, word(Z1, [1]), up).depth == 6
    assert factor_kernel(z_spec, word(Z1, [1]), word(Z1, [1, 1])).depth is None


def test_biased_line_kernel_is_the_exponential_tilt():
    # mu = (1/2, 3/8, 1/8): the minimising tilt is exp(c) = 3^(-1/2),
    # so starting two steps into the drift the ratio limit is 1/3
    spec = biased_line()
    up = EndPrefix.from_pattern(Z1, [1], 10)
    dn = EndPrefix.from_pattern(Z1, [-1], 10)
    k2 = factor_kernel(spec, word(Z1, [1, 1]), up)
    assert k2.value == pytest.approx(3.0**-1, rel=1e-12)
    km = factor_kernel(spec, word(Z1, [-1]), up)
    assert km.value == pytest.approx(3.0**0.5, rel=1e-12)
    # the target end drops out of the ratio entirely
    assert factor_kernel(spec, word(Z1, [1, 1]), dn).value == pytest.approx(
        k2.value, rel=1e-15
    )


def test_biased_line_kernel_against_ratio_oracle():
    # p^(n)(x, e) / p^(n)(e, e) read straight off the n-step arrays
    spec = biased_line()
    up = EndPrefix.from_pattern(Z1, [1], 10)
    for letters in ([1, 1], [-1]):
        x = word(Z1, letters)
        tail = ratio_sequence(spec, x, identity(Z1), 4000).values[-1]
        assert factor_kernel(spec, x, up).value == pytest.approx(tail, rel=1e-2)


# -- product kernels -----------------------------------------------------------


def test_product_kernel_multiplies_factors_and_joins_labels(t3xz):
    xi = EndPrefix.from_pattern(T3, [1, 2], 8)
    up = EndPrefix.from_pattern(Z1, [1], 8)
    target = ProductBoundaryPoint(xi, up)
    x1, x2 = word(T3, [1]), word(Z1, [1, 1])
    k = product_ratio_kernel(t3xz, (x1, x2), target)
    k1 = factor_kernel(t3xz.left, x1, xi)
    k2 = factor_kernel(t3xz.right, x2, up)
    assert k.value == pytest.approx(k1.value * k2.value, rel=1e-15)
    assert k.x == f"{k1.x}|{k2.x}"
    assert k.y_or_prefix == f"{k1.y_or_prefix}|{k2.y_or_prefix}"
    assert k.stabilized == (k1.stabilized and k2.stabilized)
    assert k.error >= abs(k2.value) * k1.error


def test_product_kernel_accepts_plain_target_pairs(t3xz):
    xi = EndPrefix.from_pattern(T3, [1, 2], 8)
    up = EndPrefix.from_pattern(Z1, [1], 8)
    a = product_ratio_kernel(t3xz, (word(T3, [1]), word(Z1, [1])), (xi, up))
    b = product_ratio_kernel(
        t3xz, (word(T3, [1]), word(Z1, [1])), ProductBoundaryPoint(xi, up)
    )
    assert a.value == b.value


def test_product_kernel_error_propagates_both_factors(t3xt3):
    xi = EndPrefix.from_pattern(T3, [1, 2], 8)
    eta = EndPrefix.from_pattern(T3, [3, 1], 8)
    k = product_ratio_kernel(
        t3xt3, (word(T3, [1]), word(T3, [3])), ProductBoundaryPoint(xi, eta)
    )
    k1 = factor_kernel(t3xt3.left, word(T3, [1]), xi)
    k2 = factor_kernel(t3xt3.right, word(T3, [3]), eta)
    expected = (
        abs(k1.value) * k2.error + abs(k2.value) * k1.error + k1.error * k2.error
    )
    assert k.error == pytest.approx(expected, rel=1e-12)
    assert k.depth == min(k1.depth, k2.depth)


# -- combined asymptotics ------------------------------------------------------


def test_cartesian_asymptotics_hand_formula(t3xz):
    rho1 = 0.5 + math.sqrt(2.0) / 3.0
    asym = cartesian_asymptotics(t3xz, (rho1, 1.5), (1.0, 0.5))
    rho = 0.5 * rho1 + 0.5
    theta = 0.5 * rho1 / rho
    assert asym.rho == pytest.approx(rho, rel=1e-15)
    assert asym.theta == pytest.approx(theta, rel=1e-15)
    assert asym.alpha == 2.0
    assert asym.coefficient == pytest.approx(
        theta**1.5 * (1.0 - theta) ** 0.5, rel=1e-15
    )


def test_cartesian_asymptotics_identical_factors_split_evenly(t3xt3):
    rho1 = 0.5 + math.sqrt(2.0) / 3.0
    asym = cartesian_asymptotics(t3xt3, (rho1, 1.5), (rho1, 1.5))
    assert asym.rho == pytest.approx(rho1, rel=1e-15)
    assert asym.theta == pytest.approx(0.5, abs=1e-15)
    assert asym.alpha == 3.0
    assert asym.coefficient == pytest.approx(0.125, rel=1e-15)


def test_cartesian_asymptotics_uneven_weight(t3_spec, z_spec):
    pw = cartesian_product(t3_spec, z_spec, Fraction(1, 3))
    rho1 = 0.5 + math.sqrt(2.0) / 3.0
    asym = cartesian_asymptotics(pw, (rho1, 1.5), (1.0, 0.5))
    rho = rho1 / 3.0 + 2.0 / 3.0
    assert asym.rho == pytest.approx(rho, rel=1e-15)
    assert asym.theta == pytest.approx((rho1 / 3.0) / rho, rel=1e-15)


def test_cartesian_asymptotics_rejects_direct_kind(t3_spec, z_spec):
    with pytest.raises(ValidationError):
        cartesian_asymptotics(direct_product(t3_spec, z_spec), (0.9, 1.5), (1.0, 0.5))


def test_switching_decay_rate_shows_up_in_the_returns(t3xz):
    # fit the empirical rate of the mixed return sequence against the
    # closed-form interpolation s rho1 + (1 - s) rho2
    seq = product_return_sequence(t3xz, 2000)
    combined = 0.5 * (0.5 + math.sqrt(2.0) / 3.0) + 0.5
    rate = (seq[2000] / seq[1000]) ** (1.0 / 1000.0)
    # the n^(-2) prefactor biases the plain quotient by ~ alpha/n
    assert abs(rate - combined) < 2e-3


# -- boundary identification ---------------------------------------------------


def tree_line_candidates():
    xi = EndPrefix.from_pattern(T3, [1, 2], 8)
    eta = EndPrefix.from_pattern(T3, [2, 1], 8)
    up = EndPrefix.from_pattern(Z1, [1], 8)
    dn = EndPrefix.from_pattern(Z1, [-1], 8)
    return xi, eta, up, dn


def test_tree_times_line_merges_the_two_line_ends(t3xz):
    # the symmetric line factor cannot tell +inf from -inf, so the two
    # candidates over the same tree end collapse; a different tree end
    # stays separate
    xi, eta, up, dn = tree_line_candidates()
    candidates = [
        ProductBoundaryPoint(xi, up),
        ProductBoundaryPoint(xi, dn),
        ProductBoundaryPoint(eta, up),
    ]
    probes = [
        (word(T3, a), word(Z1, b))
        for a in ([], [1], [1, 2], [2])
        for b in ([], [1], [-1, -1])
    ]
    classes = identify_equivalent_boundary(t3xz, candidates, probes)
    assert classes.classes == ((0, 1), (2,))
    assert classes.probe_count == len(probes)
    assert classes.class_of(1) == 0
    assert classes.class_of(2) == 1


def test_tree_times_tree_separates_every_end_pair(t3xt3):
    xi, eta, _, _ = tree_line_candidates()
    far = EndPrefix.from_pattern(T3, [3, 1], 8)
    candidates = [
        ProductBoundaryPoint(xi, xi),
        ProductBoundaryPoint(xi, far),
        ProductBoundaryPoint(eta, xi),
        ProductBoundaryPoint(xi, xi),
    ]
    probes = [
        (word(T3, a), word(T3, b)) for a in ([], [1], [2]) for b in ([], [3], [1])
    ]
    classes = identify_equivalent_boundary(t3xt3, candidates, probes)
    assert classes.classes == ((0, 3), (1,), (2,))


def test_line_times_line_collapses_entirely(z_spec):
    pw = cartesian_product(z_spec, z_spec)
    _, _, up, dn = tree_line_candidates()
    candidates = [
        ProductBoundaryPoint(up, up),
        ProductBoundaryPoint(up, dn),
        ProductBoundaryPoint(dn, dn),
    ]
    probes = [
        (word(Z1, a), word(Z1, b)) for a in ([], [1], [-1]) for b in ([], [1])
    ]
    classes = identify_equivalent_boundary(pw, candidates, probes)
    assert classes.classes == ((0, 1, 2),)


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_empty_probe_list_is_refused_by_name(t3xz, count):
    xi, eta, up, dn = tree_line_candidates()
    candidates = [ProductBoundaryPoint(a, b) for a in (xi, eta) for b in (up, dn)]
    with pytest.raises(ValidationError, match="probe list is empty"):
        identify_equivalent_boundary(t3xz, candidates[:count], [])


def test_class_lookup_rejects_unknown_candidate(t3xz):
    xi, _, up, _ = tree_line_candidates()
    classes = identify_equivalent_boundary(
        t3xz, [ProductBoundaryPoint(xi, up)], [(identity(T3), identity(Z1))]
    )
    assert classes.class_of(0) == 0
    with pytest.raises(ValidationError):
        classes.class_of(5)


# -- reports -------------------------------------------------------------------


def test_switching_report_numbers(t3xz):
    rep = product_report(t3xz)
    assert rep["schema"] == 1
    assert rep["kind"] == "cartesian"
    assert rep["weight"] == 0.5
    rho1 = 0.5 + math.sqrt(2.0) / 3.0
    assert rep["factors"][0]["rho"] == pytest.approx(rho1, rel=1e-14)
    assert rep["factors"][0]["alpha"] == 1.5
    assert rep["factors"][1]["rho"] == 1.0
    assert rep["factors"][1]["alpha"] == 0.5
    combined = rep["combined"]
    assert combined["rho"] == pytest.approx(0.5 * rho1 + 0.5, rel=1e-14)
    assert combined["alpha"] == 2.0
    theta = 0.5 * rho1 / (0.5 * rho1 + 0.5)
    assert combined["theta"] == pytest.approx(theta, rel=1e-14)
    assert combined["coefficient"] == pytest.approx(
        theta**1.5 * (1 - theta) ** 0.5, rel=1e-14
    )


def test_direct_report_multiplies_rates(t3_spec, z_spec):
    rep = product_report(direct_product(t3_spec, z_spec))
    assert rep["kind"] == "direct"
    assert "weight" not in rep
    rho1 = 0.5 + math.sqrt(2.0) / 3.0
    assert rep["combined"]["rho"] == pytest.approx(rho1, rel=1e-14)
    assert rep["combined"]["alpha"] == 2.0
    assert "theta" not in rep["combined"]


def test_report_embeds_classes(t3xz):
    xi, _, up, dn = tree_line_candidates()
    classes = identify_equivalent_boundary(
        t3xz,
        [ProductBoundaryPoint(xi, up), ProductBoundaryPoint(xi, dn)],
        [(word(T3, [1]), word(Z1, [1]))],
    )
    rep = product_report(t3xz, classes=classes)
    assert rep["classes"] == [[0, 1]]
    assert rep["class_tol"] == classes.tol


# -- the mixture against its straightforward form ------------------------------


def reference_mixture(pw, n_max):
    """Per-n fancy-index gathers summed by scipy.special.logsumexp."""
    from scipy.special import gammaln, logsumexp

    r1 = factor_returns(pw.left, n_max)
    r2 = factor_returns(pw.right, n_max)
    s = float(pw.weight)
    with np.errstate(divide="ignore"):
        l1 = np.log(r1)
        l2 = np.log(r2)
    out = np.zeros(n_max + 1)
    out[0] = 1.0
    lg = gammaln(np.arange(n_max + 2))
    for n in range(1, n_max + 1):
        ks = np.arange(n + 1)
        terms = (
            lg[n + 1]
            - lg[ks + 1]
            - lg[n - ks + 1]
            + ks * math.log(s)
            + (n - ks) * math.log(1.0 - s)
            + l1[ks]
            + l2[n - ks]
        )
        finite = terms[np.isfinite(terms)]
        out[n] = math.exp(logsumexp(finite)) if finite.size else 0.0
    return out


def no_hold_tree_walk():
    # p^(1)(e, e) = 0: the mixture meets log(0) = -inf terms
    return isotropic_walk(2, {1: Fraction(1, 2), 2: Fraction(1, 2)})


FACTORS = {
    "t3-lazy-iso": lambda: preset("t3-lazy-iso"),
    "z-lazy": lambda: preset("z-lazy"),
    "biased line": biased_line,
    "f2-lazy-uniform": lambda: preset("f2-lazy-uniform"),
    "no-hold tree": no_hold_tree_walk,
}


@settings(max_examples=10, deadline=None)
@given(
    left=st.sampled_from(sorted(FACTORS)),
    right=st.sampled_from(sorted(FACTORS)),
    weight=st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]),
    n_max=st.integers(1, 400),
)
def test_switching_mixture_matches_the_scipy_form(left, right, weight, n_max):
    pw = cartesian_product(FACTORS[left](), FACTORS[right](), weight)
    want = reference_mixture(pw, n_max)
    assert np.array_equal(product_return_sequence(pw, n_max), want)


def test_mixture_drops_log_zero_terms():
    # at n = 1 every term holds a log(0); without the finite filter the
    # row would read nan, and at n = 2 the k = 1 term is dropped
    nohold = no_hold_tree_walk()
    pw = cartesian_product(nohold, nohold)
    seq = product_return_sequence(pw, 40)
    assert seq[1] == 0.0
    assert np.isfinite(seq).all()
    assert np.array_equal(seq, reference_mixture(pw, 40))
    want = product_nstep_pair(pw, 2, identity(T3), identity(T3))
    assert seq[2] == pytest.approx(float(want), rel=1e-14)


# -- the module-local log-sum-exp ----------------------------------------------


@pytest.mark.parametrize(
    "values",
    [
        [-3.5],
        [-2.0] * 7,
        [0.5, -1.0, 0.5, -30.0, 0.5],
        list(np.linspace(-700 * math.log(10), 0.0, 1001)),
        list(np.linspace(0.0, -700 * math.log(10), 1001)) + [0.0, -1e-3],
    ],
    ids=["one", "all-equal", "ties", "700-decades", "700-decades-tied"],
)
def test_logsumexp_replica_is_scipy_bit_for_bit(values):
    from scipy.special import logsumexp

    a = np.array(values)
    got, want = _logsumexp(a), logsumexp(a)
    assert math.isfinite(got)
    assert float(got).hex() == float(want).hex()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(-1700.0, 50.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=300,
    ),
    st.integers(0, 4),
)
def test_logsumexp_replica_on_random_rows(values, ties):
    from scipy.special import logsumexp

    a = np.array(values + [max(values)] * ties)
    assert float(_logsumexp(a)).hex() == float(logsumexp(a)).hex()
