"""Kernel-equivalence scans.

The scans certify membership at a finite resolution (candidate ball,
probe ball, tolerance); the tests freeze small-radius outcomes for the
free group walk and the tree-times-line product and check that the
certificates say exactly what was computed.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import (
    ProductBoundaryPoint,
    ValidationError,
    ball,
    cartesian_product,
    detect_R_mu,
    direct_product,
    distance,
    factor_kernel,
    factor_kernel_grid,
    finite_walk,
    free_group,
    identity,
    isotropic_walk,
    martin_kernel_nn,
    preset,
    product_kernel_grid,
    product_ratio_kernel,
    spectral_radius,
    spherical,
    tree_alphabet,
    word,
)
from treewalks import kernels, products
from treewalks.series import shared_system

T3 = tree_alphabet(2)


# -- single-walk scans ---------------------------------------------------------


def test_free_group_scan_finds_only_the_identity(f2_spec):
    report = detect_R_mu(f2_spec, candidate_radius=3, probe_radius=3, tol=1e-6)
    assert report.members() == ["e"]
    assert report.member_indices == (0,)
    assert report.certificate == (
        "no non-identity member in ball 3 at tolerance 1e-06"
    )
    assert report.inverse_closed
    # every other candidate is far from the identity's kernel column,
    # not marginal: the smallest nonzero deviation is order one
    nonzero = [d for d in report.deviations if d > 0.0]
    assert min(nonzero) > 0.5


def test_free_group_ball_three_separates_every_candidate(f2_spec):
    report = detect_R_mu(f2_spec, candidate_radius=3, probe_radius=3, tol=1e-6)
    assert len(report.classes) == len(report.labels)
    assert all(len(c) == 1 for c in report.classes)


def test_deviations_grow_with_the_probe_ball(f2_spec):
    near = detect_R_mu(f2_spec, candidate_radius=2, probe_radius=2)
    far = detect_R_mu(f2_spec, candidate_radius=2, probe_radius=4)
    assert near.labels == far.labels
    for lab in ("1", "-2", "1,2"):
        i = near.labels.index(lab)
        assert far.deviations[i] >= near.deviations[i]
        assert near.deviations[i] > 0.4
    assert near.members() == far.members() == ["e"]


def test_membership_is_monotone_in_tolerance(f2_spec):
    tight = detect_R_mu(f2_spec, candidate_radius=2, probe_radius=2, tol=1e-8)
    loose = detect_R_mu(f2_spec, candidate_radius=2, probe_radius=2, tol=1.0)
    assert set(tight.members()) <= set(loose.members())
    # at tolerance one the single letters slip inside, and the set is
    # still closed under inversion
    assert set(loose.members()) == {"e", "1", "-1", "2", "-2"}
    assert loose.inverse_closed


# -- product scans -------------------------------------------------------------


def test_tree_times_line_members_are_the_line_fibre(t3xz):
    report = detect_R_mu(t3xz, candidate_radius=2, probe_radius=2, tol=1e-6)
    assert set(report.members()) == {"e|e", "e|1", "e|-1", "e|1,1", "e|-1,-1"}
    assert report.certificate == (
        "4 non-identity members in ball 2 at tolerance 1e-06"
    )
    assert report.inverse_closed
    # the symmetric line factor reproduces the identity column exactly,
    # so membership here is sharp, not just below tolerance
    assert max(report.deviations[i] for i in report.member_indices) == 0.0


def test_tree_times_line_classes_follow_the_tree_coordinate(t3xz):
    report = detect_R_mu(t3xz, candidate_radius=2, probe_radius=2, tol=1e-6)
    # candidates pair a tree vertex with a line offset; the kernel only
    # sees the tree coordinate, so there is one class per tree vertex
    tree_coords = {lab.split("|")[0] for lab in report.labels}
    assert len(report.classes) == len(tree_coords) == 10
    for group in report.classes:
        coords = {report.labels[i].split("|")[0] for i in group}
        assert len(coords) == 1
    assert report.class_of("e|1,1") == report.class_of("e|e") == 0
    assert report.class_of("1|e") != 0


@pytest.mark.parametrize("radii", [(-1, 4), (4, -1)])
def test_negative_radius_is_refused(radii):
    # a negative radius leaves an empty probe grid or candidate ball
    candidate_radius, probe_radius = radii
    with pytest.raises(ValidationError, match="radii must be >= 0"):
        detect_R_mu(
            preset("f2-lazy-uniform"),
            candidate_radius=candidate_radius,
            probe_radius=probe_radius,
        )


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_negative_or_nan_tolerance_is_refused(tol):
    # the identity would fail its own membership test
    with pytest.raises(ValidationError, match="tol >= 0"):
        detect_R_mu(preset("f2-lazy-uniform"), tol=tol)


def test_class_lookup_rejects_unknown_label(t3xz):
    report = detect_R_mu(t3xz, candidate_radius=1, probe_radius=1)
    with pytest.raises((ValueError, ValidationError)):
        report.class_of("3,3|e")


# -- kernel grids ----------------------------------------------------------------
#
# The grids are the one implementation of a finite-target kernel value:
# detect_R_mu reads them whole and the scalar kernels read 1x1 grids.  Each
# entry is compared with ==, so reports stay bit-identical, against the
# kernel's formula written out below from the walk's invariants.


def reference_kernel(spec, x, y):
    """H(x, y) for a vertex y, from the closed form of its walk class."""
    if spec.walk_class == "radial":
        return spherical(spec.q, distance(x, y)) / spherical(spec.q, len(y))
    if spec.walk_class == "lattice":
        c = spectral_radius(spec).details["c"]
        signed = -len(x) if x.letters and x.letters[0] < 0 else len(x)
        return math.exp(c * signed)
    # Martin kernel at the decay rate times the square-root coefficients'
    # quotient G(x^-1 y) / G(y), each G the Green gamma plus its letters'
    system = shared_system(spec)
    rho = 1.0 / float(system.fold().r)
    gammas = system.gamma_table()

    def green_gamma(w):
        out = gammas["green"]
        for c in w.letters:
            out += gammas[c]
        return out

    k = martin_kernel_nn(system, x, y, rho).value
    return k * green_gamma(x.inverse() * y) / green_gamma(y)


def reference_grid(kernel, probes, targets):
    return np.array([[kernel(x, y) for y in targets] for x in probes])


def nn_walk(rank, weights, hold):
    ab = free_group(rank)
    mu = {identity(ab): hold}
    for c, w in zip(ab.letters, weights):
        mu[word(ab, [c])] = (1 - hold) * Fraction(w, sum(weights))
    return finite_walk(ab, mu)


def line_walk(weights):
    # weights of the offsets -1, 0, 1, 2 on the integer line
    z1 = free_group(1)
    steps = (word(z1, [-1]), identity(z1), word(z1, [1]), word(z1, [1, 1]))
    total = sum(weights)
    return finite_walk(
        z1, {w: Fraction(p, total) for w, p in zip(steps, weights) if p}
    )


@settings(max_examples=6, deadline=None)
@given(
    rank=st.sampled_from([2, 3]),
    weights=st.lists(st.integers(1, 5), min_size=6, max_size=6),
    hold=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]),
)
def test_nn_grid_equals_the_scalar_kernel_bitwise(rank, weights, hold):
    spec = nn_walk(rank, weights[: 2 * rank], hold)
    probes, targets = ball(spec.alphabet, 2), ball(spec.alphabet, 2)
    grid = factor_kernel_grid(spec, probes, targets)
    assert grid.dtype == np.float64
    want = reference_grid(lambda x, y: reference_kernel(spec, x, y), probes, targets)
    assert (grid == want).all()
    assert factor_kernel(spec, probes[-1], targets[-1]).value == grid[-1, -1]


@pytest.mark.parametrize(
    "spec",
    [
        preset("t3-lazy-iso"),
        isotropic_walk(3, {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}),
        preset("z-lazy"),
        line_walk([1, 2, 2, 1]),
    ],
    ids=["t3", "t4-range-two", "z-lazy", "line-drift"],
)
def test_radial_and_lattice_grids_equal_the_scalar_kernel_bitwise(spec):
    probes, targets = ball(spec.alphabet, 3), ball(spec.alphabet, 4)
    grid = factor_kernel_grid(spec, probes, targets)
    want = reference_grid(lambda x, y: reference_kernel(spec, x, y), probes, targets)
    assert (grid == want).all()
    assert factor_kernel(spec, probes[-1], targets[-1]).value == grid[-1, -1]


@pytest.mark.parametrize(
    "pw",
    [
        preset("t3xZ"),
        preset("t3xt3"),
        cartesian_product(
            nn_walk(2, [1, 2, 3, 4], Fraction(1, 4)), line_walk([1, 2, 2, 1])
        ),
        direct_product(preset("z-lazy"), preset("f2-lazy-uniform")),
    ],
    ids=["t3xZ", "t3xt3", "f2xline", "Zxf2-direct"],
)
def test_product_grid_equals_the_product_kernel_bitwise(pw):
    def pairs(radius):
        left, right = ball(pw.left.alphabet, radius), ball(pw.right.alphabet, radius)
        return [(u, v) for u in left for v in right if len(u) + len(v) <= radius]

    probes, targets = pairs(2), pairs(3)
    grid = product_kernel_grid(pw, probes, targets)

    def product_reference(x, y):
        # the factor kernels multiplied, as product_ratio_kernel does
        return reference_kernel(pw.left, x[0], y[0]) * reference_kernel(
            pw.right, x[1], y[1]
        )

    want = reference_grid(product_reference, probes, targets)
    assert (grid == want).all()
    # the scalar product kernel reads the same entries
    x, y = probes[-1], targets[-1]
    assert product_ratio_kernel(pw, x, y).value == grid[-1, -1]


def test_words_walk_scan_raises_the_scalar_error():
    ab = free_group(2)
    mu = {identity(ab): Fraction(1, 4)}
    for letters in ([1], [-1], [2], [-2], [1, 2], [-2, -1]):
        mu[word(ab, letters)] = Fraction(1, 8)
    spec = finite_walk(ab, mu)
    assert spec.walk_class == "words"
    e = identity(ab)
    with pytest.raises(ValidationError) as scalar:
        factor_kernel(spec, e, e)
    with pytest.raises(ValidationError) as scan:
        detect_R_mu(spec, candidate_radius=1, probe_radius=1)
    assert str(scan.value) == str(scalar.value)
    with pytest.raises(ValidationError) as product_scan:
        detect_R_mu(cartesian_product(preset("t3-lazy-iso"), spec), 1, 1)
    assert str(product_scan.value) == str(scalar.value)


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_lattice_factor_scan_finds_its_spectral_radius_once(monkeypatch):
    calls = counting(monkeypatch, products, "spectral_radius")
    report = detect_R_mu(preset("t3xZ"), candidate_radius=4, probe_radius=3)
    assert len(report.labels) > 50
    assert len(calls) == 1


def test_nn_scan_makes_no_scalar_kernel_call(monkeypatch, f2_spec):
    routed = counting(monkeypatch, products, "ratio_kernel_nn")
    direct = counting(monkeypatch, kernels, "ratio_kernel_nn")
    report = detect_R_mu(f2_spec, candidate_radius=4, probe_radius=4)
    assert report.members() == ["e"]
    assert routed == direct == []


def test_factor_routes_look_kernels_up_at_call_time(monkeypatch, t3_spec, f2_spec):
    # a wrapper installed on products after import sees each routed call,
    # as perfbench's tracer needs; a route holding the function objects
    # themselves would bypass it
    names = (
        "ratio_kernel_isotropic",
        "ratio_grid_isotropic",
        "ratio_kernel_nn",
        "ratio_grid_nn",
    )
    calls = {name: counting(monkeypatch, products, name) for name in names}
    for spec in (t3_spec, f2_spec):
        x, y = word(spec.alphabet, [1]), word(spec.alphabet, [2])
        factor_kernel(spec, x, y)
        factor_kernel_grid(spec, [x], [y])
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(names, 1)


def reference_classes(vectors, tol):
    # the one-representative-at-a-time loop the array version replaces
    classes, reps = [], []
    for i, vec in enumerate(vectors):
        for c, rep in enumerate(reps):
            scale = np.maximum(np.abs(rep), 1e-300)
            if np.max(np.abs(vec - rep) / scale) <= tol:
                classes[c].append(i)
                break
        else:
            classes.append([i])
            reps.append(vec)
    return tuple(tuple(c) for c in classes)


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=30),
    nudges=st.lists(st.sampled_from([0.0, 1e-9, -3e-7, 2e-6, 0.5]), min_size=30, max_size=30),
)
def test_greedy_classes_match_the_one_by_one_loop(picks, nudges):
    # a few base vectors, each copy nudged below, near or above tol
    bases = np.random.default_rng(7).uniform(0.1, 3.0, size=(6, 5))
    bases[2, 1] = 0.0
    vectors = [bases[k] * (1.0 + nudges[i]) for i, k in enumerate(picks)]
    assert products._greedy_classes(vectors, 1e-6) == reference_classes(vectors, 1e-6)


def test_greedy_classes_compare_in_full_after_the_last_entry():
    # both representatives match the last entry of vector 2, only the
    # second matches it everywhere; vector 7 matches classes 5 and 6 in
    # full and joins the first; NaN entries match nothing
    nan = float("nan")
    vectors = [[1.0, 2.0, 3.0], [1.0, 5.0, 3.0], [1.0, 5.0, 3.0 * (1 + 1e-9)],
               [1.0, 2.0, nan], [1.0, 2.0, nan], [1.0, 1.0, 1.0],
               [1.0, 1.0, 1.0 + 1.5e-6], [1.0, 1.0, 1.0 + 0.75e-6], [nan, 2.0, 3.0]]
    want = ((0,), (1, 2), (3,), (4,), (5, 7), (6,), (8,))
    assert products._greedy_classes(vectors, 1e-6) == want
    assert reference_classes(np.array(vectors), 1e-6) == want


# -- report serialization --------------------------------------------------------


def test_report_json_round_trip(t3xz):
    report = detect_R_mu(t3xz, candidate_radius=1, probe_radius=1)
    payload = json.loads(report.to_json())
    assert payload["schema"] == 1
    assert payload["candidate_radius"] == 1
    assert payload["probe_radius"] == 1
    assert payload["members"] == report.members()
    assert payload["labels"] == list(report.labels)
    assert payload["inverse_closed"] == report.inverse_closed
    assert payload["certificate"] == report.certificate
    assert payload["classes"] == [list(c) for c in report.classes]
