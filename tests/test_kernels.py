"""Boundary kernels, eigenfunctions, conjugated chains and reports."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from mpmath import mp

from treewalks import (
    ConvergenceError,
    EndPrefix,
    FirstPassageSystem,
    KernelTable,
    PlainTreeRows,
    ValidationError,
    ancona_harnack_check,
    ball,
    doob_green_decay,
    distance,
    finite_walk,
    free_group,
    identity,
    isotropic_walk,
    kernels,
    martin_kernel_nn,
    meet_length,
    plain_tree_rho,
    preset,
    radial_fold,
    ratio_kernel_isotropic,
    ratio_kernel_nn,
    spherical,
    tree_alphabet,
    verify_t_harmonic,
    word,
    word_twin,
)
from treewalks.series import shared_system

F2 = free_group(2)
T3 = tree_alphabet(2)


# -- spherical eigenfunction ---------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4])
def test_spherical_solves_radial_eigenproblem(q):
    rho = plain_tree_rho(q)
    assert rho == 2.0 * math.sqrt(q) / (q + 1)
    assert spherical(q, 0) == 1.0
    # uniform neighbour averaging reproduces rho times the value
    assert abs(spherical(q, 1) - rho) < 1e-15
    for n in range(1, 30):
        avg = (spherical(q, n - 1) + q * spherical(q, n + 1)) / (q + 1)
        assert abs(avg - rho * spherical(q, n)) < 1e-12


def test_spherical_is_positive_and_decaying():
    vals = [spherical(2, n) for n in range(40)]
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals[1:], vals[2:]))


# -- isotropic ratio kernel ------------------------------------------------------


def test_isotropic_kernel_is_one_at_root(t3_spec):
    xi = EndPrefix.from_pattern(T3, [1, 2], 20)
    got = ratio_kernel_isotropic(t3_spec, identity(T3), xi)
    assert got.value == 1.0
    assert got.stabilized


def test_isotropic_kernel_closed_form_on_and_off_ray(t3_spec):
    xi = EndPrefix.from_pattern(T3, [1, 2], 24)
    # two steps along the ray: horocycle -2, kernel q
    on = ratio_kernel_isotropic(t3_spec, word(T3, [1, 2]), xi)
    assert abs(on.value - 2.0) < 1e-15
    # two steps off the ray: horocycle +2, kernel 1/q
    off = ratio_kernel_isotropic(t3_spec, word(T3, [3, 1]), xi)
    assert abs(off.value - 0.5) < 1e-15


def test_isotropic_kernel_requires_isotropy(f2_spec):
    xi = EndPrefix.from_pattern(F2, [1], 8)
    with pytest.raises(ValidationError):
        ratio_kernel_isotropic(f2_spec, identity(F2), xi)


def test_isotropic_finite_values_converge_to_boundary(t3_spec):
    # fixed end, finite targets marching out along it: the finite kernel
    # approaches the boundary value and the gap decays fast in depth
    x = word(T3, [3])
    xi = EndPrefix.from_pattern(T3, [1, 2], 24)
    limit = ratio_kernel_isotropic(t3_spec, x, xi).value
    gaps = []
    for depth in range(8, 17):
        y = xi.truncate(depth).word
        finite = ratio_kernel_isotropic(t3_spec, x, y).value
        gap = abs(finite - limit)
        gaps.append(gap)
        assert gap < 2.0 ** (-depth / 4.0)
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))


def test_meet_length_matches_confluent():
    xi = EndPrefix.from_pattern(F2, [1, 2], 12)
    assert meet_length(word(F2, [1, 2, 1]), xi) == 3
    assert meet_length(word(F2, [2]), xi) == 0


# -- nearest-neighbour kernels ----------------------------------------------------


def test_nn_boundary_kernel_telescopes_exactly(f2_system):
    xi = EndPrefix.from_pattern(F2, [1, 2], 12)
    r = f2_system.radius().r
    got = martin_kernel_nn(f2_system, word(F2, [1]), xi, t=1.0 / r)
    # resolved confluent: the finite quotient equals the limit on the nose
    assert got.error < 1e-14
    assert got.stabilized


def test_nn_ratio_kernel_reports_finite_depth_gap(f2_system):
    # the finite-target reading differs from the boundary limit; the
    # error column carries that gap rather than pretending it vanishes
    xi = EndPrefix.from_pattern(F2, [1, 2], 12)
    got = ratio_kernel_nn(f2_system, word(F2, [1]), xi)
    assert got.error > 1e-3
    assert got.stabilized


def lazy_uniform_f3():
    ab = free_group(3)
    mu = {identity(ab): Fraction(1, 7)}
    mu.update({word(ab, [c]): Fraction(1, 7) for c in ab.letters})
    return finite_walk(ab, mu)


@pytest.mark.parametrize(
    "build",
    [
        lambda: preset("f2-lazy-uniform"),
        lambda: word_twin(preset("t3-lazy-iso")),
        lazy_uniform_f3,
    ],
    ids=["f2-lazy-uniform", "t3-twin", "f3-lazy-uniform"],
)
def test_nn_ratio_kernel_is_the_spherical_quotient(build):
    # uniform walks have H(x, y) = phi(d(x, y)) / phi(|y|) with phi the
    # spherical function; the square-root data must reproduce it to rounding
    spec = build()
    system = FirstPassageSystem(spec)
    q = spec.alphabet.q
    words = ball(spec.alphabet, 3)
    worst = 0.0
    for x in words:
        for y in words:
            ref = spherical(q, distance(x, y)) / spherical(q, len(y))
            got = ratio_kernel_nn(system, x, y).value
            worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-14


def test_nn_kernel_value_is_alpha_product(f2_system):
    fp = f2_system.fold()
    alpha = float(fp.values[1])
    xi = EndPrefix.from_pattern(F2, [1], 12)
    # one step along the ray divides by alpha, one step off multiplies
    on = ratio_kernel_nn(f2_system, word(F2, [1]), xi)
    assert abs(on.value - 1.0 / alpha) < 1e-12
    off = ratio_kernel_nn(f2_system, word(F2, [2]), xi)
    assert abs(off.value - alpha) < 1e-12


def test_nn_kernel_cocycle(f2_system):
    xi = EndPrefix.from_pattern(F2, [1, 2], 20)
    for g_letters, x_letters in [([2], [1]), ([1], [2, -1]), ([-2, 1], [1, 2])]:
        g = word(F2, g_letters)
        x = word(F2, x_letters)
        lhs = ratio_kernel_nn(f2_system, g * x, xi).value
        rhs = (
            ratio_kernel_nn(f2_system, x, EndPrefix(g.inverse() * xi.word)).value
            * ratio_kernel_nn(f2_system, g, xi).value
        )
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_isotropic_kernel_cocycle(t3_spec):
    xi = EndPrefix.from_pattern(T3, [1, 2], 20)
    for g_letters, x_letters in [([3], [1]), ([1], [2, 3]), ([2, 1], [3])]:
        g = word(T3, g_letters)
        x = word(T3, x_letters)
        lhs = ratio_kernel_isotropic(t3_spec, g * x, xi).value
        rhs = (
            ratio_kernel_isotropic(t3_spec, x, EndPrefix(g.inverse() * xi.word)).value
            * ratio_kernel_isotropic(t3_spec, g, xi).value
        )
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_martin_kernel_above_decay_rate(f2_system):
    xi = EndPrefix.from_pattern(F2, [1], 12)
    rho = 1.0 / f2_system.radius().r
    got = martin_kernel_nn(f2_system, word(F2, [1]), xi, t=0.5 * (1 + rho))
    assert got.value > 1.0
    with pytest.raises(ValidationError):
        martin_kernel_nn(f2_system, word(F2, [1]), xi, t=0.5 * rho)


def test_kernel_rows_refuse_a_value_that_is_not_finite(f2_system):
    # at t = 1e308 the letter values sit near 1e-308, and the quotient for
    # x = y = a1 is 1 / F_1, which overflows
    x = word(F2, [1])
    with pytest.raises(ConvergenceError, match="x = 1, target 1 is inf, not finite"):
        martin_kernel_nn(f2_system, x, x, t=1e308)
    xi = EndPrefix.from_pattern(F2, [1], 12)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConvergenceError, match=f"x = 1, target 1,1,.* is {value}"):
            kernels._end_row(x, xi, lambda m: value, 1.0)


def test_kernel_rows_refuse_a_divisor_that_underflows(f2_system):
    # at t = 1e308 the letter values sit near 1e-308, so a passage product
    # over two letters or more underflows to 0
    x = word(F2, [1])
    xi = EndPrefix.from_pattern(F2, [2, -1], 24)
    underflow = "divides by a first-passage product that underflows to 0"
    end = rf"x = 1, target 2,-1,2,.*\.\.\. {underflow}"
    with pytest.raises(ConvergenceError, match=end):
        martin_kernel_nn(f2_system, x, xi, t=1e308)
    with pytest.raises(ConvergenceError, match=f"x = 1, target 2,-1 {underflow}"):
        martin_kernel_nn(f2_system, x, word(F2, [2, -1]), t=1e308)
    # the boundary quotient over a confluent of length 2 divides by F_2 F_-1
    tiny = dict.fromkeys(F2.letters, 1e-200)
    end = f"x = 2,-1,2, target 2,-1,2,.* {underflow}"
    with pytest.raises(ConvergenceError, match=end):
        kernels._end_quotient(tiny, word(F2, [2, -1, 2]), xi, 2)


def test_isotropic_grid_refuses_a_phi_that_underflows():
    # phi(n) = (1 + n (q - 1) / (q + 1)) q^(-n/2) is subnormal at q = 1e8
    # and n = 80, and 0 from n = 82 on
    q = 10**8
    spec = isotropic_walk(q, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    e = identity(tree_alphabet(q))
    y80, y120 = (EndPrefix.from_pattern(e.alphabet, [1, 2], n).word for n in (80, 120))
    assert kernels.ratio_grid_isotropic(spec, [e], [y80])[0, 0] == 1.0
    refused = r"target 1,2,1,.*,1,2 divides by phi\(120\), which underflows to 0"
    with pytest.raises(ConvergenceError, match=refused):
        kernels.ratio_grid_isotropic(spec, [e], [y80, y120])


def walk_s():
    # the skewed walk e 1/5, 1 3/10, -1 1/5, 2 1/5, -2 1/10
    weights = {(): 2, (1,): 3, (-1,): 2, (2,): 2, (-2,): 1}
    return finite_walk(
        F2, {word(F2, w): Fraction(p, 10) for w, p in weights.items()}
    )


@pytest.mark.parametrize(
    "make", [lambda: preset("f2-lazy-uniform"), walk_s], ids=["f2-lazy-uniform", "S"]
)
def test_martin_kernel_reads_the_fold_only_inside_the_bracket(make):
    # 5e-13 below the radius bracket the fold's F_-1 is about 1e-6 off in
    # relative terms, so 1/t is solved there; 5e-13 above it is refused
    system = shared_system(make())
    cert = system.radius()
    x, e = word(F2, [1]), identity(F2)
    t = 1.0 / (cert.lo - 5e-13)
    got = martin_kernel_nn(system, x, e, t).value
    assert got == float(system.solve(1.0 / t).values[-1])
    assert abs(got / float(system.fold().values[-1]) - 1.0) > 1e-7
    with pytest.raises(ValidationError, match="puts 1/t beyond the singularity"):
        martin_kernel_nn(system, x, e, 1.0 / (cert.hi + 5e-13))
    # t = 1/r reads the fold: the end kernel there is the ratio kernel
    xi = EndPrefix.from_pattern(F2, [2, -1], 24)
    rho = 1.0 / float(system.fold().r)
    at_rho = martin_kernel_nn(system, x, xi, rho)
    assert at_rho.value == ratio_kernel_nn(system, x, xi).value


# -- Doob conjugation ---------------------------------------------------------


def test_plain_tree_rows_are_uniform():
    rows = PlainTreeRows(2)
    out = rows.row(identity(T3))
    assert len(out) == 3
    assert sum(p for _, p in out) == 1


def test_eigenfunction_is_t_harmonic_for_plain_step():
    rho = plain_tree_rho(2)
    resid = verify_t_harmonic(
        PlainTreeRows(2), lambda v: spherical(2, len(v)), rho, radius=3
    )
    assert resid < 1e-12


def test_constant_function_is_one_harmonic(t3_spec):
    resid = verify_t_harmonic(t3_spec, lambda v: 1, 1, radius=3)
    assert resid == 0.0


def test_doob_green_decay_rejects_non_harmonic_eigenfunction(monkeypatch):
    # the spherical function is 1-harmonic for no q >= 2
    monkeypatch.setattr(kernels, "plain_tree_rho", lambda q: 1.0)
    with pytest.raises(ValidationError, match="not t-harmonic for q = 2"):
        doob_green_decay(2, range(3))


def test_doob_green_decay_closed_form():
    q = 2
    got = doob_green_decay(q, range(9))
    for k, value in got:
        expect = (2 * q / (q - 1)) / (1 + (q - 1) / (q + 1) * k)
        assert abs(value - expect) < 1e-10


def test_radial_fold_closed_values():
    z, Fv, green = radial_fold(2)
    assert abs(float(z) - 3.0 / (2.0 * math.sqrt(2.0))) < 1e-14
    assert abs(float(Fv) - 1.0 / math.sqrt(2.0)) < 1e-14


# -- Green-comparison report -------------------------------------------------


def test_ancona_triples_sit_at_one(f2_system):
    report = ancona_harnack_check(f2_system, n_pairs=8, distances=(4, 6))
    assert report.triple_green_gap < 1e-9
    assert report.samples > 0
    for _, spread in report.per_distance_spread:
        assert spread < 1e-9
    assert report.harnack_max >= 1.0
    assert report.quadruple_max < 1e-9


def test_ancona_forms_on_the_uniform_walk_against_mpmath(f2_system):
    # at z = 1, F = 1/5 + F/5 + 3F^2/5 has least root 1/3, and
    # G(e, e | 1) = 1 / (1 - 1/5 - 4F/5) = 15/8; F rises with z, so
    # 1/G(e, e | 1) and 1/F(1) are the largest triple and growth
    with mp.workprec(200):
        F = (4 - mp.sqrt(16 - 12)) / 6
        G = 1 / (1 - mp.mpf(1) / 5 - 4 * F / 5)
        assert float(1 / G) == float(mp.mpf(8) / 15)
        report = ancona_harnack_check(f2_system, n_pairs=20)
        assert report.triple_max == float(1 / G) == 0.5333333333333333
        assert report.harnack_max == float(1 / F) == 3.0
    assert report.triple_min == 1.0 / float(f2_system.solve(report.z_values[2]).green)
    assert report.triple_green_gap == report.quadruple_max == 0.0
    assert report.per_distance_spread == ((4, 0.0), (6, 0.0), (8, 0.0), (10, 0.0))
    assert report.samples == 3 * 4 * 20


def test_ancona_is_seed_deterministic(f2_system):
    a = ancona_harnack_check(f2_system, n_pairs=4, distances=(4,), seed=7)
    b = ancona_harnack_check(f2_system, n_pairs=4, distances=(4,), seed=7)
    assert a == b


@pytest.mark.parametrize(
    "sizes",
    [{"n_pairs": 0}, {"n_pairs": -3}, {"distances": (1,)}, {"distances": (4, 0)},
     {"distances": ()}],
    ids=str,
)
def test_ancona_refuses_sizes_with_no_sample(f2_system, sizes):
    # no pairs leave no sample, and a distance below 2 no inner geodesic
    # point; both are refused before the first random draw
    with pytest.raises(ValidationError, match="n_pairs >= 1 and distances >= 2"):
        ancona_harnack_check(f2_system, **sizes)
    report = ancona_harnack_check(f2_system, n_pairs=1, distances=(2,))
    assert report.samples == 3 and report.triple_green_gap < 1e-9


def test_ancona_samples_build_no_words(f2_system, count_reduced_words):
    # samples are letter tuples: the words built do not grow with the pairs
    few, many = (
        count_reduced_words(lambda: ancona_harnack_check(f2_system, n_pairs=k))
        for k in (4, 40)
    )
    assert few == many


# -- tables -------------------------------------------------------------------


def _tiny_table(t3_spec):
    xi = EndPrefix.from_pattern(T3, [1, 2], 16)
    rows = [
        ratio_kernel_isotropic(t3_spec, x, xi)
        for x in [identity(T3), word(T3, [1]), word(T3, [1, 2])]
    ]
    return KernelTable(kind="tree-boundary", rows=rows, meta={"q": 2})


def test_kernel_table_csv_quotes_word_labels(t3_spec):
    table = _tiny_table(t3_spec)
    text = table.to_csv()
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(KernelTable.COLUMNS)
    assert len(parsed) == 1 + len(table.rows)
    # comma-bearing labels survive the round trip
    assert parsed[3][0] == "1,2"
    for line, row in zip(parsed[1:], table.rows):
        assert float(line[3]) == row.value


def test_kernel_table_json_schema(t3_spec):
    table = _tiny_table(t3_spec)
    payload = json.loads(table.to_json())
    assert payload["schema"] == 1
    assert payload["kind"] == "tree-boundary"
    assert [r["x"] for r in payload["rows"]] == ["e", "1", "1,2"]
    assert all("error" in r and "stabilized" in r for r in payload["rows"])
