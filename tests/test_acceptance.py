"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every tolerance and budget below is asserted at its stated
value; the two strict-xfail tests record claims the implementation
measures but cannot meet, with the measured value printed.
"""

import math
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from treewalks import (
    EndPrefix,
    ancona_harnack_check,
    ball,
    contraction_limit,
    detect_R_mu,
    doob_green_decay,
    fit_local_limit,
    horocycle,
    identity,
    martin_kernel_matrix,
    martin_kernel_nn,
    nstep,
    passage_matrix,
    plain_tree_rho,
    product_nstep_pair,
    product_return_sequence,
    ratio_kernel_isotropic,
    ratio_kernel_nn,
    ratio_sequence,
    spherical,
    tree_alphabet,
    ultrametric,
    verify_t_harmonic,
    word,
    word_twin,
)
from treewalks.products import factor_returns
from treewalks.series import green_second_order, shared_system

T3 = tree_alphabet(2)
ALPHA = 1.0 / math.sqrt(3.0)


def verdict(tag, ok, detail):
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_tree_kernel_closed_form(t3_spec):
    xi = EndPrefix.from_pattern(T3, [1, 2], 30)
    t0 = time.perf_counter()
    worst = 0.0
    for x in ball(T3, 3):
        exact = 2.0 ** (-horocycle(x, xi) / 2.0)
        got = ratio_kernel_isotropic(t3_spec, x, xi).value
        worst = max(worst, abs(got - exact) / exact)
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 1.0
    verdict("01", ok, f"max rel err {worst:.2e} over ball 3 in {dt:.2f} s")
    assert worst < 1e-6
    assert dt < 1.0


def test_criterion_02_spherical_eigenfunction():
    worst = 0.0
    for q in (2, 3, 4):
        rho = plain_tree_rho(q)
        assert rho == 2.0 * math.sqrt(q) / (q + 1)
        resid = abs(spherical(q, 1) - rho * spherical(q, 0))
        worst = max(worst, resid)
        for n in range(1, 51):
            avg = (spherical(q, n - 1) + q * spherical(q, n + 1)) / (q + 1)
            worst = max(worst, abs(avg - rho * spherical(q, n)))
    ok = worst < 1e-10
    verdict("02", ok, f"max eigen residual {worst:.2e} for q in 2..4, n <= 50")
    assert worst < 1e-10


def test_criterion_03_conjugated_green_decay():
    q = 2
    vals = doob_green_decay(q, range(0, 21))
    worst = 0.0
    for k, got in vals:
        closed = (2.0 * q / (q - 1)) / (1.0 + (q - 1) / (q + 1) * k)
        worst = max(worst, abs(got - closed))
    ok = worst < 1e-8
    verdict("03", ok, f"max abs err {worst:.2e} against the closed form, k <= 20")
    assert worst < 1e-8


def test_criterion_04_line_ratio_limit(z_spec):
    e = identity(z_spec.alphabet)
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(-3, 4):
        x = word(z_spec.alphabet, [1] * m if m >= 0 else [-1] * -m)
        tail = ratio_sequence(z_spec, x, e, 10_000).values[-1]
        worst = max(worst, abs(tail - 1.0))
    dt = time.perf_counter() - t0
    ok = worst < 1e-2 and dt < 5.0
    verdict("04", ok, f"max |ratio - 1| = {worst:.2e} at n = 10^4 in {dt:.2f} s")
    assert worst < 1e-2
    assert dt < 5.0


def test_criterion_05_singularity_radius_and_decay_rate(f2_spec):
    r = float(shared_system(f2_spec).radius().r)
    closed = 5.0 / (1.0 + 2.0 * math.sqrt(3.0))
    gap_r = abs(r - closed)
    fit = fit_local_limit(factor_returns(f2_spec, 2000), (500, 2000))
    gap_rho = abs(fit.rho - 1.0 / r)
    ok = gap_r < 1e-10 and gap_rho < 1e-3
    verdict(
        "05", ok, f"radius gap {gap_r:.2e}; fitted-rate gap {gap_rho:.2e}"
    )
    assert gap_r < 1e-10
    assert gap_rho < 1e-3


def test_criterion_06_local_limit_power(f2_spec):
    t0 = time.perf_counter()
    fit = fit_local_limit(factor_returns(f2_spec, 2000), (500, 2000))
    dt = time.perf_counter() - t0
    ok = 1.4 <= fit.alpha <= 1.6 and dt < 30.0
    verdict("06", ok, f"alpha_hat = {fit.alpha:.4f} in {dt:.2f} s")
    assert 1.4 <= fit.alpha <= 1.6
    assert dt < 30.0


def test_criterion_07_finite_targets_approach_the_boundary(f2_spec):
    system = shared_system(f2_spec)
    F2 = f2_spec.alphabet
    xi = EndPrefix.from_pattern(F2, [2, -1], 12)
    r = float(system.radius().r)
    monotone = True
    worst_tel = 0.0
    for x in ball(F2, 2):
        limit = ratio_kernel_nn(system, x, xi).value
        gaps = []
        for d in range(3, 13):
            y = EndPrefix.from_pattern(F2, [2, -1], d).word
            gaps.append(abs(ratio_kernel_nn(system, x, y).value - limit))
        if any(b > a + 1e-15 for a, b in zip(gaps, gaps[1:])):
            monotone = False
        tel = abs(
            martin_kernel_nn(system, x, xi, 1.0 / r).value
            - ALPHA ** horocycle(x, xi)
        )
        worst_tel = max(worst_tel, tel)
    ok = monotone and worst_tel < 1e-10
    verdict(
        "07",
        ok,
        f"gap decrease monotone: {monotone}; telescoping residual {worst_tel:.2e}",
    )
    assert monotone
    assert worst_tel < 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="finite-depth vertex readings converge slowly, like 1/d, with "
    "no plateau: the worst gap to the boundary value is 6/(d+2), ~0.43 at "
    "depth 12, so 1e-3 needs depth ~6,000",
)
def test_criterion_07_final_gap_below_tolerance(f2_spec):
    system = shared_system(f2_spec)
    F2 = f2_spec.alphabet
    xi = EndPrefix.from_pattern(F2, [2, -1], 12)
    y12 = EndPrefix.from_pattern(F2, [2, -1], 12).word
    worst = 0.0
    for x in ball(F2, 2):
        limit = ratio_kernel_nn(system, x, xi).value
        worst = max(worst, abs(ratio_kernel_nn(system, x, y12).value - limit))
    verdict("07-gap", worst < 1e-3, f"worst depth-12 gap {worst:.2e}")
    assert worst < 1e-3


def test_criterion_07_gap_closes_like_one_over_depth(f2_spec):
    # the worst target of the xfail above, x = 2,-1 on the ray 2,-1: its
    # gap to the boundary value is 6/(d+2), so d times the gap climbs
    # 5.143, 5.538, 5.760, 5.878, 5.938 towards 6 and never plateaus
    system = shared_system(f2_spec)
    F2 = f2_spec.alphabet
    x = word(F2, [2, -1])
    worst = 0.0
    for d in (12, 24, 48, 96, 192):
        xi = EndPrefix.from_pattern(F2, [2, -1], d)
        limit = ratio_kernel_nn(system, x, xi).value
        gap = abs(ratio_kernel_nn(system, x, xi.word).value - limit)
        worst = max(worst, abs(gap * (d + 2) / 6.0 - 1.0))
    verdict("07-rate", worst < 1e-6, f"worst |gap (d+2)/6 - 1| = {worst:.1e}")
    assert worst < 1e-6


def test_criterion_08_matrix_kernel_and_contraction(f2_spec):
    F2 = f2_spec.alphabet
    xi = EndPrefix.from_pattern(F2, [2, -1], 10)
    worst = 0.0
    for x in ball(F2, 2):
        exact = ALPHA ** horocycle(x, xi)
        got = martin_kernel_matrix(f2_spec, x, xi).value
        worst = max(worst, abs(got - exact) / exact)
    r = float(shared_system(f2_spec).radius().r)
    block = word(F2, [2, -1, 2, -1])
    mat = passage_matrix(f2_spec, block, r)
    res = contraction_limit([mat] * 6)
    alt = contraction_limit(
        [mat] * 6,
        seeds=(np.full(mat.index.size, 2.0), np.array([1.0, 5.0, 2.0, 4.0, 3.0])),
    )
    seed_style_gap = float(np.max(np.abs(res.direction - alt.direction)))
    ok = (
        worst < 1e-4
        and res.rate < 1.0
        and res.seed_gap <= 1e-10
        and seed_style_gap <= 1e-10
    )
    verdict(
        "08",
        ok,
        f"kernel rel gap {worst:.2e}; contraction rate {res.rate}; "
        f"seed gaps {res.seed_gap:.1e}/{seed_style_gap:.1e}",
    )
    assert worst < 1e-4
    assert res.rate < 1.0
    assert res.seed_gap <= 1e-10
    assert seed_style_gap <= 1e-10


def test_criterion_09_switching_product_asymptotics(t3xz):
    seq = product_return_sequence(t3xz, 6000)
    fit = fit_local_limit(seq, (2000, 6000))
    rho1 = 0.5 + math.sqrt(2.0) / 3.0
    combined = 0.5 * rho1 + 0.5
    gap_rho = abs(fit.rho - combined)
    gap_alpha = abs(fit.alpha - 2.0)

    left = word_twin(t3xz.left)
    e1, e2 = identity(left.group), identity(t3xz.right.group)
    z1 = t3xz.right.alphabet
    pairs = [
        (e1, e2),
        (word(T3, [1]), e2),
        (e1, word(z1, [1])),
        (word(T3, [1, 2]), word(z1, [-1, -1])),
        (word(T3, [3]), word(z1, [1, 1])),
    ]
    mix_exact = True
    dist = {(e1, e2): Fraction(1)}
    for n in range(1, 11):
        nxt = defaultdict(Fraction)
        for (w1, w2), p in dist.items():
            for g, wgt in left.mu_map.items():
                nxt[(w1 * g, w2)] += p * wgt / 2
            for g, wgt in t3xz.right.mu_map.items():
                nxt[(w1, w2 * g)] += p * wgt / 2
        dist = dict(nxt)
        mix_exact = mix_exact and all(
            product_nstep_pair(t3xz, n, y1, y2) == dist.get((y1, y2), 0)
            for y1, y2 in pairs
        )
    frozen = product_nstep_pair(t3xz, 4, e1, e2) == Fraction(8113, 55296)
    ok = gap_rho < 1e-3 and gap_alpha < 0.15 and mix_exact and frozen
    verdict(
        "09",
        ok,
        f"rho gap {gap_rho:.2e}; alpha_hat {fit.alpha:.4f}; "
        f"mixture exact for n <= 10: {mix_exact}",
    )
    assert gap_rho < 1e-3
    assert gap_alpha < 0.15
    assert mix_exact and frozen


def test_criterion_10_trivial_and_nontrivial_equivalence(f2_spec, t3xz):
    rep = detect_R_mu(f2_spec, candidate_radius=4, probe_radius=4, tol=1e-6)
    f2_trivial = rep.members() == ["e"]
    margin = min(d for d in rep.deviations if d > 0.0)
    rep2 = detect_R_mu(t3xz, candidate_radius=4, probe_radius=3, tol=1e-6)
    expect = {"e|e"}
    for m in range(1, 5):
        expect.add("e|" + ",".join(["1"] * m))
        expect.add("e|" + ",".join(["-1"] * m))
    fibre = set(rep2.members()) == expect
    ok = f2_trivial and margin > 0.5 and fibre and rep2.inverse_closed
    verdict(
        "10",
        ok,
        f"free-group members {rep.members()} (margin {margin:.2f}); "
        f"line-fibre members found: {fibre}",
    )
    assert f2_trivial
    assert margin > 0.5
    assert fibre
    assert rep2.inverse_closed
    assert rep.certificate == "no non-identity member in ball 4 at tolerance 1e-06"


def test_criterion_11_kernels_are_eigenfunctions(t3_spec, f2_spec):
    xi_t = EndPrefix.from_pattern(T3, [1, 2], 40)
    rho_t = 0.5 + math.sqrt(2.0) / 3.0
    res_tree = verify_t_harmonic(
        t3_spec, lambda v: 2.0 ** (-horocycle(v, xi_t) / 2.0), rho_t, radius=3
    )
    F2 = f2_spec.alphabet
    xi_f = EndPrefix.from_pattern(F2, [2, -1], 40)
    r = float(shared_system(f2_spec).radius().r)
    res_free = verify_t_harmonic(
        f2_spec, lambda v: ALPHA ** horocycle(v, xi_f), 1.0 / r, radius=3
    )
    xi_m = EndPrefix.from_pattern(F2, [2, -1], 12)
    cache = {}

    def kernel_from_matrices(v):
        if v not in cache:
            cache[v] = martin_kernel_matrix(f2_spec, v, xi_m).value
        return cache[v]

    res_mat = verify_t_harmonic(f2_spec, kernel_from_matrices, 1.0 / r, radius=2)
    worst = max(res_tree, res_free, res_mat)
    ok = worst < 1e-8
    verdict(
        "11",
        ok,
        f"harmonicity residuals tree {res_tree:.1e}, free {res_free:.1e}, "
        f"matrix {res_mat:.1e}",
    )
    assert worst < 1e-8


def test_criterion_12_boundary_geometry_and_green_comparisons(f2_spec):
    # strong triangle inequality, exhaustively over the radius-4 ball
    vertices = list(ball(T3, 4))
    violations = 0
    for a in vertices:
        for b in vertices:
            dab = ultrametric(a, b)
            for c in vertices:
                if ultrametric(a, c) > max(dab, ultrametric(b, c)):
                    violations += 1

    # exact Chapman-Kolmogorov by independent dictionary convolution
    ck = True
    for n in range(1, 8):
        for m in range(1, 8 - n + 1):
            tn = nstep(f2_spec, n, exact=True).table
            tm = nstep(f2_spec, m, exact=True).table
            conv = defaultdict(Fraction)
            for w, pw in tn.items():
                for u, pu in tm.items():
                    conv[w * u] += pw * pu
            ck = ck and dict(conv) == dict(nstep(f2_spec, n + m, exact=True).table)

    # Green comparison constants stable across samples at each distance
    report = ancona_harnack_check(shared_system(f2_spec), n_pairs=12, seed=1)
    assert report.distances == (4, 6, 8, 10)
    spread = max(s for _, s in report.per_distance_spread)
    ok = violations == 0 and ck and spread <= 0.1
    verdict(
        "12",
        ok,
        f"ultrametric violations {violations}; exact splitting {ck}; "
        f"comparison spread {spread:.1e} (allowed 0.1)",
    )
    assert violations == 0
    assert ck
    assert spread <= 0.1


@pytest.mark.xfail(
    strict=True,
    reason="the second-order ratio converges to 1 slowly, like 1/d, with "
    "no plateau: it sits ~1.67/d (~17%) above 1 at depth 10 and z-offset "
    "1e-4, and 5% is first reached near depth 40",
)
def test_criterion_12_second_order_ratio_near_one(f2_spec):
    system = shared_system(f2_spec)
    r = float(system.radius().r)
    z = r * (1.0 - 1e-4)
    F2 = f2_spec.alphabet
    x = word(F2, [1, 1])
    y = EndPrefix.from_pattern(F2, [2, -1], 10).word
    top = green_second_order(system, x, y, z, tol=1e-10)
    bot = green_second_order(system, identity(F2), y, z, tol=1e-10)
    ratio = top.phi / bot.phi
    verdict("12-ratio", abs(ratio - 1.0) < 0.05, f"ratio at depth 10 = {ratio:.4f}")
    assert abs(ratio - 1.0) < 0.05


def test_criterion_12_ratio_tends_to_one_plus_two_over_depth(f2_spec):
    # the ratio of the xfail above, on to depth 640: d (ratio - 1) climbs
    # 1.673, 1.822, 1.907, 1.952, 1.976, 1.988, 1.994 towards |x| = 2, and
    # (2 - d (ratio - 1)) d rises from 3.27 to 3.89, so the gap stays < 4/d
    system = shared_system(f2_spec)
    r = float(system.radius().r)
    z = r * (1.0 - 1e-4)
    F2 = f2_spec.alphabet
    x = word(F2, [1, 1])
    depths = (10, 20, 40, 80, 160, 320, 640)
    rates = []
    for d in depths:
        y = EndPrefix.from_pattern(F2, [2, -1], d).word
        top = green_second_order(system, x, y, z, tol=1e-10)
        bot = green_second_order(system, identity(F2), y, z, tol=1e-10)
        assert top.stabilized and bot.stabilized
        rates.append(d * (top.phi / bot.phi - 1.0))
    rising = all(a < b for a, b in zip(rates, rates[1:]))
    inside = all(0 < 2.0 - rate <= 4.0 / d for rate, d in zip(rates, depths))
    verdict(
        "12-rate",
        rising and inside,
        f"d (ratio - 1) = {rates[0]:.4f} at d = 10, {rates[-1]:.4f} at d = 640",
    )
    assert rising
    assert inside
