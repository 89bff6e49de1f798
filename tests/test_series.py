"""First-passage generating functions: solves, singularity, expansions."""

import hashlib
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from treewalks import (
    Alphabet,
    ConvergenceError,
    FirstPassageSystem,
    ValidationError,
    ball,
    derivative_identity,
    finite_walk,
    free_group,
    green_second_order,
    identity,
    nstep,
    series_coefficients,
    tree_alphabet,
    word,
)
from treewalks import series

F2 = free_group(2)
F3 = free_group(3)


def uniform_quadratic_root(z: float) -> float:
    # one-letter passage of the lazy uniform walk solves
    # (3/5) z f^2 - (1 - z/5) f + z/5 = 0; minimal root
    a = 0.6 * z
    b = 1.0 - 0.2 * z
    c = 0.2 * z
    return (b - math.sqrt(b * b - 4 * a * c)) / (2 * a)


def asymmetric_walk():
    e = identity(F2)
    t = Fraction(1, 10)
    return finite_walk(
        F2,
        {
            e: 2 * t,
            word(F2, [1]): 3 * t,
            word(F2, [-1]): t,
            word(F2, [2]): 2 * t,
            word(F2, [-2]): 2 * t,
        },
    )


# -- pointwise solves --------------------------------------------------------


@pytest.mark.parametrize("z", [0.3, 0.7, 1.0])
def test_solve_matches_scalar_quadratic(f2_system, z):
    sol = f2_system.solve(z)
    expect = uniform_quadratic_root(z)
    for c in f2_system.letters:
        assert abs(float(sol.values[c]) - expect) < 1e-15


def test_solve_picks_minimal_root(f2_system):
    # at z = 1 the scalar quadratic has roots 1/3 and 1
    sol = f2_system.solve(1.0)
    assert abs(float(sol.values[1]) - 1.0 / 3.0) < 1e-15


def test_kleene_converges_from_both_sides(f2_system):
    # iterates of phi below the fixed point rise to it, iterates started
    # between the two roots fall back down: minimality, observed directly
    with mp.workprec(f2_system.prec):
        mu, mu0 = f2_system._weights()
        for start in ("0", "0.9"):
            f = [mp.mpf(start)._mpf_] * len(f2_system.letters)
            for _ in range(400):
                f = f2_system._phi(f, mp.mpf(1)._mpf_, mu, mu0)
            for x in f:
                assert abs(mp.make_mpf(x) - mp.mpf(1) / 3) < 1e-8


def test_solve_cache_keys_on_every_bit_of_z(f2_spec):
    # the two points agree to 20 decimal digits, so their 15-digit str does
    # too; each must still get its own solve
    system = FirstPassageSystem(f2_spec)
    with mp.workprec(system.prec):
        above, below = 1 + mp.ldexp(1, -70), 1 - mp.ldexp(1, -70)
    high, low = system.solve(above), system.solve(below)
    assert high is not low
    assert (high.z, low.z) == (above, below)
    assert high.values != low.values
    # one point spelled three ways is one solve
    assert system.solve(1) is system.solve(1.0) is system.solve(mp.mpf(1))


def test_solve_cache_drops_the_least_recently_read_point(f2_spec, monkeypatch):
    # solve() starts from zero, so an evicted point solves to the same bits
    monkeypatch.setattr(series, "SOLVE_CACHE", 2)
    system = FirstPassageSystem(f2_spec)
    first, second = system.solve(0.5), system.solve(0.7)
    assert system.solve(0.5) is first  # a hit: 0.7 is now the oldest
    system.solve(0.9)
    assert system.solve(0.5) is first
    again = system.solve(0.7)
    assert again is not second
    assert list(system._solve_cache) == [0.5, 0.7]

    def bits(sol):
        values = [v._mpf_ for v in sol.values.values()]
        return values, sol.green._mpf_, sol.residual._mpf_

    assert bits(again) == bits(second)


def test_solve_rejects_nonpositive_point(f2_system):
    with pytest.raises(ValidationError):
        f2_system.solve(0.0)


def test_solve_diverges_past_singularity(f2_system):
    with pytest.raises(ConvergenceError, match="Kleene iterates escaped VALUE_BOUND"):
        f2_system.solve(1.2)


def test_system_rejects_isotropic_and_long_range_input(t3_spec):
    with pytest.raises(ValidationError):
        FirstPassageSystem(t3_spec)
    e = identity(F2)
    t = Fraction(1, 10)
    longer = finite_walk(
        F2,
        {
            e: 2 * t,
            word(F2, [1]): 2 * t,
            word(F2, [-1]): 2 * t,
            word(F2, [2]): t,
            word(F2, [-2]): t,
            word(F2, [1, 2]): t,
            word(F2, [-2, -1]): t,
        },
    )
    with pytest.raises(ValidationError):
        FirstPassageSystem(longer)


# -- singularity certificate ---------------------------------------------------


def test_radius_matches_discriminant_root(f2_system):
    cert = f2_system.radius()
    expect = 5.0 / (1.0 + 2.0 * math.sqrt(3.0))
    assert abs(cert.r - expect) < 1e-10
    assert cert.lo <= expect <= cert.hi


def test_fold_refines_the_bracket(f2_system):
    fp = f2_system.fold()
    expect = 5.0 / (1.0 + 2.0 * math.sqrt(3.0))
    assert abs(float(fp.r) - expect) < 1e-15
    assert float(fp.residual) < 1e-25
    # at the fold every letter passage hits the square-root branch point
    for c in f2_system.letters:
        assert abs(float(fp.values[c]) - 1.0 / math.sqrt(3.0)) < 1e-14
    assert fp.green is not None and float(fp.green) > 1.0


def test_passage_finite_at_radius(f2_system):
    fp = f2_system.fold()
    for c in f2_system.letters:
        assert float(fp.values[c]) < 1.0


def f3_walk():
    mu = {identity(F3): Fraction(1, 4)}
    for c, k in {1: 3, -1: 1, 2: 2, -2: 2, 3: 1, -3: 3}.items():
        mu[word(F3, [c])] = Fraction(k, 16)
    return finite_walk(F3, mu)


# Certificates of the radius bisection, pinned bit for bit: a faster
# bisection must reach the same verdict at every midpoint.
RADIUS_PINS = {
    "f2-lazy-uniform": (1.1200461886989501, 1.120046188699007, 1.1200461886989785),
    "skewed-f2": (1.1808788188284325, 1.1808788188284893, 1.180878818828461),
    "f3": (1.3164519646855979, 1.3164519646856547, 1.3164519646856263),
}


@pytest.mark.parametrize("name", sorted(RADIUS_PINS))
def test_radius_certificate_is_pinned(f2_system, name):
    if name == "f2-lazy-uniform":
        cert = f2_system.radius()
    else:
        spec = asymmetric_walk() if name == "skewed-f2" else f3_walk()
        cert = FirstPassageSystem(spec).radius()
    assert (cert.lo, cert.hi, cert.r) == RADIUS_PINS[name]
    assert cert.evaluations == 46


def mpf_bits(x) -> str:
    """Canonical text of a result: every mpf as its _mpf_ tuple, bit for bit."""
    if isinstance(x, mp.mpf):
        return repr(tuple(int(part) for part in x._mpf_))
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(mpf_bits(item) for item in x) + "]"
    if isinstance(x, dict):
        items = sorted(x.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{k!r}:{mpf_bits(v)}" for k, v in items) + "}"
    return repr(x)


def system_digest(spec, prec: int) -> str:
    """sha256 over the radius certificate, two solves, the fold and the gammas."""
    system = FirstPassageSystem(spec, prec)
    cert = system.radius()
    parts = [mpf_bits(vars(cert))]
    for z in (1, cert.lo):
        sol = system.solve(z)
        parts.append(
            mpf_bits([sol.z, sol.values, sol.green, sol.iterations, sol.residual])
        )
    fp = system.fold()
    parts.append(mpf_bits(
        [fp.r, fp.values, fp.null_vector, fp.green, fp.residual, fp.iterations, fp.prec]
    ))
    parts.append(mpf_bits(system.gamma_table()))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# Full-precision digests: the float pins above cannot see a last-bit move in
# a 96-bit solve, fold point or null vector; these can.
DIGEST_PINS = {
    ("f2-lazy-uniform", 96): "635c97c710f804b5d06c22ecce6b35a82bc16e7a6c83850b86d06e484007697a",
    ("f2-lazy-uniform", 160): "4039f9dc5342cd514a12892bbbeb93aa7ac52da0611de7f92360305e1ea7441f",
    ("skewed-f2", 96): "0718a5c1e5e0d80858ccaa41d903768fadbbfe955655a00d3d4db072d6dccb21",
    ("skewed-f2", 160): "3612ab86f2af7a325a7f09d04775469544e85e8d80209136e4de3b8568e2fd6c",
    ("f3", 96): "2e99a06c2d38a5e4a38ce19872912f0a006813aa69adfdb7f562d95c69dceb23",
    ("f3", 160): "203393226c68d7f5562b1a1d68849d6f54434a61462b25ecf74893564823b772",
    ("f3", 80): "56fc127bdb58e45a8968ee19835e8c78680972aad47d7db3ca19e577aa69406b",
    ("uniform-f3", 96): "18913caa748e120107ee84a2ff4c7d9c31e95e314726158e76c35001fd69891d",
}


@pytest.mark.parametrize("name, prec", sorted(DIGEST_PINS))
def test_full_precision_digest_is_pinned(f2_spec, name, prec):
    assert system_digest(pinned_walk(name, f2_spec), prec) == DIGEST_PINS[name, prec]


CERTIFIED = re.compile(
    r"certified by a negative (?:residual phi\(f\) - f|Newton correction) "
    r"at Newton step (\d+)"
)


@pytest.mark.parametrize("where", ["1.001 r", "cert.hi"])
def test_divergence_is_certified_early(f2_system, where):
    cert = f2_system.radius()
    z = 1.001 * cert.r if where == "1.001 r" else cert.hi
    with pytest.raises(ConvergenceError) as info:
        f2_system.solve(z)
    found = CERTIFIED.search(str(info.value))
    assert found is not None, str(info.value)
    assert int(found.group(1)) < series.NEWTON_CAP // 4


def test_newton_budget_names_its_cap(f2_spec, monkeypatch):
    monkeypatch.setattr(series, "NEWTON_CAP", 1)
    with pytest.raises(ConvergenceError, match="NEWTON_CAP = 1 steps exhausted"):
        FirstPassageSystem(f2_spec).solve(1.1)


def test_singular_newton_matrix_is_named(f2_spec, monkeypatch):
    system = FirstPassageSystem(f2_spec)
    L = len(system.letters)
    # I - J = 0: the Newton correction has no solution (raw mpfs, as
    # _jacobian returns them)
    eye = [[mp.mpf(i == k)._mpf_ for k in range(L)] for i in range(L)]
    monkeypatch.setattr(system, "_jacobian", lambda *args: eye)
    with pytest.raises(ConvergenceError, match="singular Newton matrix at Newton step 0"):
        system.solve(1.0)


def test_zero_column_newton_matrix_is_named(f2_spec, monkeypatch):
    system = FirstPassageSystem(f2_spec)
    L = len(system.letters)
    # I - J has no zero row, but its first column is zero: no pivot exists
    J = [[mp.mpf(0)._mpf_] * L for _ in range(L)]
    J[0][0], J[0][1] = mp.mpf(1)._mpf_, mp.mpf(-1)._mpf_
    monkeypatch.setattr(system, "_jacobian", lambda *args: J)
    with pytest.raises(ConvergenceError, match="singular Newton matrix at Newton step 0"):
        system.solve(1.0)


def test_negative_residual_is_certified_at_the_first_step(f2_spec):
    # at z = 1 the letter equation of f2-lazy-uniform has the roots 1/3
    # and 1; from 0.9, between them, phi(f) - f is negative in every letter
    system = FirstPassageSystem(f2_spec)
    with mp.workprec(system.prec):
        mu, mu0 = system._weights()
        start = [mp.mpf("0.9")._mpf_] * len(system.letters)
        with pytest.raises(ConvergenceError) as info:
            system._newton(mp.mpf(1), start, mu, mu0)
    assert "certified by a negative residual phi(f) - f at Newton step 0" in str(
        info.value
    )


def test_fold_budget_names_its_cap(f2_spec, monkeypatch):
    system = FirstPassageSystem(f2_spec)
    system.radius()
    monkeypatch.setattr(series, "FOLD_CAP", 1)
    with pytest.raises(ConvergenceError, match="FOLD_CAP = 1 steps exhausted"):
        system.fold()


def test_singular_fold_correction_is_named(f2_spec, monkeypatch):
    system = FirstPassageSystem(f2_spec)
    system.solve(system.radius().lo)
    L = len(system.letters)
    # J = 0 makes H and J v zero too, and v[0] = 1 is fixed, so the row of
    # the equation (J v - v)[0] = 0 in the bordered Jacobian is zero
    zeros = [[mp.mpf(0)._mpf_] * L for _ in range(L)]
    monkeypatch.setattr(system, "_jacobian", lambda *args: zeros)
    with pytest.raises(ConvergenceError, match="singular correction step at step 0"):
        system.fold()


def test_fold_outside_the_bracket_is_named(f2_spec, monkeypatch):
    system = FirstPassageSystem(f2_spec)
    # a bracket below the true singularity (about 1.12): the refinement
    # converges to the fold all the same and lands outside it
    wrong = series.RadiusCertificate(
        r=1.05, lo=1.05, hi=1.05 + 1e-13, evaluations=46, prec=system.prec
    )
    monkeypatch.setattr(system, "_radius_cert", wrong)
    with pytest.raises(ConvergenceError, match="left the singularity bracket"):
        system.fold()


def pinned_walk(name, f2_spec):
    if name == "f2-lazy-uniform":
        return f2_spec
    if name == "uniform-f3":
        return lazy_uniform_f3_walk()
    return asymmetric_walk() if name == "skewed-f2" else f3_walk()


@pytest.mark.parametrize("estimate", [1 + 1e-6, 1 - 1e-6])
@pytest.mark.parametrize("name", sorted(RADIUS_PINS))
def test_radius_survives_a_missing_or_wrong_estimate(
    f2_spec, monkeypatch, name, estimate
):
    # no wrong bracket is returned: an estimate above r leaves cert.lo past
    # the fold, one below r leaves cert.hi short of it, and the end check
    # that fails is named
    r = RADIUS_PINS[name][2]
    monkeypatch.setattr(FirstPassageSystem, "_fold_estimate", lambda *args: r * estimate)
    end = "cert.lo" if estimate > 1 else "cert.hi"
    with pytest.raises(ConvergenceError, match=f"radius bracket failed its {end} check"):
        FirstPassageSystem(pinned_walk(name, f2_spec)).radius()


def newton_points(monkeypatch) -> list:
    """The points z of every later FirstPassageSystem._newton call, in order."""
    calls = []
    newton = FirstPassageSystem._newton

    def counted(self, *args):
        calls.append(args[0])
        return newton(self, *args)

    monkeypatch.setattr(FirstPassageSystem, "_newton", counted)
    return calls


def test_radius_solves_only_near_the_estimate(f2_spec, monkeypatch):
    calls = newton_points(monkeypatch)
    for spec in (f2_spec, f3_walk()):
        calls.clear()
        cert = FirstPassageSystem(spec).radius()
        assert cert.evaluations == 46
        # z = 1, lo from zero and hi from lo; every midpoint takes its side
        # from the estimate
        assert calls == [1, cert.lo, cert.hi]


# free groups and their involutive twins, the free products of order-two
# generators that carry the regular trees T3 and T4
RADIUS_ALPHABETS = [free_group(2), free_group(3), tree_alphabet(2), tree_alphabet(3)]
RADIUS_HOLDS = [Fraction(1, 10), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)]


@st.composite
def radius_walks(draw, alphabets=RADIUS_ALPHABETS, holds=RADIUS_HOLDS):
    ab = draw(st.sampled_from(alphabets))
    size = len(ab.letters)
    weights = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    hold = draw(st.sampled_from(holds))
    return weighted_walk(ab, weights, hold)


def closed_form_radius(spec):
    """1 / (mu0 + 2 sqrt(mu_1 mu_-1)) of a one-generator walk, at 256 bits."""
    ab = spec.alphabet
    with mp.workprec(256):
        hold, up, down = (
            mp.mpf(p.numerator) / p.denominator
            for p in (spec.mu_map.get(w, Fraction(0))
                      for w in (identity(ab), word(ab, [1]), word(ab, [-1])))
        )
        return 1 / (hold + 2 * mp.sqrt(up * down))


@settings(max_examples=8, deadline=None)
@given(
    spec=radius_walks(
        [free_group(1), *RADIUS_ALPHABETS, Alphabet("involutive", 6)],
        [Fraction(1, 1000), Fraction(1, 100), *RADIUS_HOLDS],
    ),
    prec=st.integers(series.MIN_PREC, 256),
)
def test_radius_certificate_against_cold_solves(spec, prec):
    system = FirstPassageSystem(spec, prec)
    cert = system.radius()
    cold = FirstPassageSystem(spec, prec)  # fresh cache: solves start from zero
    cold.solve(cert.lo)
    with pytest.raises(ConvergenceError):
        cold.solve(cert.hi)
    assert cert.hi - cert.lo <= 1e-12
    # the fold is an independent Newton iteration on the bordered system;
    # a one-generator walk has no fold() but a closed form
    if spec.alphabet.size == 1:
        assert cert.lo <= closed_form_radius(spec) <= cert.hi
    else:
        r = float(system.fold().r)
        assert cert.lo * (1 - 1e-15) <= r <= cert.hi * (1 + 1e-15)


@pytest.mark.parametrize("prec", [80, 96, 160, 256])
@pytest.mark.parametrize("name", ["z-lazy", "drifted", "skewed"])
def test_one_generator_radius_brackets_the_closed_form(z_spec, name, prec):
    if name == "skewed":
        spec = weighted_walk(free_group(1), [1, 5], Fraction(1, 1000))
    else:
        spec = z_spec if name == "z-lazy" else DRIFTED_LINE
    cert = FirstPassageSystem(spec, prec).radius()
    assert cert.lo <= closed_form_radius(spec) <= cert.hi
    assert cert.hi - cert.lo <= 1e-12


# Walks that need ESTIMATE_PREC or the one-generator closed form: an
# estimate at 80 bits sits 2-6e-13 off, and the bordered Newton of a
# one-generator walk goes singular.  Their certificates were recorded by a
# bisection that solved every midpoint: (alphabet, weights, hold, prec,
# (lo, hi, r), evaluations).
FORMER_FALLBACK_PINS = {
    "involutive-6": (
        ("involutive", 6), [44, 31, 26, 44, 31, 23], Fraction(1, 4), 80,
        (1.2250500122201515, 1.2250500122202084, 1.22505001222018), 46,
    ),
    "involutive-4": (
        ("involutive", 4), [1, 4, 4, 3], Fraction(3, 4), 80,
        (1.0278224694823166, 1.0278224694823923, 1.0278224694823543), 44,
    ),
    "f1": (
        ("free", 1), [852, 868], Fraction(99, 100), 256,
        (1.0000004326758438, 1.0000004326759173, 1.0000004326758805), 39,
    ),
}


@pytest.mark.parametrize("name", sorted(FORMER_FALLBACK_PINS))
def test_former_fallback_walks_keep_their_certificates(monkeypatch, name):
    kind, weights, hold, prec, pin, evaluations = FORMER_FALLBACK_PINS[name]
    calls = newton_points(monkeypatch)
    spec = weighted_walk(Alphabet(*kind), weights, hold)
    cert = FirstPassageSystem(spec, prec).radius()
    assert (cert.lo, cert.hi, cert.r) == pin
    assert cert.evaluations == evaluations
    # Newton at z = 1, at hi0 = min(2, 1/mu0) unless the Kleene steps
    # escape there first, and at the two ends; at no midpoint
    hi0 = min(2.0, float(1 / hold))
    assert calls in ([1, cert.lo, cert.hi], [1, hi0, cert.lo, cert.hi])


@settings(max_examples=8, deadline=None)
@given(spec=radius_walks())
def test_fold_null_vector_is_the_minor_solve(spec):
    system = FirstPassageSystem(spec)
    fp = system.fold()
    v = fp.null_vector
    L = len(system.letters)
    assert v[0] == 1 and min(v) > 0
    with mp.workprec(fp.prec):
        mu, mu0 = system._weights()
        f = [fp.values[c]._mpf_ for c in system.letters]
        J = system._jacobian(f, fp.r._mpf_, mu, mu0)
        A = mp.eye(L) - mp.matrix([[mp.make_mpf(x) for x in row] for row in J])
        residual = max(abs(x) for x in A * mp.matrix(v))
        assert residual <= mp.mpf(2) ** (48 - fp.prec)
        # the right null vector from the minor A[1:, 1:] with v[0] = 1
        minor = [1, *mp.lu_solve(A[1:, 1:], -A[1:, 0])]
        assert max(abs(a - b) for a, b in zip(v, minor)) <= 1e-40


# -- the precision floor -------------------------------------------------------


def lazy_uniform_f3_walk():
    # every letter 5/48, holding 3/8: at 64 bits Newton's acceptance
    # tolerance 2^-48 took z about 1e-14 past the fold for solvable, and
    # the radius bracket lay above the fold
    mu = {identity(F3): Fraction(3, 8)}
    for c in F3.letters:
        mu[word(F3, [c])] = Fraction(5, 48)
    return finite_walk(F3, mu)


@pytest.mark.parametrize("prec", [64, 79])
def test_precision_below_the_floor_is_refused(prec):
    assert series.MIN_PREC == 80
    with pytest.raises(ValidationError, match="at least 80 bits"):
        FirstPassageSystem(lazy_uniform_f3_walk(), prec)


@settings(max_examples=16, deadline=None)
@given(spec=radius_walks())
@example(spec=lazy_uniform_f3_walk())
def test_radius_brackets_the_fold_at_the_floor(spec):
    system = FirstPassageSystem(spec, series.MIN_PREC)
    cert = system.radius()
    r = float(system.fold().r)
    assert cert.lo * (1 - 1e-15) <= r <= cert.hi * (1 + 1e-15)


# -- the Newton algebra on raw mpfs -------------------------------------------


def phi_by_operators(system, f, z, mu, mu0):
    """The fixed-point map in mpf operator arithmetic, the reference."""
    inv = system.inv_index
    s = mp.mpf(0)
    for k in range(len(f)):
        s += mu[k] * f[inv[k]]
    return [z * (mu[k] + mu0 * f[k] + f[k] * (s - mu[k] * f[inv[k]]))
            for k in range(len(f))]


def jacobian_by_operators(system, f, z, mu, mu0):
    """Its Jacobian in mpf operator arithmetic, the reference."""
    inv = system.inv_index
    s = mp.mpf(0)
    for k in range(len(f)):
        s += mu[k] * f[inv[k]]
    J = []
    for i in range(len(f)):
        row = []
        for k in range(len(f)):
            v = f[i] * mu[inv[k]]
            if k == i:
                v += mu0 + s - mu[i] * f[inv[i]]
            if k == inv[i]:
                v -= mu[i] * f[i]
            row.append(z * v)
        J.append(row)
    return J


@pytest.mark.parametrize("prec", [80, 96, 192])
def test_phi_and_jacobian_are_the_operator_formulas_bit_for_bit(prec):
    rng = random.Random(prec)
    alphabets = [free_group(2), free_group(3), free_group(4), tree_alphabet(3)]
    for ab in alphabets:
        size = len(ab.letters)
        for weights in ([1] * size, [rng.randint(1, 9) for _ in range(size)]):
            system = FirstPassageSystem(weighted_walk(ab, weights, Fraction(1, 4)))
            with mp.workprec(prec):
                mu0, *mu = [mp.mpf(p.numerator) / p.denominator
                            for p in (system.mu0_fraction, *system.mu_fractions)]
                raw_mu, raw_mu0 = system._weights()
                assert [x._mpf_ for x in (*mu, mu0)] == [*raw_mu, raw_mu0]
                for _ in range(3):
                    f = [mp.ldexp(rng.randrange(2**prec), -prec) for _ in range(size)]
                    z = mp.mpf(rng.uniform(0.5, 1.5))
                    raw_f, raw_z = [x._mpf_ for x in f], z._mpf_
                    phi = phi_by_operators(system, f, z, mu, mu0)
                    assert [x._mpf_ for x in phi] == system._phi(raw_f, raw_z, raw_mu, raw_mu0)
                    # the fold refinement also takes the Jacobian at its null
                    # vector with mu0 = 0, which the operator code spelled int 0
                    for m0, raw_m0 in ((mu0, raw_mu0), (0, mp.mpf(0)._mpf_)):
                        J = jacobian_by_operators(system, f, z, mu, m0)
                        got = system._jacobian(raw_f, raw_z, raw_mu, raw_m0)
                        assert [[x._mpf_ for x in row] for row in J] == got


def test_radius_and_fold_make_no_mpf_operator_calls(f2_spec, count_mpf_operators):
    system = FirstPassageSystem(f2_spec)
    calls = count_mpf_operators(lambda: (system.radius(), system.fold()))
    # in operator arithmetic this took about 16,900 calls; what is left is
    # bookkeeping, a z <= 0 test per solve and an estimate test per midpoint
    assert calls <= 100


# -- the LU solve on lists -----------------------------------------------------


def random_system(rng, n, prec, extra=16):
    """Entries in [-1, 1) with prec + extra bits, which the prec + 10
    arithmetic rounds, each row scaled by 2^-12 .. 2^12, so that the
    scaled pivoting has choices to make."""
    bits = prec + extra

    def entry(scale=0):
        return mp.ldexp(rng.randrange(-(2**bits), 2**bits), scale - bits)

    A = []
    for _ in range(n):
        scale = rng.randint(-12, 12)
        A.append([entry(scale) for _ in range(n)])
    return A, [entry() for _ in range(n)]


def hadamard(n):
    """Sylvester's +-1 matrix: every pivot search is a tie."""
    H = [[mp.mpf(1)]]
    while len(H) < n:
        H = [row + row for row in H] + [row + [-x for x in row] for row in H]
    return H


def raw(xs) -> list:
    """Raw mpf tuples of numbers, as mp.matrix converts its entries."""
    return [mp.convert(x)._mpf_ for x in xs]


def lu_solves_alike(A, b) -> bool:
    """_mpf_lu_solve at mp.prec + 10 gives mp.lu_solve's answer bit for bit,
    or both raise ZeroDivisionError; True when there was a solution to
    compare."""
    args = [raw(row) for row in A], raw(b), mp.prec + 10
    try:
        expect = mp.lu_solve(mp.matrix(A), mp.matrix(b))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="numerically singular"):
            series._mpf_lu_solve(*args)
        return False
    got = series._mpf_lu_solve(*args)
    assert got == [expect[i]._mpf_ for i in range(len(b))]
    return True


@pytest.mark.parametrize("prec", [64, 96, 202])
def test_lu_solve_is_mpmath_bit_for_bit(prec):
    rng = random.Random(prec)
    with mp.workprec(prec):
        for n in range(1, 13):
            for _ in range(3):
                assert lu_solves_alike(*random_system(rng, n, prec))
            if n > 1:  # a zero first pivot forces a row swap at the first column
                A, b = random_system(rng, n, prec)
                A[0][0] = mp.mpf(0)
                assert lu_solves_alike(A, b)
            # rows 0 and 1 tie for the first pivot, and the strict > keeps row 0
            if n >= 3:
                A, b = random_system(rng, n, prec)
                A[0][0] = 16 * mp.fsum(A[0][1:], absolute=True)
                A[1] = [A[0][0], *reversed(A[0][1:])]
                assert lu_solves_alike(A, b)
            # Python-int zeros, as in the bordered fold matrix, and an int b
            A, _ = random_system(rng, n, prec)
            for row in A[: n // 2]:
                row[n // 2 :] = [0] * (n - n // 2)
            assert lu_solves_alike(A, [1] * n)
        for n in (1, 2, 4, 8):
            assert lu_solves_alike(hadamard(n), [mp.mpf(k + 1) for k in range(n)])


@pytest.mark.parametrize("prec", [64, 96, 202])
def test_lu_solve_refuses_singular_matrices_as_mpmath_does(prec):
    rng = random.Random(-prec)
    with mp.workprec(prec):
        for n in range(1, 13):
            A, b = random_system(rng, n, prec, extra=0)  # so 2 A[0] is exact
            zero_row = [row[:] for row in A]
            zero_row[n // 2] = [mp.mpf(0)] * n
            doubled = [row[:] for row in A]
            doubled[-1] = [2 * x for x in A[0]]
            zero = [[mp.mpf(0)] * n for _ in range(n)]
            for singular in (zero_row, zero) + ((doubled,) if n > 1 else ()):
                assert not lu_solves_alike(singular, b)
    # a last pivot of 2^-(prec + 9) is within the tolerance 2^-(prec + 8),
    # one of 2^-(prec + 7) is not; the entries carry more bits than prec
    with mp.workprec(prec + 20):
        near = [[[1, 1], [1, 1 + mp.ldexp(1, -prec - k)]] for k in (9, 7)]
    with mp.workprec(prec):
        assert not lu_solves_alike(near[0], [1, 2])
        assert lu_solves_alike(near[1], [1, 2])


def test_lu_solve_refuses_a_zero_column_below_the_diagonal():
    # no row offers a pivot for the first column; mpmath's own LU then
    # swaps with a missing row index and raises TypeError
    with pytest.raises(ZeroDivisionError, match="numerically singular"):
        series._mpf_lu_solve([raw([0, 1]), raw([0, 2])], raw([1, 1]), 63)


def test_shared_system_is_one_per_walk_and_precision(f2_spec):
    system = series.shared_system(f2_spec)
    assert system is series.shared_system(f2_spec, 96)
    assert system is series.shared_system(f2_spec, prec=96)
    assert series.shared_system(f2_spec, 160) is not system
    series.shared_system.cache_clear()
    assert series.shared_system(f2_spec) is not system


def test_shared_system_hits_for_an_equal_spec_with_cached_views(f2_spec):
    # range (read by validation) and is_uniform_nn are cached on the
    # instance; equality and the hash read the fields alone, so an equal
    # fresh spec finds the system
    system = series.shared_system(f2_spec)
    assert f2_spec.is_uniform_nn
    twin = finite_walk(f2_spec.group, dict(f2_spec.mu))
    assert vars(f2_spec)["range"] == vars(twin)["range"] == 1
    assert vars(f2_spec)["is_uniform_nn"] and "is_uniform_nn" not in vars(twin)
    assert twin == f2_spec and hash(twin) == hash(f2_spec)
    assert series.shared_system(twin) is system


def test_first_passage_system_builds_no_mpmath_matrix(f2_spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an mpmath matrix was built")

    monkeypatch.setattr(mp, "matrix", refuse)
    monkeypatch.setattr(mp, "lu_solve", refuse)
    system = FirstPassageSystem(f2_spec)
    system.radius()
    system.fold()
    assert set(system.gamma_table()) == {"green", *system.letters}


# one-generator walks: the lazy line walk and a drifted one
LINE = free_group(1)
DRIFTED_LINE = finite_walk(
    LINE,
    {
        identity(LINE): Fraction(1, 2),
        word(LINE, [1]): Fraction(3, 8),
        word(LINE, [-1]): Fraction(1, 8),
    },
)


@pytest.mark.parametrize("name", ["z-lazy", "drifted"])
def test_one_generator_fold_names_the_lattice_route(z_spec, monkeypatch, name):
    spec = z_spec if name == "z-lazy" else DRIFTED_LINE
    system = FirstPassageSystem(spec)
    # radius() and solve() still accept these walks
    cert = system.radius()
    system.solve(cert.lo)

    def no_newton(*args):
        raise AssertionError("fold() ran a Newton step")

    monkeypatch.setattr(system, "_fold_newton", no_newton)
    with pytest.raises(ValidationError, match=r"lattice route \(factor_kernel\)"):
        system.fold()


# -- coefficients --------------------------------------------------------------


def test_green_coefficients_are_return_probabilities(f2_system):
    coeffs = series_coefficients(f2_system, None, n_max=10, exact=True)
    spec = f2_system.spec
    e = identity(F2)
    for n in range(11):
        assert coeffs.coefficients[n] == nstep(spec, n, exact=True).probability(e)


def test_word_coefficients_match_convolution_asymmetric():
    spec = asymmetric_walk()
    system = FirstPassageSystem(spec)
    target = word(F2, [1, 2, -1])
    coeffs = series_coefficients(system, target, n_max=10, exact=True)
    for n in range(11):
        assert coeffs.coefficients[n] == nstep(spec, n, exact=True).probability(
            target
        )


def test_float_coefficients_track_exact(f2_system):
    exact = series_coefficients(f2_system, None, n_max=40, exact=True)
    rough = series_coefficients(f2_system, None, n_max=40, exact=False)
    for n in range(41):
        a = float(exact.coefficients[n])
        assert abs(rough.coefficients[n] - a) <= 1e-14 * max(a, 1e-30)


@pytest.mark.parametrize("target", [7, -3, "1", word(F3, [1]), identity(F3)])
def test_coefficients_reject_targets_outside_the_walk(f2_system, target):
    # an F3 word is no F2 vertex even where its letters read like one
    with pytest.raises(ValidationError, match="no letter or word of the walk"):
        series_coefficients(f2_system, target, n_max=4)
    with pytest.raises(ValidationError, match="no letter or word of the walk"):
        series._series_rows(f2_system, [None, target], 4, False)


def test_coefficients_reject_negative_order(f2_system):
    with pytest.raises(ValidationError):
        series_coefficients(f2_system, None, n_max=-1)


# -- square-root expansion -------------------------------------------------------


def target_value(point, target):
    """Value of the target's generating function at a solve or fold point."""
    if target is None:
        return point.green
    if isinstance(target, int):
        return point.values[target]
    out = point.green
    for c in target.letters:
        out *= point.values[c]
    return out


def sqrt_fit(system, target):
    """beta in value(z) = value(r) - beta sqrt(r - z) + O(r - z), from solves.

    (value(r) - value(r - eps)) / sqrt(eps) is a power series in sqrt(eps),
    so a cubic in sqrt(eps) through eps = 1e-8 .. 1e-11 leaves O(eps^2).
    Reads only fold values and solve(), never the gamma table.
    """
    fp = system.fold()
    with mp.workprec(fp.prec):
        alpha = target_value(fp, target)
        s, b = [], []
        for k in (8, 9, 10, 11):
            sol = system.solve(fp.r - mp.mpf(10) ** -k)
            s.append(mp.sqrt(fp.r - sol.z))  # sol.z as rounded by solve()
            b.append((alpha - target_value(sol, target)) / s[-1])
        vandermonde = mp.matrix([[si**j for j in range(4)] for si in s])
        return mp.lu_solve(vandermonde, mp.matrix(b))[0]


def assert_matches_fit(system, target, tol=1e-12):
    got = system.expansion(target).sqrt_coefficient
    ref = sqrt_fit(system, target)
    assert abs(got - ref) <= tol * abs(ref), (target, got, ref)


def test_green_singularity_exponent_is_half(f2_system):
    # the closed form rests on a square-root fold; measure the exponent
    # of G(r) - G(r - eps) from two solves
    fp = f2_system.fold()
    with mp.workprec(fp.prec):
        gaps = [
            fp.green - f2_system.solve(fp.r - mp.mpf(eps)).green
            for eps in ("1e-6", "1e-8")
        ]
        exponent = mp.log(gaps[0] / gaps[1]) / mp.log(100)
    assert abs(exponent - 0.5) < 0.05


@pytest.mark.parametrize(
    "letters", [[1], [1, 2], [1, 2, -1], [1, 2, -1, 2]]
)
def test_word_expansion_matches_sqrt_fit(f2_system, letters):
    assert_matches_fit(f2_system, word(F2, letters))


def weighted_walk(ab, weights, hold):
    mu = {identity(ab): hold}
    total = sum(weights)
    for c, w in zip(ab.letters, weights):
        mu[word(ab, [c])] = (1 - hold) * Fraction(w, total)
    return finite_walk(ab, mu)


@st.composite
def skewed_walks(draw):
    ab = free_group(draw(st.sampled_from([2, 3])))
    size = len(ab.letters)
    weights = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    hold = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]))
    return weighted_walk(ab, weights, hold)


INVOLUTIVE_WALK = weighted_walk(tree_alphabet(2), [1, 2, 3], Fraction(1, 4))


@settings(max_examples=10, deadline=None)
@given(spec=skewed_walks(), data=st.data())
@example(spec=INVOLUTIVE_WALK, data=None)
def test_expansion_matches_sqrt_fit_on_skewed_walks(spec, data):
    # the closed-form gamma table against a fit that only solves below r
    system = FirstPassageSystem(spec)
    ab = spec.alphabet
    if data is None:
        words = [w for w in ball(ab, 4) if len(w) >= 2]
    else:
        letters = st.lists(st.sampled_from(ab.letters), min_size=2, max_size=4)
        words = [word(ab, data.draw(letters)) for _ in range(4)]
    for target in [None, *ab.letters, *words]:
        assert_matches_fit(system, target)


def test_gamma_table_makes_no_solve_once_folded(f2_spec, monkeypatch):
    system = FirstPassageSystem(f2_spec)
    system.fold()
    calls = []
    monkeypatch.setattr(system, "solve", lambda z: calls.append(z))
    table = system.gamma_table()
    system.expansion(word(F2, [1, 2]))
    assert calls == []
    assert set(table) == {"green", *system.letters}


@pytest.mark.parametrize(
    "change, condition",
    [
        # v is the fold's own; a perturbed value moves only the left solve
        (lambda fp: {"values": {**fp.values, 1: 5 * fp.values[1]}},
         "no positive left null vector"),
        (lambda fp: {"null_vector": [1, *[-x for x in fp.null_vector[1:]]]},
         "no positive right null vector"),
        (lambda fp: {"green": None}, "no finite Green value"),
    ],
    ids=["null-vector", "right-null-vector", "green"],
)
def test_gamma_table_guards_name_the_failed_condition(
    f2_spec, f2_system, monkeypatch, change, condition
):
    fp = f2_system.fold()
    system = FirstPassageSystem(f2_spec)
    monkeypatch.setattr(system, "fold", lambda: replace(fp, **change(fp)))
    with pytest.raises(ConvergenceError, match="not a square-root singularity") as exc:
        system.gamma_table()
    assert condition in str(exc.value)


def test_gamma_table_uniform_across_letters(f2_system):
    table = f2_system.gamma_table()
    gammas = [table[c] for c in f2_system.letters]
    assert max(gammas) - min(gammas) < 1e-12


# -- second-order sums -------------------------------------------------------


def banned_letters(ab, path):
    """Per geodesic vertex, the first letters that would step along it."""
    d = len(path)
    if d == 0:
        return [set()]
    inv = ab.inverse_letter
    middle = [{path[m], inv(path[m - 1])} for m in range(1, d)]
    return [{path[0]}, *middle, {inv(path[d - 1])}]


def shell_sum(system, x, y, z, tol=1e-15):
    """sum_v G(x,v|z) G(v,y|z) by shells around the x-to-y geodesic.

    The reference recursion: one row of T per geodesic vertex, one column
    per letter, T <- omega (rowsum(T) - T[:, inv]) per shell, stopped once
    three increments in a row are at most tol times the running total.
    """
    w = x.inverse() * y
    sol = system.solve(z)
    inv = np.array(system.inv_index)
    f = np.array([float(sol.values[c]) for c in system.letters])
    om = f * f[inv]
    T = np.array([
        [0.0 if c in banned else om[k] for k, c in enumerate(system.letters)]
        for banned in banned_letters(system.spec.alphabet, w.letters)
    ])
    total = float(len(w) + 1)
    small = 0
    for _ in range(100_000):
        inc = float(T.sum())
        total += inc
        small = small + 1 if inc <= tol * total else 0
        if small == 3:
            return float(sol.green) * float(sol.green_to(w)) * total
        T = om[None, :] * (T.sum(axis=1)[:, None] - T[:, inv])
    raise AssertionError("reference shell sum did not stop")


def closed_form_mp(system, x, y, z):
    """The closed form G(e,e) G(x,y) ((d + 1) + u^T s) in mpmath."""
    w = x.inverse() * y
    sol = system.solve(z)
    letters, inv, L = system.letters, system.inv_index, len(system.letters)
    bans = banned_letters(system.spec.alphabet, w.letters)
    with mp.workprec(system.prec):
        f = [sol.values[c] for c in letters]
        om = [f[k] * f[inv[k]] for k in range(L)]
        A = mp.matrix(L, L)  # I - M^T with M = diag(omega) (J - P)
        for i in range(L):
            for j in range(L):
                A[i, j] = int(i == j) - (om[j] if i != inv[j] else 0)
        u = mp.lu_solve(A, mp.matrix([1] * L))
        s = [om[k] * sum(c not in b for b in bans)
             for k, c in enumerate(letters)]
        total = len(w) + 1 + sum(u[k] * s[k] for k in range(L))
        return sol.green * sol.green_to(w) * total


T3 = tree_alphabet(2)
TREE_WALK = finite_walk(
    T3,
    {
        identity(T3): Fraction(1, 4),
        word(T3, [1]): Fraction(1, 2),
        word(T3, [2]): Fraction(1, 8),
        word(T3, [3]): Fraction(1, 8),
    },
)


@st.composite
def nn_walks(draw):
    ab = free_group(draw(st.sampled_from([2, 3])))
    hold = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(ab.letters),
                            max_size=len(ab.letters)))
    mu = {identity(ab): hold}
    for c, k in zip(ab.letters, weights):
        mu[word(ab, [c])] = (1 - hold) * Fraction(k, sum(weights))
    return finite_walk(ab, mu)


@settings(max_examples=12, deadline=None)
@given(
    spec=st.one_of(nn_walks(), st.just(TREE_WALK)),
    frac=st.floats(0.05, 0.9),
    data=st.data(),
)
def test_second_order_closed_form_against_shells_and_mpmath(spec, frac, data):
    system = series.shared_system(spec)
    z = frac * system.radius().r
    letters = st.lists(st.sampled_from(spec.alphabet.letters), max_size=4)
    x = word(spec.alphabet, data.draw(letters))
    y = word(spec.alphabet, data.draw(letters))
    g2 = green_second_order(system, x, y, z)
    assert g2.shells == 1 and g2.stabilized
    want = shell_sum(system, x, y, z)
    assert abs(g2.value - want) <= 1e-12 * want
    exact = closed_form_mp(system, x, y, z)
    assert abs(g2.value - exact) <= g2.error * g2.value


def test_second_order_diverges_past_the_radius(f2_system):
    # cert.hi is certified unsolvable, and the solve says so first
    e = identity(F2)
    with pytest.raises(ConvergenceError, match="no finite nonnegative fixed point"):
        green_second_order(f2_system, e, e, f2_system.radius().hi)


def test_second_order_is_finite_but_unstabilized_at_the_radius(f2_system):
    # cert.r lies below fold().r, so the sum is finite there; the Perron
    # root of M is within 1e-7 of 1, which leaves a residual near 1e-9
    e = identity(F2)
    cert = f2_system.radius()
    assert cert.r < f2_system.fold().r
    g2 = green_second_order(f2_system, e, e, cert.r, tol=1e-12)
    assert math.isfinite(g2.value) and g2.value > 1e8
    assert 1e-12 < g2.error < 1e-6
    assert not g2.stabilized


def test_second_order_names_the_positive_solution_guard(f2_system, monkeypatch):
    # letter values 0.7 make M = 0.49 (J - P), whose Perron root is
    # 3 * 0.49 = 1.47: no u > 0 solves (I - M^T) u = 1
    e = identity(F2)
    fake = series.SolveResult(
        z=mp.mpf("0.5"),
        letters=f2_system.letters,
        values={c: mp.mpf("0.7") for c in f2_system.letters},
        green=mp.mpf(2),
        iterations=0,
        residual=mp.mpf(0),
    )
    monkeypatch.setattr(f2_system, "solve", lambda z: fake)
    with pytest.raises(ConvergenceError, match="failed the u > 0 guard"):
        green_second_order(f2_system, e, word(F2, [1, 2]), 0.5)


def test_derivative_identity_shifted_form(f2_system):
    x = word(F2, [1, 2])
    out = derivative_identity(f2_system, x, 0.9)
    assert out["residual_shifted"] < 1e-15


@pytest.mark.xfail(
    strict=True,
    reason="the quotient with a squared argument is off by a first-order "
    "term; the shifted quotient above is the identity that holds",
)
def test_derivative_identity_plain_form(f2_system):
    x = word(F2, [1, 2])
    out = derivative_identity(f2_system, x, 0.9)
    assert out["residual_plain"] < 1e-8
