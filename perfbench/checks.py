"""Reference values and check helpers; all of it runs outside the timers.

References are closed forms from the literature on trees and free groups
or independent engines of the package itself (exact rational series
against exact convolution, direct square-root expansions against the
per-letter assembly, derivatives against shell sums).  Only properties
that hold at the commit this benchmark was written against are checked;
the two tolerances the test suite records as strict xfails (criteria 07
and 12) are not asserted here.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from mpmath import mp

import treewalks as tw


class CheckFailed(Exception):
    """An op's output disagreed with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(label: str, got: float, want: float, rel: float) -> None:
    if not abs(got - want) <= rel * abs(want):
        raise CheckFailed(f"{label}: got {got!r}, want {want!r} (rel tol {rel:g})")


# ---------------------------------------------------------------------------
# Closed forms


def uniform_rho(walk) -> float:
    """Decay rate mu0 + 2 p sqrt(2k - 1) of a uniform NN walk on F_k."""
    return float(walk.hold) + 2.0 * float(walk.per_letter) * math.sqrt(2 * walk.rank - 1)


def uniform_end_kernel(rank: int, h: int) -> float:
    """Martin kernel at the decay rate: (2k - 1)^(-h/2), h the horocycle index."""
    return (2 * rank - 1) ** (-h / 2.0)


def spherical_ratio(q: int, d_xy: int, d_y: int) -> float:
    """Finite-target ratio kernel of an isotropic walk on the (q+1)-tree."""

    def phi(n: int) -> float:
        return (1.0 + (q - 1) / (q + 1) * n) * q ** (-n / 2.0)

    return phi(d_xy) / phi(d_y)


def lattice_parts(walk) -> tuple[float, float, float]:
    ab = walk.spec.alphabet
    mu = walk.spec.mu_map
    up = float(mu.get(tw.word(ab, [1]), 0))
    down = float(mu.get(tw.word(ab, [-1]), 0))
    return float(walk.hold), up, down


def lattice_rho(walk) -> float:
    hold, up, down = lattice_parts(walk)
    return hold + 2.0 * math.sqrt(up * down)


def lattice_ratio(walk, m: int) -> float:
    """lim p^(n)(0, m) / p^(n)(0, 0) = (up/down)^(m/2)."""
    _, up, down = lattice_parts(walk)
    return (up / down) ** (m / 2.0)


T3_RHO = 0.5 + 0.5 * (2.0 * math.sqrt(2.0) / 3.0)  # t3-lazy-iso
F2_LAZY_RHO = (1.0 + 2.0 * math.sqrt(3.0)) / 5.0  # f2-lazy-uniform


def signed_length(w) -> int:
    if not w.letters:
        return 0
    return len(w) if w.letters[0] > 0 else -len(w)


# ---------------------------------------------------------------------------
# Shared per-walk checks


def check_walk_radius(system, walk) -> None:
    """Uniform: closed-form radius.  Skewed: 1/r against a local-limit fit."""
    r = float(system.radius().r)
    if walk.uniform:
        close("radius", r, 1.0 / uniform_rho(walk), 1e-10)
        return
    coeffs = tw.series_coefficients(system, None, 2000, exact=False).floats()
    fit = tw.fit_local_limit(coeffs, (500, 2000))
    require(
        abs(fit.rho - 1.0 / r) <= 1e-3,
        f"1/r = {1.0 / r!r} vs local-limit fit {fit.rho!r} (tol 1e-3)",
    )


def check_t_harmonic(spec, kernel, t: float, label: str) -> None:
    """Residual of sum_g mu(g) K(vg) = t K(v) over the radius-2 ball."""
    resid = tw.verify_t_harmonic(spec, kernel, t, radius=2)
    require(resid <= 1e-9, f"{label}: harmonicity residual {resid:.3e} > 1e-9")


SQRT_FIT_EXPONENTS = (8, 9, 10, 11)  # distances 10^-k below the singularity


def sqrt_coefficient(system, w) -> mp.mpf:
    """beta in G(e, w | z) = G(e, w | r) - beta sqrt(r - z) + O(r - z).

    (G(r) - G(r - eps)) / sqrt(eps) is a power series in sqrt(eps); a cubic
    through four distances 1e-8..1e-11 leaves an O(eps^2) error.  Two
    distances (the package's own expansion) leave O(eps) with a
    coefficient that grows with |w|, about 1e-5 relative at |w| = 14.
    """
    fp = system.fold()
    with mp.workprec(fp.prec):
        r = fp.r
        alpha = fp.value_at_radius(w)
        s, b = [], []
        for k in SQRT_FIT_EXPONENTS:
            with mp.workprec(system.prec):
                z = r - mp.mpf(10) ** -k  # rounded as solve() will round it
            eps = r - z
            s.append(mp.sqrt(eps))
            b.append((alpha - system.solve(z).green_to(w)) / s[-1])
        fit = mp.lu_solve(mp.matrix([[si**j for j in range(len(s))] for si in s]),
                          mp.matrix(b))
        return fit[0]


def direct_ratio(system, x, y) -> float:
    """Finite-target kernel from directly differenced sqrt coefficients."""
    return float(sqrt_coefficient(system, x.inverse() * y) / sqrt_coefficient(system, y))


def derivative_phi(system, x, y, z: float) -> float:
    """phi(x, y | z) = 1 + z G'(x, y | z) / G(x, y | z) by central differences.

    Independent of the shell sums: sum_v G(x,v) G(v,y) = z G' + G.  The
    step is 1e-5 of the distance to the singularity, where G has a square
    root, so the difference quotient stays accurate to about 1e-10.
    """
    w = x.inverse() * y
    with mp.workprec(system.prec):
        zz = mp.mpf(z)
        h = (mp.mpf(system.radius().r) - zz) * mp.mpf("1e-5")
        up = system.solve(zz + h).green_to(w)
        dn = system.solve(zz - h).green_to(w)
        g = system.solve(zz).green_to(w)
        return float(1 + zz * (up - dn) / (2 * h) / g)


def passage_bracket(pv, route, label: str) -> None:
    """Truncated absorption sweep against an untruncated route, z <= 1.

    A path lost by the sweep left the state ball (its weight up to then is
    in ``escaped``) and the rest of its walk into the ball weighs at most 1
    when z <= 1, so route - dp lies in [0, escaped] coordinatewise-summed.
    """
    gap = [r - d for r, d in zip(route, pv.values)]
    scale = max(max(route), 1e-300)
    require(
        min(gap) >= -1e-12 * scale,
        f"{label}: dp exceeds the route value by {-min(gap):.3e}",
    )
    require(
        sum(gap) <= pv.escaped + 1e-9 * scale,
        f"{label}: dp deficit {sum(gap):.3e} exceeds escaped weight {pv.escaped:.3e}",
    )


# ---------------------------------------------------------------------------
# Brute-force references, cached per input


class References:
    """Expensive references computed once per distinct input in a run."""

    def __init__(self):
        self._returns: dict = {}
        self._mix: dict = {}

    def exact_laws(self, spec, n_max: int) -> list[dict]:
        """nstep(exact) tables for n = 0..n_max (independent of the series)."""
        key = (spec, n_max)
        if key not in self._returns:
            self._returns[key] = [
                dict(tw.nstep(spec, n, exact=True).table) for n in range(n_max + 1)
            ]
        return self._returns[key]

    def product_mixture(self, pw, n: int) -> dict:
        """Exact law of the switching product by pair-state convolution."""
        if n not in self._mix:
            left = tw.word_twin(pw.left) if pw.left.mode == "isotropic" else pw.left
            right = pw.right
            e = (tw.identity(left.alphabet), tw.identity(right.alphabet))
            dist = {e: Fraction(1)}
            s = pw.weight
            for _ in range(n):
                nxt: dict = defaultdict(Fraction)
                for (w1, w2), p in dist.items():
                    for g, wgt in left.mu_map.items():
                        nxt[(w1 * g, w2)] += p * wgt * s
                    for g, wgt in right.mu_map.items():
                        nxt[(w1, w2 * g)] += p * wgt * (1 - s)
                dist = dict(nxt)
            self._mix[n] = dist
        return self._mix[n]
