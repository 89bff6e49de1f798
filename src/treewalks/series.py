"""Generating functions of nearest-neighbour walks on free groups.

For a nearest-neighbour step law on a free group (or on a free product of
order-two generators, which covers regular trees) every first-passage
generating function factors over the letters of the target word, and the
one-letter functions solve a quadratic fixed-point system with one unknown
per letter.  This module solves that system in multiprecision arithmetic,
locates the shared singularity of all the generating functions, reads the
square-root expansion data there off the null vectors of the fold,
produces Taylor coefficients, and evaluates second-order Green sums.

The minimal nonnegative solution of the fixed-point system is the
probabilistic one.  We reach it by monotone iteration from zero followed by
Newton steps, which for this class of systems stay below the fixed point
and converge even at the fold, where plain iteration slows to a crawl.

The map phi is a polynomial with nonnegative coefficients, so it is
monotone, and that makes both a quick divergence verdict and a warm start
sound (Esparza, Kiefer and Luttenberger, "Newtonian program analysis",
JACM 2010; Etessami and Yannakakis, "Recursive Markov chains, stochastic
grammars, and monotone systems of nonlinear equations", JACM 2009):

* Iterates from zero are post-fixed points, phi(f) >= f, and lie below
  every fixed point.  A Newton step from such a point keeps both
  properties while a fixed point exists: then rho(J(f)) < 1, so
  (I - J(f))^-1 is a nonnegative series and the correction
  delta = (I - J(f))^-1 (phi(f) - f) is nonnegative.  A negative residual
  or a negative correction, beyond rounding, therefore proves that no
  fixed point exists at this z, and the solve stops at once instead of
  running out its step budget.
* For lo < z the least fixed point f*(lo) is a post-fixed point of the map
  at z, since phi_z(f*(lo)) = (z / lo) phi_lo(f*(lo)) >= f*(lo), and it
  lies below f*(z).  A Newton iteration at z may start there, and the
  certificate above still holds.

The radius certificate asserts three things only: the system is solvable
at lo, unsolvable at hi, and hi - lo <= 1e-12.  The bisection midpoints in
between are bookkeeping: a wrong side for a midpoint cannot go unnoticed,
because it puts r outside the final bracket and one of the two end solves
then fails.  So radius() estimates r, takes the side of every midpoint
from that estimate, and then solves lo from zero and runs Newton at hi
from the values at lo.  Should the estimate or either end check fail,
radius() raises ConvergenceError naming it; no midpoint is ever solved.

The fold is the zero of the bordered system phi(f, z) = f, J(f, z) v = v,
v[0] = 1 (Moore and Spence, SIAM J. Numer. Anal. 17, 1980), and its right
null vector v comes with it.  One-generator walks fold with a
two-dimensional null space: their two letter equations are scalar
quadratics, whose shared fold r = 1 / (mu0 + 2 sqrt(mu_1 mu_-1)) is the
estimate, and fold() refuses them.

The Newton algebra runs on raw mpf tuples through mpmath.libmp: each call
is the one that an mpf operator of the written formula makes, so every bit
is that of mpf arithmetic.  mpf objects are made where values leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from types import MappingProxyType

import numpy as np
from mpmath import mp
from mpmath.libmp import fnan, fone, from_float, from_int, fzero, round_nearest as RND
from mpmath.libmp import mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul
from mpmath.libmp import mpf_neg, mpf_rdiv_int, mpf_shift, mpf_sub, mpf_sum

from .errors import ConvergenceError, ValidationError
from .geometry import ReducedWord, format_word, identity, word
from .walks import EXACT_STEP_LIMIT, WalkSpec, _denominator

__all__ = [
    "FirstPassageSystem",
    "SolveResult",
    "RadiusCertificate",
    "FoldPoint",
    "PuiseuxData",
    "PowerSeries",
    "SecondOrderGreen",
    "series_coefficients",
    "green_second_order",
]

MIN_PREC = 80  # below it Newton's tolerance cannot tell z just past the fold
ESTIMATE_PREC = 96  # its fold tolerance 2^-56 lies far inside the bracket
KLEENE_WARMUP = 25
NEWTON_CAP = 400
SOLVE_CACHE = 256  # solves kept per system, least recently read dropped first
FOLD_CAP = 80  # bordered Newton steps of the fold refinement
VALUE_BOUND = 1e9
BRACKET_WIDTH = 1e-13  # bisection stops below the certified 1e-12
ESTIMATE_WIDTH = 1e-9  # float64 bisection that starts the fold estimate


def _letter_floats(result) -> MappingProxyType:
    """The letter values rounded to floats, read-only, once per result."""
    return MappingProxyType({c: float(v) for c, v in result.values.items()})


@dataclass
class SolveResult:
    """Minimal nonnegative solution of the fixed-point system at one z."""

    z: object
    letters: tuple[int, ...]
    values: dict[int, object]
    green: object | None  # None when the return series diverges
    iterations: int
    residual: object

    floats = cached_property(_letter_floats)

    def first_passage(self, target: ReducedWord):
        out = mp.mpf(1)
        for c in target.letters:
            out *= self.values[c]
        return out

    def green_to(self, target: ReducedWord):
        if self.green is None:
            raise ConvergenceError(
                f"Green function diverges at z = {mp.nstr(self.z, 17)}: "
                "the return generating function reaches 1"
            )
        return self.first_passage(target) * self.green


@dataclass(frozen=True)
class RadiusCertificate:
    """Bisection bracket around the shared singularity."""

    r: float
    lo: float  # system still solvable here
    hi: float  # system already unsolvable here
    evaluations: int  # bracket points decided: both ends and every midpoint
    prec: int


@dataclass
class FoldPoint:
    """High-precision singularity data from the bordered fold system.

    At the singularity the Jacobian J of the fixed-point map has eigenvalue
    one; the values, a null vector of I - J and z are solved for jointly.
    """

    r: object
    values: dict[int, object]
    null_vector: list  # right null vector of I - J(f, r), letter order, v[0] = 1
    green: object | None
    residual: object
    iterations: int
    prec: int

    floats = cached_property(_letter_floats)

    def value_at_radius(self, target: ReducedWord):
        if self.green is None:
            raise ConvergenceError(
                "Green function diverges at its singularity; "
                "no finite boundary value there"
            )
        out = self.green
        for c in target.letters:
            out *= self.values[c]
        return out


@dataclass(frozen=True)
class PuiseuxData:
    """Square-root expansion data of one generating function at the fold.

    value(z) = value_at_r - sqrt_coefficient * sqrt(r - z) + O(r - z);
    gamma = sqrt_coefficient / value_at_r, from FirstPassageSystem.gamma_table.
    """

    label: str
    radius: float
    value_at_r: float
    sqrt_coefficient: float
    gamma: float
    prec: int


@dataclass(frozen=True)
class PowerSeries:
    """Taylor coefficients at zero; exact rationals or float64."""

    label: str
    coefficients: tuple
    exact: bool

    def floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coefficients])

    def __len__(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class SecondOrderGreen:
    """sum_v G(x,v|z) G(v,y|z); green_second_order explains the fields."""

    value: float
    error: float
    shells: int
    stabilized: bool
    green_pair: float  # G(x,y|z)
    green_origin: float  # G(e,e|z)

    @property
    def phi(self) -> float:
        return self.value / self.green_pair


class FirstPassageSystem:
    """Solver bundle for the one-letter first-passage functions of a walk.

    Exposes pointwise solves, the singularity bracket, fold refinement,
    and the square-root expansion data read off the fold's null vectors.
    All pointwise results are cached per evaluation point.
    """

    def __init__(self, spec: WalkSpec, prec: int = 96):
        if spec.mode != "finitely-supported":
            raise ValidationError(
                "first-passage systems need an explicit word step law; "
                "isotropic walks go through the radial chain or a word twin"
            )
        if not spec.is_nearest_neighbour:
            raise ValidationError(
                "first-passage factorization needs a nearest-neighbour step "
                "law; longer-range walks go through the ball matrices"
            )
        if prec < MIN_PREC:
            raise ValidationError(f"need at least {MIN_PREC} bits of precision")
        self.spec = spec
        self.prec = int(prec)
        ab = spec.alphabet
        self.letters: tuple[int, ...] = ab.letters
        self.index = {c: k for k, c in enumerate(self.letters)}
        self.inv_index = [
            self.index[ab.inverse_letter(c)] for c in self.letters
        ]
        mu_map = spec.mu_map
        self.mu0_fraction: Fraction = mu_map.get(identity(ab), Fraction(0))
        self.mu_fractions: list[Fraction] = [
            mu_map.get(word(ab, [c]), Fraction(0)) for c in self.letters
        ]
        if self.mu0_fraction <= 0:
            raise ValidationError("need a positive holding probability")
        self._solve_cache: dict = {}
        self._radius_cert: RadiusCertificate | None = None
        self._fold: FoldPoint | None = None
        self._gammas: dict | None = None

    # -- fixed-point map -----------------------------------------------

    # Raw mpfs at mp.prec up to fold(); docstrings give the mpf formulas.
    def _weights(self):
        """mu and mu0 as raw mpfs: mp.mpf(p.numerator) / p.denominator."""
        prec = mp.prec
        mu = [mpf_div(from_int(p.numerator, prec, RND), from_int(p.denominator),
                      prec, RND) for p in [*self.mu_fractions, self.mu0_fraction]]
        return mu[:-1], mu[-1]

    def _letter_sum(self, f, mu):
        """s = sum_k mu_k f_{k^-1}, added up from 0 in letter order."""
        prec = mp.prec
        s = fzero
        for m, x in zip(mu, (f[i] for i in self.inv_index)):
            s = mpf_add(s, mpf_mul(m, x, prec, RND), prec, RND)
        return s

    def _phi(self, f, z, mu, mu0):
        """phi_k = z * (mu_k + mu0 * f_k + f_k * (s - mu_k * f_{k^-1}))."""
        prec = mp.prec
        s = self._letter_sum(f, mu)
        out = []
        for m, x, xi in zip(mu, f, (f[i] for i in self.inv_index)):
            head = mpf_add(m, mpf_mul(mu0, x, prec, RND), prec, RND)
            inner = mpf_sub(s, mpf_mul(m, xi, prec, RND), prec, RND)
            tail = mpf_mul(x, inner, prec, RND)
            out.append(mpf_mul(z, mpf_add(head, tail, prec, RND), prec, RND))
        return out

    def _jacobian(self, f, z, mu, mu0):
        """J[i][k] = z * v with v = f_i * mu_{k^-1}, then for k = i
        v += mu0 + s - mu_i * f_{i^-1}, then for k = i^-1 v -= mu_i * f_i."""
        prec = mp.prec
        inv = self.inv_index
        s = self._letter_sum(f, mu)
        J = []
        for i, (m, x) in enumerate(zip(mu, f)):
            ii = inv[i]
            row = []
            for k in range(len(f)):
                v = mpf_mul(x, mu[inv[k]], prec, RND)
                if k == i:
                    d = mpf_add(mu0, s, prec, RND)
                    d = mpf_sub(d, mpf_mul(m, f[ii], prec, RND), prec, RND)
                    v = mpf_add(v, d, prec, RND)
                if k == ii:
                    v = mpf_sub(v, mpf_mul(m, x, prec, RND), prec, RND)
                row.append(mpf_mul(z, v, prec, RND))
            J.append(row)
        return J

    # -- pointwise solve -------------------------------------------------

    def _diverged(self, zz, cause: str) -> ConvergenceError:
        return ConvergenceError(
            f"first-passage solve at z = {mp.nstr(zz, 17)} found no "
            f"finite nonnegative fixed point: {cause}"
        )

    def _newton(self, zz, f, mu, mu0):
        """Newton polish from a post-fixed point below the least fixed point.

        Call inside mp.workprec(self.prec) with the mpf point zz and f, mu
        and mu0 raw.  Returns (f, steps, residual), raw.  Raises
        ConvergenceError naming the guard that fired: a certified negative
        residual or correction (see the module docstring), a singular
        Newton matrix, an iterate past VALUE_BOUND, or NEWTON_CAP
        exhausted.  The sign tests allow for rounding relative to the size
        of the vector they test.
        """
        prec, z = mp.prec, zz._mpf_
        tol = mpf_shift(fone, 16 - self.prec)  # 2 ** (16 - self.prec)
        neg_tol = mpf_neg(tol, prec, RND)
        bound = from_float(VALUE_BOUND)

        def negative(xs, size):  # min(xs) < -tol * (1 + size)
            floor = mpf_mul(neg_tol, mpf_add(size, fone, prec, RND), prec, RND)
            return mpf_lt(_max(xs, mpf_lt), floor)

        for step in range(NEWTON_CAP):
            phi = self._phi(f, z, mu, mu0)
            g = [mpf_sub(p, x, prec, RND) for p, x in zip(phi, f)]
            residual = _max([mpf_abs(v, prec, RND) for v in g])
            if mpf_le(residual, tol):
                return f, step, residual
            if negative(g, _max(f)):
                raise self._diverged(zz, "certified by a negative residual "
                                     f"phi(f) - f at Newton step {step}")
            A = _eye_minus(self._jacobian(f, z, mu, mu0))
            try:
                delta = _mpf_lu_solve(A, g, prec + 10)
            except ZeroDivisionError:
                raise self._diverged(
                    zz, f"singular Newton matrix at Newton step {step}"
                ) from None
            if negative(delta, _max([mpf_abs(v, prec, RND) for v in delta])):
                raise self._diverged(zz, "certified by a negative Newton "
                                     f"correction at Newton step {step}")
            f = [mpf_add(x, d, prec, RND) for x, d in zip(f, delta)]
            for k, x in enumerate(f):
                if x == fnan or mpf_gt(x, bound):
                    raise self._diverged(zz, "Newton iterate is NaN or above "
                                         f"VALUE_BOUND = {VALUE_BOUND:g} at "
                                         f"Newton step {step}")
                if mpf_lt(x, fzero):
                    f[k] = fzero
        raise self._diverged(zz, f"NEWTON_CAP = {NEWTON_CAP} steps exhausted")

    def solve(self, z) -> SolveResult:
        """Minimal nonnegative solution of the fixed-point system at z.

        KLEENE_WARMUP steps of plain iteration from zero, then Newton.  Both
        stay below the least fixed point and keep phi(f) >= f, so a negative
        residual or Newton correction certifies that no fixed point exists
        and the solve raises ConvergenceError at once (module docstring).
        Every failure names its cause; NEWTON_CAP and VALUE_BOUND remain as
        backstops.  The last SOLVE_CACHE points read are cached; a solve
        starts from zero, so an evicted point solves to the same bits again.
        """
        # keyed on the point the solve uses: a float is exact at MIN_PREC
        # bits, and mpfs hash and compare with floats by value; a hit moves
        # to the end, so the first key is the least recently read
        cache = self._solve_cache
        key = z if isinstance(z, float) else mp.mpf(z, prec=self.prec)
        hit = cache.pop(key, None)
        if hit is not None:
            cache[key] = hit
            return hit
        with mp.workprec(self.prec):
            zz = mp.mpf(z)
            z = zz._mpf_
            if zz <= 0:
                raise ValidationError("evaluation point must be positive")
            mu, mu0 = self._weights()
            f = [fzero] * len(self.letters)
            bound = from_float(VALUE_BOUND)
            for _ in range(KLEENE_WARMUP):
                f = self._phi(f, z, mu, mu0)
                if mpf_gt(_max(f), bound):
                    raise self._diverged(zz, "Kleene iterates escaped "
                                         f"VALUE_BOUND = {VALUE_BOUND:g}")
            f, steps, residual = self._newton(zz, f, mu, mu0)
            result = SolveResult(
                z=zz,
                letters=self.letters,
                values={c: mp.make_mpf(f[self.index[c]]) for c in self.letters},
                green=self._green(f, z, mu, mu0),
                iterations=KLEENE_WARMUP + steps,
                residual=mp.make_mpf(residual),
            )
        cache[key] = result
        if len(cache) > SOLVE_CACHE:
            del cache[next(iter(cache))]
        return result

    def _green(self, f, z, mu, mu0):
        """1 / (1 - u) with u = z * (mu0 + s) as an mpf, None unless u < 1."""
        prec = mp.prec
        u = mpf_mul(z, mpf_add(mu0, self._letter_sum(f, mu), prec, RND), prec, RND)
        if not mpf_lt(u, fone):
            return None
        return mp.make_mpf(mpf_rdiv_int(1, mpf_sub(fone, u, prec, RND), prec, RND))

    # -- singularity ----------------------------------------------------

    def radius(self) -> RadiusCertificate:
        """Bisection bracket for the shared singularity of the system.

        Works on the solvability predicate directly: below the singularity
        the Newton polish lands on the minimal fixed point, above it there
        is no nonnegative solution to land on, and the certified negative
        correction of solve() says so within a few steps.  The starting
        ends z = 1 and z = min(2, 1/mu0) go through solve(); while hi
        solves it doubles, up to 1/mu0, where no fixed point exists since
        mu0 z = 1 leaves mu_c + f_c sum_{d != c} mu_d f_{d^-1} = 0 in the
        equation of each letter c.  Every midpoint
        takes its side from the fold estimate (module docstring).  Solved
        are cert.lo, from zero through solve(), whose cached values fold()
        reads, and cert.hi, by Newton from the values at cert.lo, which
        must certify divergence.  If the estimate or either end check
        fails, ConvergenceError names it.
        """
        if self._radius_cert is not None:
            return self._radius_cert
        lo = 1.0
        cap = float(Fraction(1, 1) / self.mu0_fraction)
        hi = min(2.0, cap)
        try:
            start = self.solve(lo)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"first-passage system unsolvable at z = 1 ({exc})"
            ) from None
        evaluations = 2
        while True:
            try:
                self.solve(hi)
            except ConvergenceError:
                break
            if hi >= cap:
                raise ConvergenceError(
                    f"singularity bisection bracket not found in (0, {hi!r}]"
                )
            hi = min(2.0 * hi, cap)
            evaluations += 1
        estimate = self._fold_estimate(start, hi)
        while hi - lo > BRACKET_WIDTH:
            mid = 0.5 * (lo + hi)
            evaluations += 1
            if mid < estimate:  # exact, where float(estimate) may sit an ulp off
                lo = mid
            else:
                hi = mid
        cert = RadiusCertificate(
            r=0.5 * (lo + hi), lo=lo, hi=hi, evaluations=evaluations,
            prec=self.prec,
        )
        self._check_ends(cert)
        self._radius_cert = cert
        return cert

    def _check_ends(self, cert: RadiusCertificate) -> None:
        """Raise ConvergenceError unless solve(cert.lo) succeeds and Newton
        at cert.hi, started from its values, certifies that no fixed point
        exists."""
        try:
            base = self.solve(cert.lo)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"radius bracket failed its cert.lo check: {exc}"
            ) from None
        with mp.workprec(self.prec):
            mu, mu0 = self._weights()
            f = [base.values[c]._mpf_ for c in self.letters]
            try:
                self._newton(mp.mpf(cert.hi), f, mu, mu0)
            except ConvergenceError:
                return
        raise ConvergenceError(
            f"radius bracket failed its cert.hi check: Newton at z = "
            f"{cert.hi!r} converged from the values at cert.lo"
        )

    def _fold_estimate(self, start: SolveResult, hi: float):
        """The singularity to ESTIMATE_PREC bits, as an mpf.

        A walk over one generator has it in closed form (module docstring).
        Otherwise a float64 bisection with warm-started Newton steps narrows
        [1, hi] to ESTIMATE_WIDTH, and the bordered fold Newton runs at
        ESTIMATE_PREC bits from the vector at its lower end; ConvergenceError
        names its failure.  Nothing here is certified: radius() checks the
        bracket the estimate leads to.
        """
        if len(self.letters) == 2:
            with mp.workprec(ESTIMATE_PREC):
                mu, mu0 = self._weights()
                up, down, mu0 = map(mp.make_mpf, (*mu, mu0))
                return 1 / (mu0 + 2 * mp.sqrt(up * down))
        L = len(self.letters)
        inv = np.array(self.inv_index)
        rows = np.arange(L)
        mu = np.array([float(p) for p in self.mu_fractions])
        mu0 = float(self.mu0_fraction)
        tol = 2.0 ** (16 - 53)

        def newton64(z, f):
            for _ in range(NEWTON_CAP):
                s = mu @ f[inv]
                g = z * (mu + mu0 * f + f * (s - mu * f[inv])) - f
                if np.abs(g).max() <= tol:
                    return f
                if g.min() < -tol * (1 + f.max()):
                    return None
                J = z * (np.outer(f, mu[inv]) + np.diag(mu0 + s - mu * f[inv]))
                J[rows, inv] -= z * mu * f
                try:
                    delta = np.linalg.solve(np.eye(L) - J, g)
                except np.linalg.LinAlgError:
                    return None
                if delta.min() < -tol * (1 + np.abs(delta).max()):
                    return None
                f = np.maximum(f + delta, 0.0)
                if not np.all(f <= VALUE_BOUND):  # also catches NaN
                    return None
            return None

        lo = 1.0
        f = np.array([start.floats[c] for c in self.letters])
        while hi - lo > ESTIMATE_WIDTH:
            mid = 0.5 * (lo + hi)
            f_mid = newton64(mid, f)
            if f_mid is None:
                hi = mid
            else:
                lo, f = mid, f_mid
        try:
            r = self._fold_newton(
                f, lo, lo - ESTIMATE_WIDTH, hi + ESTIMATE_WIDTH, ESTIMATE_PREC
            )[2]
        except ConvergenceError as exc:
            raise ConvergenceError(f"radius estimate failed: {exc}") from None
        return mp.make_mpf(r)

    def _fold_newton(self, f, z, lo: float, hi: float, prec: int):
        """Newton's method on the bordered fold system at prec bits.

        The unknowns are f, v with v[0] = 1, and z; the equations are
        phi(f, z) = f and J(f, z) v = v.  phi is linear in z and quadratic
        in f, so the Jacobian is [[J - I, 0, phi / z], [H, (J - I)[:, 1:],
        J v / z]] with H = D^2 phi[v, .], which is _jacobian at v without
        the holding term.  Starts from (f, v = 1, z) and returns (values,
        v, r, residual, iterations), raw.  Raises ConvergenceError naming
        the guard that fired: a singular correction step, FOLD_CAP
        exhausted, or an r outside [lo, hi].
        """
        L = len(self.letters)
        with mp.workprec(prec):
            mu, mu0 = self._weights()
            f = [mp.mpf(x)._mpf_ for x in f]
            v = [fone] * L
            zz = mp.mpf(z)._mpf_
            tol = mpf_shift(fone, 40 - prec)  # 2 ** (40 - prec)
            for iterations in range(FOLD_CAP):
                phi = self._phi(f, zz, mu, mu0)
                J = self._jacobian(f, zz, mu, mu0)
                # mp.fdot(row, v): exact products, one rounding of the sum
                Jv = [mpf_sum([mpf_mul(a, b) for a, b in zip(row, v)], prec, RND)
                      for row in J]
                g = [mpf_sub(a, b, prec, RND) for a, b in zip(phi + Jv, f + v)]
                residual = _max([mpf_abs(x, prec, RND) for x in g])
                if mpf_le(residual, tol):
                    break
                JI = [[mpf_sub(x, fone, prec, RND) if i == k else x
                       for k, x in enumerate(row)] for i, row in enumerate(J)]
                H = self._jacobian(v, zz, mu, fzero)
                col = [mpf_div(x, zz, prec, RND) for x in phi + Jv]  # phi / z, J v / z
                A = [JI[i] + [fzero] * (L - 1) + [col[i]] for i in range(L)]
                A += [H[i] + JI[i][1:] + [col[L + i]] for i in range(L)]
                try:
                    delta = _mpf_lu_solve(A, g, prec + 10)
                except ZeroDivisionError:
                    raise ConvergenceError(f"fold refinement hit a singular correction"
                                           f" step at step {iterations}") from None
                f = [mpf_sub(x, d, prec, RND) for x, d in zip(f, delta)]
                v[1:] = [mpf_sub(x, d, prec, RND) for x, d in zip(v[1:], delta[L:])]
                zz = mpf_sub(zz, delta[2 * L - 1], prec, RND)
            else:
                raise ConvergenceError("fold refinement did not converge: "
                                       f"FOLD_CAP = {FOLD_CAP} steps exhausted")
            r = mp.make_mpf(zz)
            if not (lo <= float(r) <= hi):
                raise ConvergenceError(
                    f"fold refinement left the singularity bracket "
                    f"[{lo!r}, {hi!r}]: r = {mp.nstr(r, 17)}"
                )
        return f, v, zz, residual, iterations

    def fold(self) -> FoldPoint:
        """High-precision fold point and null vector from solve(cert.lo).

        Runs the bordered Newton at max(prec + 64, 192) bits and requires
        the refined r to lie in the certified bracket, widened by 1e-15
        relative for the rounding of its ends.  A walk over one generator
        raises ValidationError before any Newton step.
        """
        if self.spec.walk_class == "lattice":
            raise ValidationError(
                "fold() needs two generators: a one-generator walk folds with "
                "a 2-dimensional null space; use the lattice route (factor_kernel)"
            )
        if self._fold is not None:
            return self._fold
        cert = self.radius()
        prec = max(self.prec + 64, 192)
        base = self.solve(cert.lo)
        f, v, r, residual, iterations = self._fold_newton(
            [base.values[c] for c in self.letters],
            cert.lo,
            cert.lo * (1 - 1e-15),
            cert.hi * (1 + 1e-15),
            prec,
        )
        with mp.workprec(prec):
            mu, mu0 = self._weights()
            self._fold = FoldPoint(
                r=mp.make_mpf(r),
                values={c: mp.make_mpf(f[self.index[c]]) for c in self.letters},
                null_vector=list(map(mp.make_mpf, v)),
                green=self._green(f, r, mu, mu0),
                residual=mp.make_mpf(residual),
                iterations=iterations,
                prec=prec,
            )
        return self._fold

    # -- square-root expansion data --------------------------------------

    def _target_label(self, target) -> str:
        if target is None:
            return "green"
        if isinstance(target, int):
            return f"letter {target}"
        return format_word(target)

    def expansion(self, target=None) -> PuiseuxData:
        """Square-root expansion of one generating function at the fold.

        target: None for the Green function at the identity, a letter, or a
        ReducedWord (the Green function to that word, whose gamma is the
        Green gamma plus its letters' gammas).  Reads gamma_table().
        """
        fp = self.fold()
        gammas = self.gamma_table()
        with mp.workprec(fp.prec):
            if isinstance(target, int):
                alpha, gamma = fp.values[target], gammas[target]
            else:
                w = identity(self.spec.alphabet) if target is None else target
                alpha, gamma = fp.value_at_radius(w), _gamma_sum(gammas, w)
            value = float(alpha)
        return PuiseuxData(
            label=self._target_label(target),
            radius=float(fp.r),
            value_at_r=value,
            sqrt_coefficient=value * gamma,
            gamma=gamma,
            prec=fp.prec,
        )

    def gamma_table(self) -> dict:
        """Per-letter gamma data plus the Green gamma, as floats.

        Closed form at the fold (f, r), where A = I - J(f, r) is an
        irreducible singular M-matrix: its right and left null vectors v, w
        are positive.  v comes with the fold (fold().null_vector), and w is
        one solve of the proper principal minor A[1:, 1:]^T (all proper
        minors are nonsingular) with the first entry fixed at 1.  Below the
        fold f(r - eps) = f + delta, delta = -c v sqrt(eps) + O(eps), and
        projecting A delta = -eps phi_z + D^2 phi[delta, delta] / 2 onto w,
        with phi_z = f / r since phi is linear in z, gives

            c^2 = 2 w.phi_z / w.D^2 phi[v, v],
            D^2 phi_k[v, v] = 2 r v_k (sum_j mu_j v_{j^-1} - mu_k v_{k^-1}).

        So a letter's gamma is c v_k / f_k, and the Green function
        1 / (1 - z (mu0 + s)), s = sum_j mu_j f_{j^-1}, has gamma
        G(r) r c sum_j mu_j v_{j^-1}.  When the fold is not a square-root
        singularity ConvergenceError names the failed condition: no finite
        Green value, a null vector not strictly positive, or
        w.D^2 phi[v, v] <= 0.  Computed once per system, from fold() alone.
        """
        if self._gammas is not None:
            return dict(self._gammas)
        fp = self.fold()
        where = f"fold at r = {mp.nstr(fp.r, 17)} is not a square-root singularity"
        if fp.green is None:
            raise ConvergenceError(f"{where}: no finite Green value there")
        L, inv, r = len(self.letters), self.inv_index, fp.r
        with mp.workprec(fp.prec):
            mu, mu0 = self._weights()
            f = [fp.values[c] for c in self.letters]
            v = fp.null_vector
            A = _eye_minus(self._jacobian([x._mpf_ for x in f], r._mpf_, mu, mu0))
            mu = list(map(mp.make_mpf, mu))
            minor_t = [[A[k][i] for k in range(1, L)] for i in range(1, L)]
            b = [mpf_neg(A[0][i]) for i in range(1, L)]
            try:  # first entry 1, the rest from the transposed minor A[1:, 1:]^T
                w = [1, *map(mp.make_mpf, _mpf_lu_solve(minor_t, b, mp.prec + 10))]
            except ZeroDivisionError:  # a singular minor: A is reducible
                w = [0]
            for side, vec in (("right", v), ("left", w)):
                if min(vec) <= 0:
                    raise ConvergenceError(f"{where}: no positive {side} null vector")
            sv = mp.fsum(mu[j] * v[inv[j]] for j in range(L))
            curvature = 2 * r * mp.fsum(
                w[k] * v[k] * (sv - mu[k] * v[inv[k]]) for k in range(L)
            )
            if curvature <= 0:
                raise ConvergenceError(f"{where}: w.D^2 phi[v, v] <= 0")
            c = mp.sqrt(2 * mp.fsum(w[k] * f[k] for k in range(L)) / (r * curvature))
            table = {"green": float(fp.green * r * c * sv)}
            for k, letter in enumerate(self.letters):
                table[letter] = float(c * v[k] / f[k])
        self._gammas = table
        return dict(table)


def _max(xs, beats=mpf_gt):
    """Python's max of raw mpfs, as taken of mpfs; beats=mpf_lt gives min."""
    out = xs[0]
    for x in xs[1:]:
        if beats(x, out):
            out = x
    return out


def _eye_minus(J) -> list:
    """I - J of raw mpfs: 1 - J[i][i] on the diagonal, -J[i][k] off it."""
    prec = mp.prec
    return [[mpf_sub(fone, x, prec, RND) if i == k else mpf_neg(x, prec, RND)
             for k, x in enumerate(row)] for i, row in enumerate(J)]


def _mpf_lu_solve(A, b, prec: int) -> list:
    """x with A x = b for a square A of raw mpfs, at prec = mp.prec + 10, raw.

    mpmath 1.3.0's lu_solve -> LU_decomp -> L_solve -> U_solve, step for
    step, without its matrix class: the pivot tolerance |1-norm of A * eps|,
    scaled partial pivoting on (1 / sum_l |A[k][l]|) |A[k][j]| with a strict
    >, the same three ZeroDivisionError tests (where mpmath raises TypeError
    on a column that is zero from the diagonal down).  The arithmetic is
    libmp's, the calls that mpmath's mpf operators and mp.fsum make, in
    mpmath's loop order, so x is the mpf vector of mpmath's lu_solve.
    """
    n = len(A)
    A = [list(row) for row in A]
    x = list(b)
    norm = _max([mpf_sum([mpf_abs(row[j]) for row in A], prec, RND, True)
                 for j in range(n)])
    # each pivot has to be bigger than abs(norm * eps), eps = 2 ** (1 - prec)
    tol = mpf_abs(mpf_mul(norm, mpf_shift(fone, 1 - prec), prec, RND), prec, RND)
    for j in range(n - 1):
        biggest, p = fzero, None
        for k in range(j, n):
            s = mpf_sum([mpf_abs(a, prec, RND) for a in A[k][j:]], prec, RND)
            if mpf_le(mpf_abs(s, prec, RND), tol):
                raise ZeroDivisionError("matrix is numerically singular")
            # 1 / s * abs(A[k][j])
            inv_s = mpf_rdiv_int(1, s, prec, RND)
            current = mpf_mul(inv_s, mpf_abs(A[k][j], prec, RND), prec, RND)
            if mpf_gt(current, biggest):
                biggest, p = current, k
        if p is None:
            raise ZeroDivisionError("matrix is numerically singular")
        A[j], A[p] = A[p], A[j]
        x[j], x[p] = x[p], x[j]
        pivot = A[j]
        if mpf_le(mpf_abs(pivot[j], prec, RND), tol):
            raise ZeroDivisionError("matrix is numerically singular")
        for row in A[j + 1:]:
            row[j] = m = mpf_div(row[j], pivot[j], prec, RND)
            for k in range(j + 1, n):
                row[k] = mpf_sub(row[k], mpf_mul(m, pivot[k], prec, RND), prec, RND)
    if mpf_le(mpf_abs(A[n - 1][n - 1], prec, RND), tol):
        raise ZeroDivisionError("matrix is numerically singular")
    for i in range(1, n):
        for j in range(i):
            x[i] = mpf_sub(x[i], mpf_mul(A[i][j], x[j], prec, RND), prec, RND)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            x[i] = mpf_sub(x[i], mpf_mul(A[i][j], x[j], prec, RND), prec, RND)
        x[i] = mpf_div(x[i], A[i][i], prec, RND)
    return x


def _gamma_sum(gammas: dict, w: ReducedWord) -> float:
    """Sqrt-to-value ratio of a word target: the Green gamma plus its letters'."""
    out = gammas["green"]
    for c in w.letters:
        out += gammas[c]
    return out


# ---------------------------------------------------------------------------
# Taylor coefficients


def shared_system(spec: WalkSpec, prec: int = 96) -> FirstPassageSystem:
    """Process-wide solver bundle per (walk, precision).

    Solves, the singularity bracket and the fold all cache inside the
    system, so sharing one instance amortizes them across kernels,
    ball matrices and reports.  The cache keys on (spec, prec) however
    the call spells them; shared_system.cache_clear() empties it.
    """
    return _system(spec, prec)


_system = lru_cache(maxsize=None)(FirstPassageSystem)
shared_system.cache_clear = _system.cache_clear


def series_coefficients(
    system: FirstPassageSystem,
    target=None,
    n_max: int = EXACT_STEP_LIMIT,
    exact: bool | None = None,
) -> PowerSeries:
    """Taylor coefficients of a first-passage or Green function at zero.

    target follows the expansion() convention.  The Green coefficients are
    exactly the n-step return probabilities, which makes this the fast
    route to long return sequences on free groups.
    """
    if exact is None:
        exact = n_max <= EXACT_STEP_LIMIT
    (row,) = _series_rows(system, [target], n_max, exact)
    return PowerSeries(system._target_label(target), tuple(row.tolist()), exact)


def _series_rows(system: FirstPassageSystem, targets, n_max: int, exact: bool):
    """Coefficients n <= n_max of each target's function (the expansion()
    convention), one row per target, all read off one run of the
    recursion for f, t, s and g."""
    if n_max < 0:
        raise ValidationError("need n_max >= 0")
    ab = system.spec.alphabet
    for target in targets:
        in_walk = isinstance(target, ReducedWord) and target.alphabet == ab
        if not (target is None or in_walk or target in system.index):
            raise ValidationError(f"target {target!r} is no letter or word of the walk")
    # one recursion for both arithmetics.  Exact, the weights become
    # integers over their least common denominator D and coefficient n of
    # every array an integer over D**n: object arrays of Python ints are
    # exact whatever the summation order, and each row divides once at the
    # end.  float64 arrays use numpy's order.
    weights = [system.mu0_fraction, *system.mu_fractions]
    if exact:
        den = _denominator(weights)
        mu0, *mu = [int(p * den) for p in weights]
        dtype, zero, one = object, 0, 1
    else:
        mu0, *mu = [float(p) for p in weights]
        dtype, zero, one = float, 0.0, 1.0
    L = len(system.letters)
    inv = system.inv_index
    mu = np.array(mu, dtype=dtype)
    f = np.full((L, n_max + 1), zero, dtype=dtype)
    t = np.full((L, n_max + 1), zero, dtype=dtype)
    s = np.full(n_max + 1, zero, dtype=dtype)
    for n in range(1, n_max + 1):
        for i in range(L):
            acc = mu[i] if n == 1 else zero
            acc += mu0 * f[i, n - 1]
            if n >= 3:
                acc += np.dot(t[i, 1 : n - 1], f[i, n - 2 : 0 : -1])
            f[i, n] = acc
        s[n] = np.dot(mu, f[inv, n])
        t[:, n] = s[n] - mu * f[inv, n]
    u = np.full(n_max + 1, zero, dtype=dtype)
    u[1:] = s[:-1]
    if n_max >= 1:
        u[1] += mu0
    g = np.full(n_max + 1, zero, dtype=dtype)
    g[0] = one
    for n in range(1, n_max + 1):
        g[n] = np.dot(u[1 : n + 1], g[n - 1 :: -1])
    rows = np.full((len(targets), n_max + 1), zero, dtype=dtype)
    for k, target in enumerate(targets):
        if target is None:
            rows[k] = g
        elif isinstance(target, int):
            rows[k] = f[system.index[target]]
        else:
            coeffs = np.full(n_max + 1, zero, dtype=dtype)
            coeffs[0] = one
            for c in target.letters:
                coeffs = np.convolve(coeffs, f[system.index[c]])[: n_max + 1]
            rows[k] = np.convolve(coeffs, g)[: n_max + 1]
    if exact:
        scales = [den**n for n in range(n_max + 1)]
        rows = np.array(
            [[Fraction(c, d) for c, d in zip(row.tolist(), scales)] for row in rows],
            dtype=object,
        )
    return rows


# ---------------------------------------------------------------------------
# Second-order Green sums


def green_second_order(
    system: FirstPassageSystem,
    x: ReducedWord,
    y: ReducedWord,
    z,
    tol: float = 1e-12,
) -> SecondOrderGreen:
    """sum_v G(x,v|z) G(v,y|z) in closed form, from one L x L solve.

    Write v as a vertex m of the x-to-y geodesic (d = |x^-1 y| edges)
    followed by a reduced tail leaving it; its summand is G(e,e) G(x,y)
    times the product of omega_c = f_c f_{c^-1} over the tail's letters.
    The tails at m of length k + 1 sum to 1^T M^k t_m, where t_m is omega
    with the letters along the geodesic at m set to zero, and
    M = diag(omega)(J - P), J all ones, P the inverse-letter permutation,
    so (M t)_c = omega_c (sum(t) - t_{c^-1}).  With s = sum_m t_m,

        value = G(e,e) G(x,y) ((d + 1) + u^T s),   (I - M^T) u = 1.

    M >= 0, so the sum is finite exactly when the Perron root of M is
    below 1, and then u = sum_k (M^T)^k 1 > 0; conversely u > 0 with
    (I - M^T) u > 0 puts the Perron root below 1 (Berman and Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).  So the
    float64 u must be positive, with a residual r = (I - M^T) u - 1,
    evaluated exactly from the float64 data, of size eps = max |r| < 1;
    otherwise ConvergenceError names this u > 0 guard.  Past the
    singularity system.solve(z) raises first.

    error bounds the relative error of value against the closed form at
    the solver's letter values.  It adds eps / (1 - eps) for the solve,
    since (I - M^T)^-1 >= 0 maps 1 to the exact u, which the float64 u
    therefore misses by at most eps u componentwise; eta v^T s / total,
    to first order, for the letter values rounded to float64, which move
    omega and s by a relative eta <= 2^-51, with v = (I - M^T)^-1 u since
    (I - M^T)^-1 M^T u = v - u; and (L + 6) 2^-53 for the float64
    operations after the solve.  tol is the relative accuracy asked for:
    stabilized = error <= tol.  shells counts linear solves, as
    PassageVector.steps does, so it is 1.
    """
    if not tol > 0:
        raise ValidationError("need tol > 0")
    w = x.inverse() * y
    sol = system.solve(z)
    green_pair = sol.green_to(w)  # raises once the Green function diverges
    green = sol.green
    L = len(system.letters)
    inv = np.array(system.inv_index)
    fvals = np.array([sol.floats[c] for c in system.letters])
    om = fvals * fvals[inv]
    count = np.full(L, len(w) + 1.0)
    for c in w.letters:
        count[system.index[c]] -= 1
        count[inv[system.index[c]]] -= 1
    s = om * count
    M = om[:, None] * (1.0 - np.eye(L)[inv])
    A = np.eye(L) - M.T
    try:
        u = np.linalg.solve(A, np.ones(L))
        v = np.linalg.solve(A, u)
    except np.linalg.LinAlgError:  # exactly singular: the Perron root is 1
        u = v = np.zeros(L)
    eps = np.inf
    if np.isfinite(u).all() and u.min() > 0:
        uq = [Fraction(b) for b in u.tolist()]
        q = [Fraction(a) * b for a, b in zip(om.tolist(), uq)]
        qsum = sum(q)  # (M^T u)_c = qsum - q_{c^-1}
        eps = float(max(abs(uq[k] - qsum + q[inv[k]] - 1) for k in range(L)))
    if not eps < 1:
        raise ConvergenceError(
            f"second-order Green sum at z = {mp.nstr(sol.z, 17)} failed the "
            f"u > 0 guard (min u = {u.min():.3g}, residual {eps:.3g}): the "
            "Perron root of M is not certified below 1, and at 1 or above "
            "the sum diverges"
        )
    total = (len(w) + 1) + float(u @ s)
    error = eps / (1 - eps) + 2.0**-51 * float(v @ s) / total
    error += (L + 6) * 2.0**-53
    return SecondOrderGreen(
        value=float(green) * float(green_pair) * total,
        error=error,
        shells=1,
        stabilized=error <= tol,
        green_pair=float(green_pair),
        green_origin=float(green),
    )
