"""Random walk specifications and n-step machinery on trees and free groups.

Two kinds of step distribution are supported: isotropic walks on the
(q+1)-regular tree, given by radial weights a_d spread uniformly over
spheres, and finitely supported walks on a free group, given by an
explicit probability map on reduced words.  Isotropic walks project to
a Markov chain on distances; that radial chain is the workhorse for
large n.  Finitely supported walks convolve on words, exactly for small
n and in floating point with mass pruning beyond.  The exact engines
carry Python-int numerators: a law of n steps on weights with least
common denominator D is an integer over D**n (_denominator), so their
loops add and multiply ints, and each Fraction is built once, when a
value is returned.
Float laws have one engine per walk class: walks over one generator
run on the integer line as dense vectors, other nearest-neighbour walks
read the float Green series of their first-passage system, and word
convolution serves only the remaining word walks.  WalkSpec.walk_class
names the class of each walk, and products.route gives that class's
record of engines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError
from .geometry import (
    Alphabet,
    ReducedWord,
    _reduced_product,
    distance,
    free_group,
    identity,
    parse_word,
    sphere_size,
    tree_alphabet,
    format_word,
    word,
)

EXACT_STEP_LIMIT = 64  # exact rational convolution is the default up to here
PRUNE_DEFAULT = Fraction(1, 10**30)
WORD_SUPPORT_CAP = 200_000  # words one convolution step may hold

__all__ = [
    "WalkSpec",
    "isotropic_walk",
    "finite_walk",
    "word_twin",
    "load_walk_spec",
    "dump_walk_spec",
    "sphere_intersection",
    "RadialChain",
    "lattice_offsets",
    "NStepResult",
    "nstep",
    "RatioSequence",
    "ratio_sequence",
    "LocalLimitFit",
    "fit_local_limit",
    "SpectralRadius",
    "spectral_radius",
]


@dataclass(frozen=True)
class WalkSpec:
    """A step distribution, either radial on a tree or explicit on words."""

    mode: str  # 'isotropic' | 'finitely-supported'
    q: int | None = None
    coefficients: tuple[tuple[int, Fraction], ...] = ()
    group: Alphabet | None = None
    mu: tuple[tuple[ReducedWord, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if self.mode == "isotropic":
            self._validate_isotropic()
        elif self.mode == "finitely-supported":
            self._validate_finite()
        else:
            raise ValidationError(f"unknown walk mode {self.mode!r}")

    # -- validation ----------------------------------------------------

    def _validate_isotropic(self) -> None:
        if self.q is None or self.q < 1:
            raise ValidationError("isotropic walk needs q >= 1")
        if not self.coefficients:
            raise ValidationError("isotropic walk needs radial weights")
        total = Fraction(0)
        seen: set[int] = set()
        for d, a in self.coefficients:
            if d < 0 or d in seen:
                raise ValidationError("radial weights must use distinct d >= 0")
            seen.add(d)
            if a < 0:
                raise ValidationError("negative weight")
            total += a
        if total != 1:
            raise ValidationError(f"weights sum to {total}, expected 1")
        degrees = {d for d, a in self.coefficients if a > 0}
        aperiodic = 0 in degrees or (
            any(d % 2 for d in degrees) and any(d % 2 == 0 for d in degrees)
        )
        if not aperiodic:
            raise ValidationError("walk is periodic: need a_0 > 0 or mixed parities")

    def _validate_finite(self) -> None:
        if self.group is None or self.group.kind not in ("free", "involutive"):
            raise ValidationError(
                "finitely supported walks need a free or involutive alphabet"
            )
        if not self.mu:
            raise ValidationError("empty support")
        total = Fraction(0)
        seen: set[tuple[int, ...]] = set()
        for w, p in self.mu:
            if w.alphabet != self.group:
                raise ValidationError("support word over wrong alphabet")
            if w.letters in seen:
                raise ValidationError("duplicate support word")
            seen.add(w.letters)
            if p < 0:
                raise ValidationError("negative probability")
            total += p
        if total != 1:
            raise ValidationError(f"probabilities sum to {total}, expected 1")
        if self.mu_map.get(identity(self.group), Fraction(0)) == 0:
            raise ValidationError("need mu(e) > 0 for aperiodicity")
        self._check_generation()

    def _check_generation(self) -> None:
        # The semigroup generated by the support must cover the whole group;
        # it does once every generator is reachable by iterated steps.
        targets = {(a,) for a in self.group.letters}
        reached: set[tuple[int, ...]] = {()}
        frontier = support = {w.letters for w, p in self.mu if p > 0}
        for _ in range(2 * self.range + 2):
            reached |= frontier
            if targets <= reached:
                return
            frontier = {
                _reduced_product(self.group, u, s) for u in frontier for s in support
            }
        raise ValidationError("support does not generate the group")

    # -- shared views ---------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        if self.mode == "isotropic":
            return tree_alphabet(self.q)
        return self.group

    @property
    def degree(self) -> int:
        return self.alphabet.degree

    @property
    def mu_map(self) -> dict[ReducedWord, Fraction]:
        return dict(self.mu)

    @property
    def coefficient_map(self) -> dict[int, Fraction]:
        return dict(self.coefficients)

    # range and is_uniform_nn are read on every route() call and every
    # passage row, so each spec derives them once; eq and hash see the
    # fields alone
    @cached_property
    def range(self) -> int:
        if self.mode == "isotropic":
            return max(d for d, a in self.coefficients if a > 0)
        return max(len(w) for w, p in self.mu if p > 0)

    @property
    def is_nearest_neighbour(self) -> bool:
        return self.range == 1

    @property
    def walk_class(self) -> str:
        """Engine route: 'radial', 'lattice', 'nn' or 'words'.

        Isotropic walks project to the radial chain; rank-one word walks
        of any range live on the integer line; other nearest-neighbour
        word walks have a first-passage system; the rest convolve on
        words.  products.route maps this value to the class's engines.
        """
        if self.mode == "isotropic":
            return "radial"
        if self.group.size == 1:
            return "lattice"
        return "nn" if self.is_nearest_neighbour else "words"

    @cached_property
    def is_uniform_nn(self) -> bool:
        """True when the step law is lazy uniform nearest-neighbour."""
        if self.mode == "isotropic":
            return self.range == 1
        if self.range != 1:
            return False
        probs = {p for w, p in self.mu if len(w) == 1}
        return len(probs) == 1 and len([w for w, _ in self.mu if len(w) == 1]) == self.degree

    def step_items(self) -> list[tuple[ReducedWord, Fraction]]:
        """Support as explicit (word, probability) pairs, any mode."""
        if self.mode == "finitely-supported":
            return [(w, p) for w, p in self.mu if p > 0]
        out: list[tuple[ReducedWord, Fraction]] = []
        from .geometry import sphere

        for d, a in self.coefficients:
            if a == 0:
                continue
            if d == 0:
                out.append((identity(self.alphabet), a))
                continue
            shell = sphere(self.alphabet, d)
            share = a / len(shell)
            out.extend((w, share) for w in shell)
        return out


def isotropic_walk(q: int, weights: Mapping[int, Fraction | int | str]) -> WalkSpec:
    coeffs = tuple(sorted((d, Fraction(a)) for d, a in weights.items()))
    return WalkSpec(mode="isotropic", q=q, coefficients=coeffs)


def finite_walk(
    group: Alphabet, mu: Mapping[ReducedWord, Fraction | int | str]
) -> WalkSpec:
    items = tuple(sorted(((w, Fraction(p)) for w, p in mu.items()), key=lambda t: t[0].letters))
    return WalkSpec(mode="finitely-supported", group=group, mu=items)


def word_twin(spec: WalkSpec) -> WalkSpec:
    """Nearest-neighbour isotropic walk rewritten as an explicit word walk.

    The (q+1)-regular tree is the Cayley graph of q+1 order-two generators,
    so a lazy uniform step law has a word-by-word twin there.  Lets the
    generating-function machinery run on isotropic input.
    """
    if spec.mode != "isotropic" or spec.range > 1:
        raise ValidationError(
            "word twin exists only for nearest-neighbour isotropic walks"
        )
    ab = tree_alphabet(spec.q)
    cm = spec.coefficient_map
    per = cm.get(1, Fraction(0)) / (spec.q + 1)
    mu: dict[ReducedWord, Fraction] = {identity(ab): cm.get(0, Fraction(0))}
    for c in ab.letters:
        mu[word(ab, [c])] = per
    return finite_walk(ab, mu)


# ---------------------------------------------------------------------------
# Radial projection


def sphere_intersection(q: int, k: int, d: int, kp: int) -> int:
    """#\\{y : d(x,y) = d, |y| = kp\\} for any |x| = k on the (q+1)-regular tree.

    Case analysis over the depth m of the confluent x ^ y; each (k, d, kp)
    admits at most one m = (k + kp - d)/2.
    """
    if min(k, d, kp) < 0:
        return 0
    if d == 0:
        return 1 if kp == k else 0
    two_m = k + kp - d
    if two_m < 0 or two_m % 2:
        return 0
    m = two_m // 2
    if m > min(k, kp):
        return 0
    if m == k:
        # y sits below x; from the root every branch is available
        return sphere_size(q, d) if k == 0 else q**d
    t = kp - m  # descent after the climb to the confluent
    if t == 0:
        return 1
    if m == 0:
        return q**t
    return (q - 1) * q ** (t - 1)


@dataclass
class RadialChain:
    """Distance-from-root projection of an isotropic walk."""

    spec: WalkSpec

    def __post_init__(self) -> None:
        if self.spec.mode != "isotropic":
            raise ValidationError("radial projection requires isotropy")
        self.q = self.spec.q
        self._coeffs = [(d, a) for d, a in self.spec.coefficients if a > 0]

    def row(self, k: int) -> dict[int, Fraction]:
        """Exact transition probabilities from distance k."""
        return self._row(k, self._coeffs)

    def _row(self, k: int, coeffs) -> dict:
        # coeffs: the radial weights as Fractions or as floats
        out: dict = {}
        for d, a in coeffs:
            for kp in range(max(0, k - d), k + d + 1):
                n = sphere_intersection(self.q, k, d, kp)
                if n:
                    out[kp] = out.get(kp, 0) + a * n / sphere_size(self.q, d)
        return out

    def distribution_exact(self, n: int) -> list[Fraction]:
        """Distribution of |X_n| started at the root, as exact rationals."""
        for _, vec, scale in self._distributions(n, exact=True):
            pass
        return [Fraction(v, scale) for v in vec.tolist()]

    def distributions_float(self, n_max: int):
        """Float distributions of |X_n|; yields (n, vector) for n = 0..n_max.

        The banded sweep of _banded_sweep, adequate for n ~ 1e4; relative
        rounding stays tiny because every update adds nonnegative terms.
        The vector is a live buffer, only valid until the next iteration.
        """
        for n, vec, _ in self._distributions(n_max, exact=False):
            yield n, vec

    def _distributions(self, n_max: int, exact: bool):
        """Yields (n, vec, scale) for n = 0..n_max, P(|X_n| = k) = vec[k] / scale,
        from _banded_sweep over the columns of the radial chain.

        Column delta holds the transition probability from k to k + delta
        at index k.  In floats the arrays are float64 and scale is 1.
        Exact, the entries become integers over their least common
        denominator D, the arrays hold Python ints (exact in any summation
        order) and scale is D**n.
        """
        rng = self.spec.range
        kmax = n_max * rng
        coeffs = self._coeffs if exact else [(d, float(a)) for d, a in self._coeffs]
        # from distance rng on, a row is row rng shifted: for k >= max(d, 1)
        # the d-sphere about a vertex at distance k meets the root's spheres
        # by kp - k alone, so each column tail repeats one entry of row rng
        rows = [self._row(k, coeffs) for k in range(min(rng, kmax) + 1)]
        if exact:
            den = _denominator(p for row in rows for p in row.values())
            rows = [{kp: int(p * den) for kp, p in row.items()} for row in rows]
            dtype, zero, one = object, 0, 1
        else:
            den, dtype, zero, one = 1, float, 0.0, 1.0
        columns = []
        for delta in range(-rng, rng + 1):
            col = np.full(kmax + 1, zero, dtype=dtype)
            for k, row in enumerate(rows):
                if k + delta <= kmax:
                    col[k] = row.get(k + delta, zero)
            col[len(rows) : kmax + 1 - max(delta, 0)] = rows[-1].get(rng + delta, zero)
            columns.append((delta, col))
        vec = np.full(kmax + 1, zero, dtype=dtype)
        vec[0] = one
        for n, vec in _banded_sweep(columns, vec, n_max, zero):
            yield n, vec, den**n


def _banded_sweep(columns, vec, n_max: int, zero):
    """Yields (n, vector) for n = 0..n_max of a banded linear recursion.

    Step n adds col[k] * vec[k] to entry k + delta of the next vector for
    each (delta, col) in ``columns``, in that order; ``vec`` is the start
    vector, long enough that n_max steps stay inside it, and ``zero`` the
    zero of its arithmetic.  Two buffers take
    turns, and the one yielded is live, only valid until the next
    iteration.  Each buffer is zero outside its window [lo, hi) of
    nonzero entries, so a step clears the stale window left from two
    steps back and fills only the band the columns reach from the
    current one.  Once far entries underflow to exact zeros the window
    stops following them.  The skipped terms are products with exact
    zeros, and adding them changes no value, so each vector is the one a
    full-width update gives.
    """
    low = min(delta for delta, _ in columns)
    high = max(delta for delta, _ in columns)
    nxt = np.full_like(vec, zero)
    nonzero = np.flatnonzero(vec)
    lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1  # window of vec
    stale = (lo, lo)  # window of nxt
    yield 0, vec
    for n in range(1, n_max + 1):
        nxt[stale[0] : stale[1]] = zero
        for delta, col in columns:
            # conditional expressions, not max(): once per column and step
            k0 = lo if lo > -delta else -delta
            k1 = hi if hi > k0 else k0
            nxt[k0 + delta : k1 + delta] += col[k0:k1] * vec[k0:k1]
        stale = (lo, hi)
        lo, hi = _nonzero_window(nxt, max(0, lo + low), hi + high)
        vec, nxt = nxt, vec
        yield n, vec


def _nonzero_window(vec: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """Narrow [lo, hi) to the span from the first to the last nonzero entry."""
    while lo < hi and vec[lo] == 0:
        lo += 1
    while hi > lo and vec[hi - 1] == 0:
        hi -= 1
    return lo, hi


# ---------------------------------------------------------------------------
# Rank-one walks: the free group on one generator is the integer line, and
# signed displacement replaces the word table.  Dense vectors keep n ~ 1e4
# affordable where the word engine would drown in dict churn.


def _signed_length(w: ReducedWord) -> int:
    """Position on the integer line of a word over one generator."""
    return -len(w) if w.letters and w.letters[0] < 0 else len(w)


def lattice_offsets(spec: WalkSpec) -> dict[int, float]:
    """Step law of a rank-one word walk as signed displacements."""
    if spec.walk_class != "lattice":
        raise ValidationError("lattice view requires a rank-one word walk")
    out: dict[int, float] = {}
    for w, p in spec.mu:
        if p > 0:
            m = _signed_length(w)
            out[m] = out.get(m, 0.0) + float(p)
    return out


def lattice_distributions(spec: WalkSpec, n_max: int):
    """Yields (n, origin_index, vector) for a rank-one walk, n = 0..n_max.

    The banded sweep of _banded_sweep, each displacement weight a
    constant column; position m sits at index origin_index + m, and the
    vector is a live buffer, only valid until the next iteration.
    """
    steps = lattice_offsets(spec)
    half = n_max * max(-min(steps), max(steps))
    start = np.zeros(2 * half + 1)
    start[half] = 1.0
    columns = [(m, np.broadcast_to(p, start.shape)) for m, p in steps.items()]
    for n, vec in _banded_sweep(columns, start, n_max, 0.0):
        yield n, half, vec


# ---------------------------------------------------------------------------
# n-step distributions


@dataclass
class NStepResult:
    """Distribution of X_n from the root, with truncation accounting.

    ``pruned`` is total discarded mass; each reported probability p is a
    lower bound with upper bound p + pruned.
    """

    spec: WalkSpec
    n: int
    exact: bool
    radial: list | None = None
    table: dict | None = None
    pruned: Fraction | float = 0

    def probability(self, y: ReducedWord | int):
        """p^(n)(e, y); accepts a distance for isotropic walks."""
        if self.radial is not None:
            k = y if isinstance(y, int) else len(y)
            if k < 0 or k >= len(self.radial):
                return Fraction(0) if self.exact else 0.0
            return self.radial[k] / sphere_size(self.spec.q, k)
        if isinstance(y, int):
            raise ValidationError("word target required for word walks")
        zero = Fraction(0) if self.exact else 0.0
        return self.table.get(y, zero)

    def upper(self, y: ReducedWord | int):
        return self.probability(y) + self.pruned

    def pair(self, x: ReducedWord, y: ReducedWord):
        """p^(n)(x, y) by group invariance."""
        if self.radial is not None:
            return self.probability(distance(x, y))
        return self.probability(x.inverse() * y)


def nstep(
    spec: WalkSpec,
    n: int,
    *,
    exact: bool | None = None,
    prune: Fraction | float | None = None,
) -> NStepResult:
    """Distribution of X_n.  Exact rationals by default for n <= 64."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    if exact is None:
        exact = n <= EXACT_STEP_LIMIT
    if spec.mode == "isotropic":
        chain = RadialChain(spec)
        if exact:
            return NStepResult(spec, n, True, radial=chain.distribution_exact(n))
        for _, vec in chain.distributions_float(n):
            pass
        return NStepResult(spec, n, False, radial=list(vec))
    # every word walk, rank-one and nearest-neighbour ones included
    for _, table, pruned, scale in _word_laws(spec, n, exact=exact, prune=prune):
        pass
    # _reduced_product built the keys from the letters of checked words
    ab, trusted = spec.alphabet, ReducedWord._trusted
    if exact:
        table = {trusted(ab, k): Fraction(m, scale) for k, m in table.items()}
        pruned = Fraction(pruned, scale)
    else:
        table = {trusted(ab, k): mass for k, mass in table.items()}
    return NStepResult(spec, n, exact, table=table, pruned=pruned)


def _denominator(weights) -> int:
    """Least common denominator D of rational weights; a law of n steps on
    them is an integer over D**n."""
    return math.lcm(*(Fraction(w).denominator for w in weights))


def _exact_laws(spec: WalkSpec, y: ReducedWord, n_max: int) -> list[Fraction]:
    """nstep(spec, n, exact=True).probability(y) for n = 0..n_max, read off
    one sweep of its engine."""
    if spec.mode == "isotropic":
        k = len(y)
        if k > n_max * spec.range:
            return [Fraction(0)] * (n_max + 1)
        size = sphere_size(spec.q, k)
        sweep = RadialChain(spec)._distributions(n_max, exact=True)
        return [Fraction(vec[k], scale * size) for _, vec, scale in sweep]
    key = y.letters if y.alphabet == spec.alphabet else None
    sweep = _word_laws(spec, n_max, exact=True)
    return [Fraction(table.get(key, 0), scale) for _, table, _, scale in sweep]


def _word_laws(spec, n_max, *, exact=False, prune=None):
    """Yields (n, table, pruned, scale) for n = 0..n_max by convolution on
    words.

    ``table`` maps the letter tuple of each reduced word to
    p^(n)(e, word) * scale; the product x * g is taken on letter tuples,
    so no ReducedWord is built or validated inside the loop.  In floats
    scale is 1.  Exact, the step weights become integers over their least
    common denominator D, every mass is a Python int and scale is D**n.
    Entries below the prune threshold (default: none when exact,
    PRUNE_DEFAULT in floats) are dropped and their mass added to
    ``pruned``, which carries the same scale.  The table is replaced,
    never mutated, between steps.  A step whose table passes
    WORD_SUPPORT_CAP words raises ConvergenceError.
    """
    items = spec.step_items()
    if exact:
        den = _denominator(p for _, p in items)
        weights = [int(p * den) for _, p in items]
        prune = Fraction(prune or 0)
        cur, pruned = {(): 1}, 0
    else:
        den = 1
        weights = [float(p) for _, p in items]
        prune = float(PRUNE_DEFAULT if prune is None else prune)
        cur, pruned = {(): 1.0}, 0.0
    ab = spec.alphabet
    steps = [(w.letters, p) for (w, _), p in zip(items, weights)]
    scale = 1
    yield 0, cur, pruned, scale
    for n in range(1, n_max + 1):
        scale *= den
        pruned *= den
        nxt: dict[tuple[int, ...], object] = {}
        for x, mass in cur.items():
            for g, p in steps:
                y = _reduced_product(ab, x, g)
                nxt[y] = nxt.get(y, 0) + mass * p
            if len(nxt) > WORD_SUPPORT_CAP:
                raise ConvergenceError(
                    f"word convolution support passes {WORD_SUPPORT_CAP} "
                    f"words (WORD_SUPPORT_CAP) at n = {n}"
                )
        # an int mass lies below prune * scale exactly when it lies below
        # the ceiling
        threshold = math.ceil(prune * scale) if exact else prune
        if threshold:
            kept = {}
            for y, mass in nxt.items():
                if mass < threshold:
                    pruned += mass
                else:
                    kept[y] = mass
            nxt = kept
        cur = nxt
        yield n, cur, pruned, scale


# ---------------------------------------------------------------------------
# Float laws: one array of target rows per walk class


def _radial_rows(spec, targets, n_max):
    # vec[k] / |S_k| at k = |w|; a target beyond k = n_max * range reads 0
    kmax = n_max * spec.range
    at = np.minimum([len(w) for w in targets], kmax)
    out = np.zeros((len(targets), n_max + 1))
    for n, vec in RadialChain(spec).distributions_float(n_max):
        out[:, n] = vec[at]
    for i, w in enumerate(targets):
        out[i] = out[i] / sphere_size(spec.q, len(w)) if len(w) <= kmax else 0.0
    return out


def _lattice_rows(spec, targets, n_max):
    # position m sits at index half + m; a target beyond |m| = half reads 0
    half = n_max * max(map(abs, lattice_offsets(spec)))
    signed = np.array([_signed_length(w) for w in targets])
    at = np.clip(signed, -half, half) + half
    out = np.zeros((len(targets), n_max + 1))
    for n, _, vec in lattice_distributions(spec, n_max):
        out[:, n] = vec[at]
    out[np.abs(signed) > half] = 0.0
    return out


def _word_rows(spec, targets, n_max):
    keys = [w.letters for w in targets]
    out = np.zeros((len(targets), n_max + 1))
    for n, table, _, _ in _word_laws(spec, n_max):
        out[:, n] = [table.get(key, 0.0) for key in keys]
    return out


def _laws(spec: WalkSpec, targets, n_max: int) -> np.ndarray:
    """Float p^(n)(e, w) for n = 0..n_max: row 0 for w = e, row i + 1 for
    targets[i], from the engine of spec's walk class in products.route.

    A target out of reach reads 0.  Neither the sweeps nor the float Green
    series rescale, so a law below the smallest normal double raises
    ConvergenceError naming n: the return row first, then each target row
    naming its word.  A target whose first nonzero law is itself subnormal
    (a^-m with m >= 424 on the walk e 1/4, 1 9/16, -1 3/16) raises at once.
    Exact zeros forced by the walk's structure, like p^(1)(e, e) without
    holding, pass through.
    """
    if n_max < 0:
        raise ValidationError("need n_max >= 0")
    from .products import route

    words = [identity(spec.alphabet), *targets]
    laws = route(spec).laws(spec, words, n_max)
    for i, (w, row) in enumerate(zip(words, laws)):
        small = np.flatnonzero((row > 0.0) & (row < sys.float_info.min))
        if small.size:
            n = int(small[0])
            law = (
                "return probability p^(n)(e, e)" if i == 0
                else f"law p^(n)(e, w) of the target w = {format_word(w)}"
            )
            raise ConvergenceError(
                f"{law} = {float(row[n])!r} underflows "
                f"below sys.float_info.min at n = {n}"
            )
    return laws


def _return_probabilities(spec: WalkSpec, n_max: int) -> np.ndarray:
    return _laws(spec, [], n_max)[0]


# ---------------------------------------------------------------------------
# Ratio sequences and local limit fits


@dataclass
class RatioSequence:
    """Values p^(n)(x,y)/p^(n)(e,e) with simple convergence diagnostics."""

    ns: list[int]
    values: list[float]
    skipped: list[int]
    last: float
    tail_spread: float

    @property
    def cauchy_tail(self) -> float:
        tail = self.values[-max(2, len(self.values) // 10) :]
        return max(abs(a - b) for a, b in zip(tail, tail[1:])) if len(tail) > 1 else 0.0


def ratio_sequence(
    spec: WalkSpec, x: ReducedWord, y: ReducedWord, n_max: int
) -> RatioSequence:
    """Sequence p^(n)(x,y)/p^(n)(e,e) for n <= n_max.

    One array of float laws for every walk class: the radial chain for
    isotropic walks, the dense lattice vector for rank-one walks of any
    range, the float Green series of the first-passage system for other
    nearest-neighbour word walks, and truncated word convolution (only
    practical for small n_max) for the rest.  Zero-denominator entries
    are skipped and reported; a law that underflows, the return or the
    target's, raises ConvergenceError naming n.  x and y must be words
    over spec's alphabet.
    """
    if x.alphabet != spec.alphabet or y.alphabet != spec.alphabet:
        raise ValidationError("x and y must be words over the walk's alphabet")
    ret, hit = _laws(spec, [x.inverse() * y], n_max)
    usable = ret > 0.0  # p^(0)(e, e) = 1, so values is never empty
    ns, skipped = np.flatnonzero(usable).tolist(), np.flatnonzero(~usable).tolist()
    values = (hit[usable] / ret[usable]).tolist()
    tail = values[-max(2, len(values) // 10) :]
    return RatioSequence(ns, values, skipped, values[-1], max(tail) - min(tail))


@dataclass(frozen=True)
class LocalLimitFit:
    """Fit of p^(n) ~ C rho^n n^(-alpha) on a window, with a stability probe."""

    rho: float
    alpha: float
    log_c: float
    window: tuple[int, int]
    residual_rms: float
    rho_shift: float  # change in rho when the window start doubles
    alpha_shift: float


def fit_local_limit(
    values: Sequence[float], window: tuple[int, int]
) -> LocalLimitFit:
    """Least squares for log p = log C + n log rho - alpha log n.

    ``values`` is indexed by n.  The sensitivity probe refits on
    [2*lo, hi] and reports the drift of both exponents.
    """
    lo, hi = window
    if lo < 1:
        raise ValidationError(f"window {lo}:{hi} must start at n >= 1 (log n)")
    if hi > len(values):
        raise ValidationError("window exceeds available values")

    def _fit(lo_, hi_):
        ns = np.array(
            [n for n in range(lo_, hi_) if n < len(values) and values[n] > 0],
            dtype=float,
        )
        if ns.size < 8:
            raise ValidationError("window shorter than 8 usable points")
        logs = np.log(np.array([values[int(n)] for n in ns], dtype=float))
        design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
        coef, _, rank, _ = np.linalg.lstsq(design, logs, rcond=None)
        if rank < 3:
            raise ValidationError("degenerate design matrix in local limit fit")
        resid = logs - design @ coef
        return coef, float(np.sqrt(np.mean(resid**2)))

    coef, rms = _fit(lo, hi)
    try:
        coef2, _ = _fit(2 * lo, hi)
        rho_shift = float(abs(math.exp(coef2[0]) - math.exp(coef[0])))
        alpha_shift = float(abs(coef[1] - coef2[1]))
    except ValidationError:
        rho_shift = float("nan")
        alpha_shift = float("nan")
    return LocalLimitFit(
        rho=float(math.exp(coef[0])),
        alpha=float(-coef[1]),
        log_c=float(coef[2]),
        window=(lo, hi),
        residual_rms=rms,
        rho_shift=rho_shift,
        alpha_shift=alpha_shift,
    )


# ---------------------------------------------------------------------------
# Spectral radius


@dataclass(frozen=True)
class SpectralRadius:
    value: float
    method: str
    details: dict = field(default_factory=dict, compare=False)


def spectral_radius(spec: WalkSpec) -> SpectralRadius:
    """Decay rate rho = limsup p^(n)(e,e)^(1/n).

    Isotropic walks use the spherical transform, rank-one walks of any
    range the minimising exponential on the line, other nearest-neighbour
    word walks the singularity radius of the first-passage system.  The
    remaining word walks fall back on a local limit fit over 120 steps
    of pruned word convolution.
    """
    from .products import route

    return route(spec).radius(spec)


def _spherical_spectral_radius(spec: WalkSpec) -> SpectralRadius:
    from .kernels import spherical

    val = sum(float(a) * spherical(spec.q, d) for d, a in spec.coefficients)
    return SpectralRadius(val, "spherical-transform", {"q": spec.q})


def _lattice_spectral_radius(spec: WalkSpec) -> SpectralRadius:
    # rank-one free group = the integers; rho = min_c sum mu(m) e^(c m)
    mu = lattice_offsets(spec)

    def dm(c):
        return sum(m * p * math.exp(c * m) for m, p in mu.items())

    has_pos = any(m > 0 for m in mu)
    has_neg = any(m < 0 for m in mu)
    if not (has_pos and has_neg):
        raise ValidationError("lattice walk must move both ways")
    # the bracket keeps e^(c m) finite for every step length in the support
    bound = 60.0 / max(abs(m) for m in mu)
    # M is convex: bisect on the sign of M'(c) down to adjacent doubles, or
    # to an exact zero (a symmetric walk stops at c = 0.0 at once)
    lo, hi = -bound, bound
    while lo < (c_star := 0.5 * (lo + hi)) < hi:
        slope = dm(c_star)
        if slope == 0:
            break
        if slope > 0:
            hi = c_star
        else:
            lo = c_star
    rho = sum(p * math.exp(c_star * m) for m, p in mu.items())
    return SpectralRadius(rho, "lattice-exponential", {"c": c_star})


def _singularity_spectral_radius(spec: WalkSpec) -> SpectralRadius:
    from .series import shared_system

    cert = shared_system(spec).radius()
    return SpectralRadius(
        1.0 / cert.r, "singularity-radius", {"r": cert.r, "bracket": (cert.lo, cert.hi)}
    )


def _fitted_spectral_radius(spec: WalkSpec) -> SpectralRadius:
    n_max = 120
    fit = fit_local_limit(_return_probabilities(spec, n_max), (n_max // 4, n_max + 1))
    return SpectralRadius(fit.rho, "fit", {"alpha": fit.alpha})


# ---------------------------------------------------------------------------
# Text format for walk specifications
#
#   mode isotropic            |  mode finitely-supported
#   q 2                       |  rank 2
#   0 1/2                     |  e 1/5
#   1 1/2                     |  1 1/5
#                             |  -1,2 1/10   (word a1^-1 a2)


def _weight_lines(lines: list[str], parse_key) -> dict:
    weights = {}
    for ln in lines:
        key, _, val = ln.partition(" ")
        try:
            weights[parse_key(key)] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad weight line {ln!r}: {exc}") from exc
    return weights


def load_walk_spec(text: str) -> WalkSpec:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if len(lines) < 3:
        raise ValidationError("walk spec needs mode, size and weight lines")
    mode_key, _, mode_val = lines[0].partition(" ")
    if mode_key != "mode":
        raise ValidationError("first line must set the mode")
    size_key, _, size_val = lines[1].partition(" ")
    try:
        size = int(size_val)
    except ValueError as exc:
        raise ValidationError(f"bad size line {lines[1]!r}") from exc
    mode_val = mode_val.strip()
    if mode_val == "isotropic":
        if size_key != "q":
            raise ValidationError("isotropic spec needs a 'q <int>' line")
        return isotropic_walk(size, _weight_lines(lines[2:], int))
    if mode_val == "finitely-supported":
        if size_key != "rank":
            raise ValidationError("finitely supported spec needs a 'rank <int>' line")
        group = free_group(size)
        return finite_walk(
            group, _weight_lines(lines[2:], lambda key: parse_word(group, key))
        )
    raise ValidationError(f"unknown mode {mode_val!r}")


def dump_walk_spec(spec: WalkSpec) -> str:
    lines = [f"mode {spec.mode}"]
    if spec.mode == "isotropic":
        lines.append(f"q {spec.q}")
        lines.extend(f"{d} {a}" for d, a in spec.coefficients)
    else:
        lines.append(f"rank {spec.group.size}")
        lines.extend(f"{format_word(w)} {p}" for w, p in spec.mu)
    return "\n".join(lines) + "\n"
