"""Direct and coordinate-switching products of two walks.

A direct product steps both coordinates at once, so n-step laws
factorize exactly.  The switching (cartesian) product moves one
coordinate per step, chosen by a Bernoulli(s) coin, and its n-step law
is the binomial mixture of the factor laws.  Decay parameters combine
in closed form; boundary kernels multiply coordinatewise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import series, walks
from .errors import ValidationError
from .geometry import EndPrefix, ReducedWord, format_word
from .kernels import (
    KernelValue,
    _prefix_label,
    _vertex_row,
    ratio_grid_isotropic,
    ratio_grid_nn,
    ratio_kernel_isotropic,
    ratio_kernel_nn,
)
from .series import shared_system
from .walks import WalkSpec, _signed_length, nstep, spectral_radius

__all__ = [
    "ProductWalk",
    "ProductBoundaryPoint",
    "direct_product",
    "cartesian_product",
    "factor_kernel",
    "factor_kernel_grid",
    "factor_returns",
    "factor_alpha",
    "product_ratio_kernel",
    "product_kernel_grid",
    "product_return_sequence",
    "product_nstep_pair",
    "CartesianAsymptotics",
    "cartesian_asymptotics",
    "BoundaryClasses",
    "identify_equivalent_boundary",
    "product_report",
]


@dataclass(frozen=True)
class ProductWalk:
    """Two factor walks glued either simultaneously or by a switch coin."""

    left: WalkSpec
    right: WalkSpec
    kind: str
    weight: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if self.kind not in ("direct", "cartesian"):
            raise ValidationError("kind must be direct or cartesian")
        if self.kind == "cartesian" and not 0 < self.weight < 1:
            raise ValidationError("switch weight must lie in (0, 1)")


def direct_product(left: WalkSpec, right: WalkSpec) -> ProductWalk:
    return ProductWalk(left, right, "direct")


def cartesian_product(
    left: WalkSpec, right: WalkSpec, weight: Fraction = Fraction(1, 2)
) -> ProductWalk:
    return ProductWalk(left, right, "cartesian", Fraction(weight))


@dataclass(frozen=True)
class ProductBoundaryPoint:
    """A limit direction of the product: each coordinate is a vertex or
    an end prefix, with at least one genuinely at infinity."""

    left: ReducedWord | EndPrefix
    right: ReducedWord | EndPrefix

    def __post_init__(self):
        if not isinstance(self.left, EndPrefix) and not isinstance(
            self.right, EndPrefix
        ):
            raise ValidationError(
                "a product boundary point needs at least one end coordinate"
            )


# ---------------------------------------------------------------------------
# Per-factor dispatch


def _lattice_kernel(spec: WalkSpec, x: ReducedWord, target) -> KernelValue:
    value = float(_lattice_grid(spec, [x], [target])[0, 0])
    if isinstance(target, EndPrefix):
        # the target drops out, so an end row is exact at any depth
        return KernelValue(
            format_word(x), _prefix_label(target), target.depth, value, 0.0, True
        )
    return _vertex_row(x, target, value)


def _lattice_grid(spec: WalkSpec, probes, targets) -> np.ndarray:
    # ratio limit of a one-generator word walk: the n-step law tilts by
    # the exponential that minimises the step transform, and the target
    # drops out entirely, so one spectral radius gives every row
    c = spectral_radius(spec).details["c"]
    column = np.array([math.exp(c * _signed_length(x)) for x in probes])
    return np.repeat(column[:, None], len(targets), axis=1)


def _unrouted(spec: WalkSpec, *args):
    raise ValidationError(
        "no ratio kernel or return-sequence route for this factor; need "
        "isotropic, rank-one or nearest-neighbour structure"
    )


@dataclass(frozen=True)
class Route:
    """The engines of one walk class; each field takes the arguments of the
    entry point that calls it, named beside the field."""

    laws: Callable  # walks._laws: row i holds p^(n)(e, targets[i]), n <= n_max
    radius: Callable  # walks.spectral_radius
    returns: Callable  # factor_returns
    kernel: Callable  # factor_kernel
    grid: Callable  # factor_kernel_grid


# the kernels and grids look public names up at call time, so a wrapper
# installed on this module (a tracer, a test double) sees every call
_ROUTES = {
    "radial": Route(
        walks._radial_rows,
        walks._spherical_spectral_radius,
        walks._return_probabilities,
        lambda spec, x, y: ratio_kernel_isotropic(spec, x, y),
        lambda spec, xs, ys: ratio_grid_isotropic(spec, xs, ys),
    ),
    "lattice": Route(
        walks._lattice_rows,
        walks._lattice_spectral_radius,
        walks._return_probabilities,
        _lattice_kernel,
        _lattice_grid,
    ),
    "nn": Route(
        # p^(n)(e, w) is the n-th coefficient of the Green function to w
        lambda spec, targets, n_max: series._series_rows(
            shared_system(spec), targets, n_max, False
        ),
        walks._singularity_spectral_radius,
        walks._return_probabilities,
        lambda spec, x, y: ratio_kernel_nn(shared_system(spec), x, y),
        lambda spec, xs, ys: ratio_grid_nn(shared_system(spec), xs, ys),
    ),
    "words": Route(
        walks._word_rows,
        walks._fitted_spectral_radius,
        _unrouted,
        _unrouted,
        _unrouted,
    ),
}


def route(spec: WalkSpec) -> Route:
    """The engines of spec's walk class: the one place where walk_class
    picks an engine."""
    return _ROUTES[spec.walk_class]


def factor_kernel(spec: WalkSpec, x: ReducedWord, target) -> KernelValue:
    """Ratio-limit kernel of one factor, routed by walk class."""
    return route(spec).kernel(spec, x, target)


def factor_kernel_grid(spec: WalkSpec, probes, targets) -> np.ndarray:
    """Ratio-limit kernel of one factor for every probe x (rows) and vertex
    target y (columns), with the per-walk data read once; factor_kernel
    reads a 1x1 grid."""
    return route(spec).grid(spec, probes, targets)


def factor_returns(spec: WalkSpec, n_max: int) -> np.ndarray:
    """Return probabilities p^(n)(e,e), n = 0..n_max, for one factor."""
    return route(spec).returns(spec, n_max)


def factor_alpha(spec: WalkSpec) -> float:
    """Local-limit power for one factor: 1/2 on the line, 3/2 on trees."""
    return 0.5 if spec.alphabet.q == 1 else 1.5


# ---------------------------------------------------------------------------
# Kernels on the product


def product_ratio_kernel(
    pw: ProductWalk, x_pair, target_pair
) -> KernelValue:
    """Ratio-limit kernel of the product: factor kernels multiplied.

    Holds for both product kinds; the switch weight cancels from the
    ratio.  Stabilization is the conjunction of the factor flags and
    the error bound is propagated through the product.
    """
    x1, x2 = x_pair
    if isinstance(target_pair, ProductBoundaryPoint):
        t1, t2 = target_pair.left, target_pair.right
    else:
        t1, t2 = target_pair
    k1 = factor_kernel(pw.left, x1, t1)
    k2 = factor_kernel(pw.right, x2, t2)
    value = k1.value * k2.value
    err = (
        abs(k1.value) * k2.error
        + abs(k2.value) * k1.error
        + k1.error * k2.error
    )
    depth = None
    for k in (k1, k2):
        if k.depth is not None:
            depth = k.depth if depth is None else min(depth, k.depth)
    return KernelValue(
        x=f"{k1.x}|{k2.x}",
        y_or_prefix=f"{k1.y_or_prefix}|{k2.y_or_prefix}",
        depth=depth,
        value=value,
        error=err,
        stabilized=k1.stabilized and k2.stabilized,
    )


def product_kernel_grid(pw: ProductWalk, probes, targets) -> np.ndarray:
    """product_ratio_kernel(pw, x, y).value for every probe pair x (rows)
    and vertex pair y (columns).

    Each factor grid covers the distinct words of its coordinate; an entry
    is the one multiply of product_ratio_kernel, g1[x1, y1] * g2[x2, y2].
    """

    def gathered(spec: WalkSpec, side: int) -> np.ndarray:
        row = {w: i for i, w in enumerate(dict.fromkeys(x[side] for x in probes))}
        col = {w: j for j, w in enumerate(dict.fromkeys(y[side] for y in targets))}
        grid = factor_kernel_grid(spec, list(row), list(col))
        return grid[
            np.ix_([row[x[side]] for x in probes], [col[y[side]] for y in targets])
        ]

    return gathered(pw.left, 0) * gathered(pw.right, 1)


# ---------------------------------------------------------------------------
# n-step laws


def product_nstep_pair(pw: ProductWalk, n: int, y1: ReducedWord, y2: ReducedWord):
    """Exact n-step probability of reaching (y1, y2) from the origin pair.

    Each factor law comes from nstep in exact rationals: the radial chain
    for isotropic factors, word convolution for the others.
    """
    left, right = pw.left, pw.right
    if pw.kind == "direct":
        p1 = nstep(left, n, exact=True).probability(y1)
        p2 = nstep(right, n, exact=True).probability(y2)
        return p1 * p2
    s = pw.weight
    total = Fraction(0)
    for k in range(n + 1):
        p1 = nstep(left, k, exact=True).probability(y1)
        if p1 == 0:
            continue
        p2 = nstep(right, n - k, exact=True).probability(y2)
        if p2 == 0:
            continue
        total += math.comb(n, k) * s**k * (1 - s) ** (n - k) * p1 * p2
    return total


def product_return_sequence(pw: ProductWalk, n_max: int) -> np.ndarray:
    """Return probabilities of the product walk, n = 0..n_max.

    Direct products multiply termwise.  Switching products mix the
    factor sequences binomially; the mixture runs in log space since
    the summands span hundreds of orders of magnitude by n ~ 10^3.
    Every per-k gather is a slice, forward or reversed, of an array
    built once per call, and each row sums with _logsumexp, the 1-d
    path of scipy.special.logsumexp without its array-API dispatch.
    """
    from scipy.special import gammaln

    r1 = factor_returns(pw.left, n_max)
    r2 = factor_returns(pw.right, n_max)
    if pw.kind == "direct":
        return r1 * r2
    s = float(pw.weight)
    with np.errstate(divide="ignore"):
        l1 = np.log(r1)
        l2 = np.log(r2)
    out = np.zeros(n_max + 1)
    out[0] = 1.0
    lg = gammaln(np.arange(n_max + 2))
    ks = np.arange(n_max + 1)
    heads = ks * math.log(s)  # heads[k] = k log s
    tails = ks * math.log(1.0 - s)  # tails[j] = j log(1 - s)
    for n in range(1, n_max + 1):
        # the terms for k = 0..n, in the order lg[n + 1] - lg[k + 1]
        # - lg[n - k + 1] + k log s + (n - k) log(1 - s) + l1[k] + l2[n - k]
        terms = (
            lg[n + 1]
            - lg[1 : n + 2]
            - lg[n + 1 : 0 : -1]
            + heads[: n + 1]
            + tails[n::-1]
            + l1[: n + 1]
            + l2[n::-1]
        )
        finite = terms[np.isfinite(terms)]
        out[n] = math.exp(_logsumexp(finite)) if finite.size else 0.0
    return out


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a nonempty 1-d array of finite floats.

    Step for step the algorithm of scipy.special.logsumexp (Blanchard,
    Higham & Higham, IMA J. Numer. Anal. 41, 2021), so the result is
    bit for bit the same: the maxima are taken out of the sum and
    counted, the rest is shifted, exponentiated and summed, and the
    log is log1p(sum / m) + log(m) + max.  Called once per mixture row,
    scipy's own function spends about two thirds of the loop's time in
    its array-API dispatch.
    """
    a_max = a.max()
    at_max = a == a_max
    shifted = np.exp(a - a_max)
    shifted[at_max] = 0.0  # exp(-inf): scipy sets the maxima to -inf
    m = np.float64(np.count_nonzero(at_max))
    total = shifted.sum()
    if total != 0:
        total = total / m
    return np.log1p(total) + np.log(m) + a_max


# ---------------------------------------------------------------------------
# Asymptotics of the switching product


@dataclass(frozen=True)
class CartesianAsymptotics:
    rho: float
    alpha: float
    coefficient: float
    theta: float


def cartesian_asymptotics(
    pw: ProductWalk,
    fit1: tuple[float, float],
    fit2: tuple[float, float],
) -> CartesianAsymptotics:
    """Combine factor decay fits (rho_i, alpha_i) for the switching product.

    The coin splits time in proportion theta = s rho1 / rho; the decay
    rate interpolates linearly, the powers add, and the constant picks
    up theta^alpha1 (1-theta)^alpha2.
    """
    if pw.kind != "cartesian":
        raise ValidationError("asymptotics combination is for cartesian kind")
    rho1, alpha1 = fit1
    rho2, alpha2 = fit2
    s = float(pw.weight)
    rho = s * rho1 + (1.0 - s) * rho2
    theta = s * rho1 / rho
    coeff = theta**alpha1 * (1.0 - theta) ** alpha2
    return CartesianAsymptotics(
        rho=rho, alpha=alpha1 + alpha2, coefficient=coeff, theta=theta
    )


# ---------------------------------------------------------------------------
# Boundary identification at probe resolution


@dataclass(frozen=True)
class BoundaryClasses:
    """Partition of candidate boundary pairs by kernel agreement.

    Certifies distinctness exactly and sameness only at the given probe
    resolution and tolerance.
    """

    classes: tuple[tuple[int, ...], ...]
    tol: float
    probe_count: int

    def class_of(self, i: int) -> int:
        for c, members in enumerate(self.classes):
            if i in members:
                return c
        raise ValidationError(f"candidate {i} not in any class")


def identify_equivalent_boundary(
    pw: ProductWalk, candidates, probes
) -> BoundaryClasses:
    """Group candidate boundary pairs whose kernels agree on all probes.

    Candidates join the first earlier class whose value vector matches
    within relative tolerance 1e-7 at every probe; input order fixes the
    outcome, keeping reports deterministic.  No probes tell nothing apart,
    so an empty probe list raises ValidationError.
    """
    if not probes:
        raise ValidationError("identify_equivalent_boundary needs at least one probe; "
                              "the probe list is empty")
    vectors = [
        np.array([product_ratio_kernel(pw, probe, cand).value for probe in probes])
        for cand in candidates
    ]
    tol = 1e-7
    return BoundaryClasses(
        classes=_greedy_classes(vectors, tol), tol=tol, probe_count=len(probes)
    )


def _greedy_classes(vectors, tol: float) -> tuple:
    """Each vector joins the first class whose representative matches it
    within relative tol everywhere, else founds a new class.

    A representative that matches everywhere matches at the last entry, so
    a vector is compared with every representative at that one entry, and
    in full only with those that pass; the lowest full match is its class.
    The last entry, because a ball lists e first and H(e, y) = 1 there
    tells no two targets apart.  The vectors need at least one entry.
    """
    vectors = np.asarray(vectors, dtype=float)
    reps = np.empty_like(vectors)
    scales = np.empty_like(vectors)
    classes: list[list[int]] = []
    for i, vec in enumerate(vectors):
        n = len(classes)
        near = np.flatnonzero(np.abs(vec[-1] - reps[:n, -1]) / scales[:n, -1] <= tol)
        if near.size:
            gaps = np.max(np.abs(vec - reps[near]) / scales[near], axis=1)
            hits = near[gaps <= tol]
            if hits.size:
                classes[hits[0]].append(i)
                continue
        reps[n] = vec
        scales[n] = np.maximum(np.abs(vec), 1e-300)
        classes.append([i])
    return tuple(tuple(c) for c in classes)


# ---------------------------------------------------------------------------
# Reporting


def product_report(pw: ProductWalk, classes: BoundaryClasses | None = None) -> dict:
    """JSON-ready summary: factor parameters, combined asymptotics, classes."""
    fits = [(spectral_radius(f).value, factor_alpha(f)) for f in (pw.left, pw.right)]
    payload: dict = {
        "schema": 1,
        "kind": pw.kind,
        "factors": [{"rho": rho, "alpha": alpha} for rho, alpha in fits],
    }
    if pw.kind == "cartesian":
        payload["weight"] = float(pw.weight)
        payload["combined"] = asdict(cartesian_asymptotics(pw, fits[0], fits[1]))
    else:
        payload["combined"] = {
            "rho": fits[0][0] * fits[1][0],
            "alpha": fits[0][1] + fits[1][1],
        }
    if classes is not None:
        payload["classes"] = [list(c) for c in classes.classes]
        payload["class_tol"] = classes.tol
    return payload
