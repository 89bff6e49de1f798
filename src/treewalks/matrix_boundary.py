"""Boundary kernels through first-passage matrices over vertex balls.

For a finite-range walk the Martin kernel along an end can be read off
from products of ball-to-ball passage matrices taken along the prefix.
This module builds those matrices, certifies the uniform positivity
floor that makes the products contract, and assembles the kernel as a
quotient of contracted inner products.  Everything is cross-checked in
the tests against the scalar first-passage closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, ValidationError
from .geometry import (
    Alphabet,
    EndPrefix,
    ReducedWord,
    _common_prefix_length,
    _reduced_product,
    ball,
    distance,
    format_word,
    identity,
    multiply,
    word,
)
from .kernels import KernelValue, _json_text, _prefix_label, meet_length
from .series import shared_system
from .walks import WalkSpec

__all__ = [
    "BallIndex",
    "PassageVector",
    "PassageMatrix",
    "ContractionResult",
    "ball_index",
    "lambda_z",
    "radial_passage",
    "first_passage_to_ball",
    "passage_matrix",
    "contraction_limit",
    "martin_kernel_matrix",
]

STATE_CAP = 200_000  # vertices in the state ball of one sparse solve
RADIUS_CAP = 6  # largest connecting radius ball_index tries


# ---------------------------------------------------------------------------
# Ball coordinates


@dataclass(frozen=True)
class BallIndex:
    """Coordinate system for the passage matrices of one walk.

    ``words`` enumerates the radius-``reach`` ball around the identity;
    matrix rows and columns follow this order.  ``connect_radius`` is
    the smallest radius whose ball carries a positive-probability path
    between every ordered pair of ball points without leaving it, and
    ``block_length`` is the prefix stride between consecutive ball
    centres along an end.
    """

    alphabet: Alphabet
    reach: int
    connect_radius: int
    block_length: int
    words: tuple[ReducedWord, ...]
    _pos: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "_pos", {w: i for i, w in enumerate(self.words)}
        )

    @property
    def size(self) -> int:
        return len(self.words)

    def coordinate(self, u: ReducedWord) -> int:
        try:
            return self._pos[u]
        except KeyError:
            raise ValidationError(
                f"{format_word(u)} outside the radius-{self.reach} ball"
            ) from None


def _step_pairs(spec: WalkSpec) -> list[tuple[ReducedWord, float]]:
    if spec.mode != "finitely-supported":
        raise ValidationError(
            "ball matrices need an explicit word step law; isotropic walks "
            "can pass through word_twin first"
        )
    return [(w, float(p)) for w, p in spec.step_items() if p > 0]


def ball_index(spec: WalkSpec) -> BallIndex:
    """Build the ball coordinates, auto-selecting the connecting radius.

    Candidate radii N = reach, ..., RADIUS_CAP are accepted once a breadth
    first search inside the radius-N ball reaches every ball point from
    every other one using only positive-probability steps.  The search
    runs once per walk and cap; later calls return the same index.
    """
    return _ball_index(spec, RADIUS_CAP)


@lru_cache(maxsize=None)
def _ball_index(spec: WalkSpec, cap: int) -> BallIndex:
    steps = _step_pairs(spec)
    reach = spec.range
    inner = ball(spec.alphabet, reach)
    for n in range(reach, cap + 1):
        big = set(ball(spec.alphabet, n))
        ok = True
        for start in inner:
            seen = {start}
            queue = [start]
            while queue:
                cur = queue.pop()
                for g, _ in steps:
                    nxt = multiply(cur, g)
                    if nxt in big and nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            if not all(u in seen for u in inner):
                ok = False
                break
        if ok:
            return BallIndex(
                alphabet=spec.alphabet,
                reach=reach,
                connect_radius=n,
                block_length=n + 2 * reach + 1,
                words=tuple(inner),
            )
    raise ValidationError(
        f"no connecting radius up to {cap}: the ball points do not "
        "communicate inside any candidate ball"
    )


# ---------------------------------------------------------------------------
# Positivity floor


def lambda_z(spec: WalkSpec, z: float) -> float:
    """Minimum in-ball passage weight between ball points at weight z.

    The walk is confined to the connecting ball; the floor is the
    smallest first-passage value over ordered pairs of the inner ball.
    Every passage matrix column at this z is either zero or has
    min/max ratio at least this floor.
    """
    index = ball_index(spec)
    steps = _step_pairs(spec)
    big = ball(spec.alphabet, index.connect_radius)
    pos = {w: i for i, w in enumerate(big)}
    m = len(big)
    P = np.zeros((m, m))
    for i, u in enumerate(big):
        for g, p in steps:
            v = multiply(u, g)
            j = pos.get(v)
            if j is not None:
                P[i, j] += p
    try:
        G = np.linalg.solve(np.eye(m) - z * P, np.eye(m))
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            f"confined chain not invertible at z = {z}"
        ) from None
    floor = math.inf
    for u in index.words:
        i = pos[u]
        for v in index.words:
            j = pos[v]
            f = 1.0 if i == j else G[i, j] / G[j, j]
            if f <= 0.0:
                raise ConvergenceError(
                    f"zero confined passage {format_word(u)} -> "
                    f"{format_word(v)} at z = {z}: increase N"
                )
            floor = min(floor, f)
    return floor


# ---------------------------------------------------------------------------
# First passage into a ball


@dataclass(frozen=True)
class PassageVector:
    """First-entry weights from one vertex into the ball around another.

    ``values[i]`` is the generating-function weight of paths from the
    source that first meet the target ball at centre*words[i].  On the
    sparse route ``escaped`` is the weight of the paths killed at the
    state ball's edge, which for z <= 1 bounds what the truncation loses,
    and ``steps`` is 1, the number of sparse solves; the radial and inside
    routes take 0 steps and escape nothing.
    """

    index: BallIndex
    source: ReducedWord
    center: ReducedWord
    z: float
    values: np.ndarray
    method: str
    steps: int
    escaped: float

    def support(self) -> list[tuple[ReducedWord, float]]:
        return [
            (w, float(v))
            for w, v in zip(self.index.words, self.values)
            if v > 0.0
        ]


def radial_passage(spec: WalkSpec, k: int, z: float) -> float:
    """First-passage weight across distance k for a uniform NN word walk.

    Watched from the target vertex the distance is a birth-death chain:
    one step in, degree-1 steps out, rest holding.  The one-step weight
    f is the minimal root of (deg-1) mu z f^2 - (1 - mu0 z) f + mu z;
    the quotient form below avoids the root cancellation and stays
    accurate where the discriminant vanishes.  Across distance k the
    weight is f**k.  The tests rerun this as a truncated linear system
    and against the vector fixed point.
    """
    if not spec.is_uniform_nn:
        raise ValidationError(
            "radial passage needs a uniform nearest-neighbour word walk"
        )
    if k < 0:
        raise ValidationError("need k >= 0")
    if k == 0:
        return 1.0
    deg = spec.degree
    mu_map = {w: float(p) for w, p in spec.step_items()}
    stay = mu_map.get(identity(spec.alphabet), 0.0)
    per = next(p for w, p in mu_map.items() if len(w) == 1)
    b = 1.0 - stay * z
    disc = b * b - 4.0 * (deg - 1) * per * per * z * z
    # rounding can push the discriminant a few ulp below zero right at
    # the fold; only a materially negative value means z is past it
    if disc < 0.0:
        if disc > -1e-12 * b * b:
            disc = 0.0
        else:
            raise ValidationError(
                f"radial passage undefined at z = {z}: past the singularity"
            )
    f = 2.0 * per * z / (b + math.sqrt(disc))
    return f**k


def _sparse_passage(
    spec: WalkSpec,
    index: BallIndex,
    x: ReducedWord,
    y: ReducedWord,
    z: float,
    state_radius: int,
) -> PassageVector:
    import scipy.sparse
    from scipy.sparse.linalg import spsolve

    # states and ball points are keyed by letter tuples; a vertex s lies
    # in the state ball when d(s, y) = |s| + |y| - 2 |s ^ y| <= state_radius
    ab = spec.alphabet
    steps = [(g.letters, p) for g, p in _step_pairs(spec)]
    ys = y.letters
    absorb = {_reduced_product(ab, ys, u.letters): i for i, u in enumerate(index.words)}
    states: dict[tuple[int, ...], int] = {x.letters: 0}
    rows, cols, vals = [], [], []
    arow, acol, aval = [], [], []
    leak = [0.0]
    # the flood writes each popped state's row as it goes, one product per
    # step; rows come out in pop order, each in step order, and the CSR
    # build keeps the order within a row
    queue = [x.letters]
    while queue:
        cur = queue.pop()
        i = states[cur]
        for g, p in steps:
            nxt = _reduced_product(ab, cur, g)
            j = absorb.get(nxt)
            if j is not None:
                arow.append(i)
                acol.append(j)
                aval.append(p)
                continue
            if nxt not in states:
                if (
                    len(nxt) + len(ys) - 2 * _common_prefix_length(nxt, ys)
                    > state_radius
                ):
                    leak[i] += p
                    continue
                if len(states) >= STATE_CAP:
                    raise ConvergenceError(
                        f"state ball of radius {state_radius} around "
                        f"{format_word(y)} exceeds {STATE_CAP} vertices"
                    )
                states[nxt] = len(states)
                leak.append(0.0)
                queue.append(nxt)
            rows.append(i)
            cols.append(states[nxt])
            vals.append(p)
    n = len(states)
    Q = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    A = scipy.sparse.csr_matrix((aval, (arow, acol)), shape=(n, index.size))
    # g[s] is the z-weight of paths from x to s that stay in the state
    # ball: the row of the killed chain's Green matrix, (I - zQ)^T g = e_x
    rhs = np.zeros(n)
    rhs[0] = 1.0
    g = spsolve((scipy.sparse.identity(n) - z * Q).T.tocsc(), rhs)
    if not (np.all(np.isfinite(g)) and g.min() >= 0.0):
        raise ConvergenceError(
            f"confined first-passage solve at z = {z} is not a nonnegative "
            "Green row: z lies past the singularity of the walk killed "
            f"outside the state ball of radius {state_radius}"
        )
    escaped = z * float(np.array(leak) @ g)
    return PassageVector(index, x, y, z, z * (A.T @ g), "sparse-dp", 1, escaped)


def first_passage_to_ball(
    spec: WalkSpec,
    x: ReducedWord,
    y: ReducedWord,
    z: float,
    index: BallIndex | None = None,
    state_radius: int | None = None,
    method: str = "auto",
) -> PassageVector:
    """First-entry weight vector from x into the ball around y.

    Uniform nearest-neighbour walks route through the radial chain: the
    tree forces first entry at the unique ball point facing x, so the
    vector has a single positive coordinate.  Other finite-range walks
    are killed on leaving a state ball around y (three block lengths by
    default, at least one block beyond x) and absorbed on entering the
    target ball; one sparse solve gives the exact entry weights of that
    truncated chain.  method="dp" forces the sparse solve, mostly so the
    two engines can be played against each other.

    A z that is not finite and positive raises ValidationError.  Past the
    singularity the radial route raises ValidationError (from
    radial_passage) and the sparse route ConvergenceError, as does a
    state ball over ``STATE_CAP`` vertices.
    """
    if not (z > 0 and math.isfinite(z)):
        raise ValidationError(f"z = {z} is not finite and positive")
    if index is None:
        index = ball_index(spec)
    if x.alphabet != spec.alphabet or y.alphabet != spec.alphabet:
        raise ValidationError("vertices over a different alphabet")
    if method not in ("auto", "dp"):
        raise ValidationError("method must be auto or dp")
    w = multiply(y.inverse(), x)
    if len(w) <= index.reach:
        # already inside: first entry is immediate, at x itself
        values = np.zeros(index.size)
        values[index.coordinate(w)] = 1.0
        return PassageVector(index, x, y, z, values, "inside", 0, 0.0)
    if spec.is_uniform_nn and method == "auto":
        # x = y w, so the walk first meets the ball at y w[0], len(w) - 1 edges on
        gate = index.coordinate(word(spec.alphabet, w.letters[:1]))
        values = np.zeros(index.size)
        values[gate] = radial_passage(spec, len(w) - 1, z)
        return PassageVector(index, x, y, z, values, "radial", 0, 0.0)
    radius = state_radius or 3 * index.block_length
    if distance(x, y) > radius:
        radius = distance(x, y) + index.block_length
    return _sparse_passage(spec, index, x, y, z, radius)


# ---------------------------------------------------------------------------
# Ball-to-ball matrices


@dataclass(frozen=True)
class PassageMatrix:
    """Passage weights from one ball to the next along a length-D block.

    Row u, column v holds the weight of paths from prev*u first meeting
    the next ball at next*v, in the shared coordinates of ``index``.
    Columns are all-zero or all-positive; which ones are zero is a
    geometric fact about the block, not a numerical accident.
    """

    index: BallIndex
    block: ReducedWord
    z: float
    array: np.ndarray

    def __post_init__(self):
        if len(self.block) != self.index.block_length:
            raise ValidationError(
                f"block must have length {self.index.block_length}"
            )
        for j in range(self.index.size):
            col = self.array[:, j]
            if col.max() > 0.0 and col.min() <= 0.0:
                raise ValidationError(
                    f"column {format_word(self.index.words[j])} mixes zero "
                    "and positive passage weights"
                )

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "block": format_word(self.block),
            "z": self.z,
            "ball": [format_word(w) for w in self.index.words],
            "rows": [[float(v) for v in row] for row in self.array],
        }
        return _json_text(payload)


def passage_matrix(
    spec: WalkSpec,
    block: ReducedWord,
    z: float,
    index: BallIndex | None = None,
) -> PassageMatrix:
    """Assemble the ball-to-ball matrix for one prefix block."""
    if index is None:
        index = ball_index(spec)
    arr = np.zeros((index.size, index.size))
    for i, u in enumerate(index.words):
        fpv = first_passage_to_ball(spec, u, block, z, index=index)
        arr[i, :] = fpv.values
    return PassageMatrix(index=index, block=block, z=z, array=arr)


# ---------------------------------------------------------------------------
# Contraction of matrix products


@dataclass(frozen=True)
class ContractionResult:
    direction: np.ndarray
    rate: float
    distances: tuple[float, ...]
    factors: int
    seed_gap: float


def _projected_orbit(mats, seed: np.ndarray) -> tuple[np.ndarray, list[float]]:
    v = seed / seed.sum()
    dists = []
    for a in reversed([m.array if isinstance(m, PassageMatrix) else m for m in mats]):
        nxt = a @ v
        s = nxt.sum()
        if s <= 0.0:
            raise ConvergenceError(
                "not yet contracted: a passage product annihilated the seed"
            )
        nxt = nxt / s
        dists.append(float(np.max(np.abs(nxt - v))))
        v = nxt
    return v, dists


def contraction_limit(
    mats, seeds: tuple[np.ndarray, np.ndarray] | None = None
) -> ContractionResult:
    """Common projective limit direction of a left product of matrices.

    Two strictly positive seeds are pushed through the product from the
    far end; the limit exists when their projections agree within 1e-10.
    The reported rate is the median decay ratio of successive projected
    distances (0 when the product collapses in one factor, as happens
    for nearest-neighbour blocks).
    """
    mats = list(mats)
    if not mats:
        raise ValidationError("need at least one matrix")
    size = (mats[0].array if isinstance(mats[0], PassageMatrix) else mats[0]).shape[0]
    if seeds is None:
        seeds = (np.ones(size), np.linspace(1.0, 2.0, size))
    v1, d1 = _projected_orbit(mats, np.asarray(seeds[0], dtype=float))
    v2, _ = _projected_orbit(mats, np.asarray(seeds[1], dtype=float))
    gap = float(np.max(np.abs(v1 - v2)))
    if gap > 1e-10:
        raise ConvergenceError(
            f"not yet contracted: seed directions differ by {gap:.3e} "
            f"after {len(mats)} factors"
        )
    ratios = [
        b / a for a, b in zip(d1, d1[1:]) if a > 1e-300 and b > 1e-300
    ]
    rate = float(np.median(ratios)) if ratios else 0.0
    return ContractionResult(
        direction=v1,
        rate=rate,
        distances=tuple(d1),
        factors=len(mats),
        seed_gap=gap,
    )


# ---------------------------------------------------------------------------
# The kernel itself


def _kernel_quotient(
    spec: WalkSpec,
    index: BallIndex,
    x: ReducedWord,
    u_k: ReducedWord,
    z: float,
    mats: list[PassageMatrix],
) -> float:
    w_inf = contraction_limit(mats).direction
    fb_x = first_passage_to_ball(spec, x, u_k, z, index=index).values
    fb_e = first_passage_to_ball(
        spec, identity(spec.alphabet), u_k, z, index=index
    ).values
    den = float(fb_e @ w_inf)
    if den <= 0.0:
        raise ConvergenceError(
            f"kernel denominator vanished at {format_word(u_k)}; "
            "not yet contracted"
        )
    return float(fb_x @ w_inf) / den


def martin_kernel_matrix(
    spec: WalkSpec,
    x: ReducedWord,
    xi: EndPrefix,
    z: float | None = None,
) -> KernelValue:
    """Martin kernel at an end via contracted passage-matrix products.

    The first ball centre sits beyond the confluent of x with the end
    and outside the reach of x; the remaining prefix supplies the
    matrix product whose limit direction closes the inner products.
    With enough depth for two start positions the reported error is
    their disagreement, which the start-invariance of the limit drives
    below 1e-8.
    """
    index = ball_index(spec)
    if z is None:
        if not spec.is_nearest_neighbour:
            raise ValidationError(
                "no certified singularity for this walk; pass z explicitly"
            )
        z = float(shared_system(spec).radius().r)
    d = index.block_length
    m = meet_length(x, xi)
    k = 1
    while k * d <= m or len(x) + k * d - 2 * m <= index.reach:
        k += 1
    blocks = xi.depth // d
    if blocks < k + 1:
        raise ValidationError(
            f"prefix depth {xi.depth} too short for the matrix kernel: "
            f"need at least {(k + 1) * d}"
        )
    # block j runs from centre j*d to centre (j+1)*d; a periodic end
    # repeats its blocks, so each distinct one is built once
    letters = xi.word.letters
    built: dict[tuple[int, ...], PassageMatrix] = {}
    mats = []
    for j in range(k, blocks):
        block = letters[j * d : (j + 1) * d]
        if block not in built:
            built[block] = passage_matrix(
                spec, ReducedWord(xi.alphabet, block), z, index
            )
        mats.append(built[block])
    value = _kernel_quotient(spec, index, x, xi.word.prefix(k * d), z, mats)
    if blocks >= k + 2:
        again = _kernel_quotient(
            spec, index, x, xi.word.prefix((k + 1) * d), z, mats[1:]
        )
        err = abs(value - again)
        stab = err < 1e-8
    else:
        err = math.inf
        stab = False
    return KernelValue(
        x=format_word(x),
        y_or_prefix=_prefix_label(xi),
        depth=xi.depth,
        value=value,
        error=err,
        stabilized=stab,
    )
