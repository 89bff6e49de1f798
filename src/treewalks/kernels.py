"""Ratio-limit and Martin kernels, eigenfunction checks, and Green comparisons.

Two kernel families live here.  Isotropic tree walks get kernels through
the radial eigenfunction of the plain step operator; nearest-neighbour
word walks get them through first-passage products and the square-root
expansion data of their generating functions, read in closed form off the
null vectors of the fold.  Boundary readings always carry an error
estimate (distance of the finite reading at the prefix word from the limit
value) and a stabilization flag (the limit computed from the prefix
truncated by four letters must agree).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, astuple, dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from mpmath import mp

from .errors import ConvergenceError, ValidationError
from .geometry import (
    EndPrefix,
    ReducedWord,
    _common_prefix_length,
    ball,
    confluent,
    format_word,
    word,
)
from .walks import WalkSpec
from .series import FirstPassageSystem

__all__ = [
    "KernelValue",
    "KernelTable",
    "spherical",
    "plain_tree_rho",
    "meet_length",
    "ratio_kernel_isotropic",
    "martin_kernel_nn",
    "ratio_kernel_nn",
    "PlainTreeRows",
    "verify_t_harmonic",
    "doob_green_decay",
    "radial_fold",
    "AnconaReport",
    "ancona_harnack_check",
]

STABILIZE_TOL = 1e-9  # depth-d vs depth-(d-4) agreement for boundary flags


# ---------------------------------------------------------------------------
# Radial eigenfunction


def spherical(q: int, n: int) -> float:
    """Radial eigenfunction of the plain tree step operator, value 1 at 0.

    q = 1 degenerates to the two-regular tree (the integer line), where
    the eigenfunction is constant.
    """
    if q < 1:
        raise ValidationError("need q >= 1")
    if n < 0:
        raise ValidationError("need n >= 0")
    if q == 1:
        return 1.0
    return (1.0 + n * (q - 1) / (q + 1)) * q ** (-n / 2)


def plain_tree_rho(q: int) -> float:
    """Norm of the plain (non-lazy) uniform step operator on the tree."""
    if q < 1:
        raise ValidationError("need q >= 1")
    return 2.0 * math.sqrt(q) / (q + 1)


# ---------------------------------------------------------------------------
# Kernel rows and tables


@dataclass(frozen=True)
class KernelValue:
    x: str
    y_or_prefix: str
    depth: int | None
    value: float
    error: float
    stabilized: bool


@dataclass
class KernelTable:
    kind: str
    rows: list
    meta: dict

    COLUMNS = ("x", "y_or_prefix", "depth", "value", "error", "stabilized")

    def to_csv(self) -> str:
        return _csv_text(self.COLUMNS, (astuple(row) for row in self.rows))

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "kind": self.kind,
            "meta": self.meta,
            "rows": [asdict(row) for row in self.rows],
        }
        return _json_text(payload)


def _json_text(payload: dict) -> str:
    """The one JSON layout of every report: sorted keys, one trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n"


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else value


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV layout of every report: a header line, then one line per
    row; floats print as repr, booleans as true/false, None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _prefix_label(xi: EndPrefix) -> str:
    return format_word(xi.word) + "..."


def _finite_row(*fields) -> KernelValue:
    """A kernel row; a value that is not finite raises ConvergenceError."""
    row = KernelValue(*fields)
    if not math.isfinite(row.value):
        raise ConvergenceError(f"kernel value at x = {row.x}, target "
                               f"{row.y_or_prefix} is {row.value!r}, not finite")
    return row


def _vertex_row(x: ReducedWord, y: ReducedWord, value) -> KernelValue:
    """Row of a vertex target.  A grid entry is stored as a Python float, so
    its repr in a report is the bare number."""
    return _finite_row(format_word(x), format_word(y), None, float(value), 0.0, True)


def _end_row(x: ReducedWord, xi: EndPrefix, limit, finite: float) -> KernelValue:
    """Boundary row from limit(m), a function of the confluent length m.

    The error column is the distance of the finite reading at the prefix
    word from the limit; the limit read from the prefix cut by four
    letters must agree for the stabilized flag.
    """
    value = limit(meet_length(x, xi))
    try:
        m4 = meet_length(x, xi.truncate(max(xi.depth - 4, 0)))
        stab = abs(limit(m4) - value) <= STABILIZE_TOL
    except ValidationError:
        stab = False
    return _finite_row(
        format_word(x), _prefix_label(xi), xi.depth, value, abs(finite - value), stab
    )


# ---------------------------------------------------------------------------
# Meet of a vertex with an end prefix


def meet_length(x: ReducedWord, xi: EndPrefix) -> int:
    """Length of the confluent of x with the end behind the prefix.

    Resolvable when the agreement stops before the prefix runs out, or
    when x itself lies on the prefix; otherwise ValidationError.
    """
    return len(confluent(x, xi))


# ---------------------------------------------------------------------------
# Isotropic kernels


def ratio_kernel_isotropic(spec: WalkSpec, x: ReducedWord, target) -> KernelValue:
    """Ratio-limit kernel of an isotropic tree walk.

    Finite target: the 1x1 ratio_grid_isotropic entry.  EndPrefix target:
    the boundary limit, exponential in the horocycle index; the grid entry
    at the prefix word supplies the error column, and truncating the
    prefix by four letters must leave the limit unchanged for the
    stabilized flag.
    """
    if isinstance(target, EndPrefix):
        finite = float(ratio_grid_isotropic(spec, [x], [target.word])[0, 0])
        q = spec.q

        def limit(m):  # exponential in the horocycle index len(x) - 2m
            return float(q) ** (-(len(x) - 2 * m) / 2.0)

        return _end_row(x, target, limit, finite)
    return _vertex_row(x, target, ratio_grid_isotropic(spec, [x], [target])[0, 0])


def ratio_grid_isotropic(spec: WalkSpec, probes, targets) -> np.ndarray:
    """Finite-target ratio kernel of an isotropic tree walk, for every probe
    row x and vertex column y: the radial eigenfunction ratio
    phi(d(x, y)) / phi(|y|).

    Both eigenfunction values come from one table indexed by distance,
    d(x, y) = |x| + |y| - 2k with k the cancelled letters.  This is the
    only implementation of the finite value; ratio_kernel_isotropic reads
    a 1x1 grid.
    """
    if spec.mode != "isotropic":
        raise ValidationError("radial projection requires isotropy")
    reach = max(map(len, probes)) + max(map(len, targets))
    phi = [spherical(spec.q, n) for n in range(reach + 1)]
    for y in targets:
        if phi[len(y)] == 0.0:
            raise ConvergenceError(
                f"ratio kernel to target {format_word(y)} divides by "
                f"phi({len(y)}), which underflows to 0 at q = {spec.q}"
            )
    grid = np.empty((len(probes), len(targets)))
    for i, x in enumerate(probes):
        grid[i] = [
            phi[len(x) + len(y) - 2 * _common_prefix_length(x.letters, y.letters)]
            / phi[len(y)]
            for y in targets
        ]
    return grid


# ---------------------------------------------------------------------------
# Nearest-neighbour word-walk kernels


def _passage_product(values: dict, letters: Iterable[int]) -> float:
    out = 1.0
    for c in letters:
        out *= values[c]
    return out


def _passage_quotient(values: dict, up, down, x: ReducedWord, target) -> float:
    """Passage product over the letters up divided by the one over down; a
    divisor that underflows to 0 raises ConvergenceError naming x and the
    target, a vertex or an EndPrefix."""
    divisor = _passage_product(values, down)
    if divisor == 0.0:
        end = isinstance(target, EndPrefix)
        label = _prefix_label(target) if end else format_word(target)
        raise ConvergenceError(
            f"kernel at x = {format_word(x)}, target {label} divides by a "
            "first-passage product that underflows to 0"
        )
    return _passage_product(values, up) / divisor


def _nn_values_at(system: FirstPassageSystem, t: float) -> Mapping[int, float]:
    """Letter first-passage values at z = 1/t, the result's read-only floats:
    solved below the radius bracket, read off the fold inside it and refused
    above it.  The bracket widens by four ulps, as 1/t rounds r when t = 1/r."""
    if not (math.isfinite(t) and t > 0):
        raise ValidationError(f"need a finite time-scale t > 0, got t = {t!r}")
    cert = system.radius()
    z = 1.0 / t
    slack = 4 * math.ulp(cert.hi)
    if z > cert.hi + slack:
        raise ValidationError(
            f"Martin kernel needs t at or above the walk's decay rate; "
            f"t = {t!r} puts 1/t beyond the singularity"
        )
    point = system.fold() if z >= cert.lo - slack else system.solve(z)
    return point.floats


def _end_quotient(values: dict, x: ReducedWord, xi: EndPrefix, m: int) -> float:
    """Boundary quotient for a confluent of length m: the passage product
    from x down to the confluent over the one from e out to it."""
    down = x.inverse().letters[: len(x) - m]
    return _passage_quotient(values, down, xi.word.letters[:m], x, xi)


def martin_kernel_nn(
    system: FirstPassageSystem, x: ReducedWord, target, t: float
) -> KernelValue:
    """Martin kernel of a nearest-neighbour word walk at time-scale t.

    Quotient of first-passage products evaluated at 1/t.  On a tree the
    quotient telescopes, so the boundary value is reached as soon as the
    prefix resolves the confluent.  The error column of an end row is the
    float gap between the quotient read at the prefix word and the limit:
    rounding only, and no bound on the value's error.
    """
    values = _nn_values_at(system, t)

    def finite(w: ReducedWord) -> float:
        path = (x.inverse() * w).letters
        return _passage_quotient(values, path, w.letters, x, target)

    if isinstance(target, EndPrefix):
        wy = target.word
        return _end_row(
            x, target, lambda m: _end_quotient(values, x, target, m), finite(wy)
        )
    return _vertex_row(x, target, finite(target))


def ratio_kernel_nn(system: FirstPassageSystem, x: ReducedWord, target) -> KernelValue:
    """Ratio-limit kernel of a nearest-neighbour word walk.

    Finite target: the 1x1 ratio_grid_nn entry.  EndPrefix target: the
    boundary limit, which matches the Martin kernel at the decay rate;
    the grid entry at the prefix word fills the error column.
    """
    if isinstance(target, EndPrefix):
        finite = float(ratio_grid_nn(system, [x], [target.word])[0, 0])
        base = martin_kernel_nn(system, x, target, 1.0 / float(system.fold().r))
        return replace(base, error=abs(finite - base.value))
    return _vertex_row(x, target, ratio_grid_nn(system, [x], [target])[0, 0])


def ratio_grid_nn(system: FirstPassageSystem, probes, targets) -> np.ndarray:
    """Finite-target ratio kernel of a nearest-neighbour word walk, for every
    probe row x and vertex column y, with the fold values and gamma table
    read once.

    An entry is the quotient of square-root coefficients of the Green
    functions, (P(x^-1 y) / P(y)) * G(x^-1 y) / G(y): P multiplies the
    letters' first-passage values at the fold, and G adds the letters'
    gammas to the Green gamma of the closed-form gamma table
    (FirstPassageSystem.gamma_table, from the fold's null vectors).  The
    word x^-1 y is the first |x| - k letters of x^-1 followed by y[k:], k
    the cancelled letters.

    The targets are read off one prefix tree, a node per (parent node,
    letter) with parents first; inserting a node fills in its passage
    product and gamma sum for x = e, the column's P(y) and G(y).  Each row
    keeps the running passage products (from 1.0) and gamma sums over
    x^-1.  A node at depth d on x's path takes them after |x| - d letters,
    and every other node is its parent's product times its letter's value
    and its parent's sum plus its letter's gamma.  So an entry chains
    x^-1's first |x| - k letters and then y[k:], left to right, one letter
    per node.  This is the only implementation of the finite value;
    ratio_kernel_nn reads a 1x1 grid.
    """
    values = system.fold().floats
    gammas = system.gamma_table()
    # node 0 is e; node j > 0 hangs off parent[j] by a letter with value
    # value[j] and gamma gamma[j]; p_e, g_e are its products for x = e
    child: dict[tuple[int, int], int] = {}
    parent, value, gamma = [0], [1.0], [0.0]
    p_e, g_e = [1.0], [gammas["green"]]
    columns = []
    for y in targets:
        node = 0
        for c in y.letters:
            nxt = child.get((node, c))
            if nxt is None:
                nxt = child[node, c] = len(parent)
                parent.append(node)
                value.append(values[c])
                gamma.append(gammas[c])
                p_e.append(p_e[node] * values[c])
                g_e.append(g_e[node] + gammas[c])
            node = nxt
        columns.append((node, p_e[node], g_e[node]))
    size = len(parent)
    p_at, g_at = [0.0] * size, [0.0] * size
    grid = np.empty((len(probes), len(targets)))
    for i, x in enumerate(probes):
        n = len(x)
        passage, total = [1.0], [gammas["green"]]
        for c in x.inverse().letters:
            passage.append(passage[-1] * values[c])
            total.append(total[-1] + gammas[c])
        path = [0]
        for c in x.letters:
            node = child.get((path[-1], c))
            if node is None:
                break
            path.append(node)
        for d, node in enumerate(path):
            p_at[node], g_at[node] = passage[n - d], total[n - d]
        # path nodes ascend, so the nodes between two of them are off the
        # path and come after their parents
        for a, b in zip(path, path[1:] + [size]):
            for j in range(a + 1, b):
                q = parent[j]
                p_at[j] = p_at[q] * value[j]
                g_at[j] = g_at[q] + gamma[j]
        grid[i] = [(p_at[j] / p_y) * g_at[j] / g_y for j, p_y, g_y in columns]
    return grid


# ---------------------------------------------------------------------------
# Eigenfunction checks
#
# Sources are either a WalkSpec or any object exposing .alphabet and
# .row(x) -> [(y, p)].  The row form admits transition laws that fall
# outside the WalkSpec invariants, like the plain (periodic) tree step.


@dataclass(frozen=True)
class PlainTreeRows:
    """Pointwise row map of the plain uniform neighbour step on the tree."""

    q: int

    @property
    def alphabet(self):
        from .geometry import tree_alphabet

        return tree_alphabet(self.q)

    def row(self, x: ReducedWord) -> list:
        from fractions import Fraction

        ab = self.alphabet
        p = Fraction(1, self.q + 1)
        return [(x * word(ab, [c]), p) for c in ab.letters]


def _row_source(source):
    if isinstance(source, WalkSpec):
        items = source.step_items()

        def row(x: ReducedWord) -> list:
            return [(x * g, p) for g, p in items]

        return source.alphabet, row
    return source.alphabet, source.row


def verify_t_harmonic(
    source, f: Callable[[ReducedWord], object], t, radius: int = 3
) -> float:
    """Max relative harmonicity residual of f over the ball of given radius.

    f must be defined out to radius plus the walk's range.
    """
    alphabet, row = _row_source(source)
    worst = 0.0
    for x in ball(alphabet, radius):
        target = t * f(x)
        resid = abs(float(sum(p * f(y) for y, p in row(x)) - target) / float(target))
        worst = max(worst, resid)
    return worst


# ---------------------------------------------------------------------------
# Scalar radial fold and the Dirichlet-decay table


def radial_fold(q: int) -> tuple:
    """Fold point of the plain tree walk's radial first-passage function.

    One unknown: F = z/(q+1) + z q F^2/(q+1).  Newton on (F, z) with the
    quadratic's double-root condition appended; no closed form consumed.
    Returns (z_at_fold, F_at_fold, Green_at_fold) as mpf at 120 bits.
    """
    if q < 2:
        raise ValidationError("need q >= 2; the line is recurrent")
    with mp.workprec(120):
        qq = mp.mpf(q)
        Fv, z = mp.mpf("0.5"), mp.mpf("1.1")
        tol = mp.mpf(2) ** -100  # 20 bits short of the working precision
        for _ in range(200):
            g1 = z / (qq + 1) + z * qq / (qq + 1) * Fv * Fv - Fv
            g2 = 2 * z * qq / (qq + 1) * Fv - 1
            if max(abs(g1), abs(g2)) <= tol:
                break
            a11 = 2 * z * qq / (qq + 1) * Fv - 1
            a12 = (1 + qq * Fv * Fv) / (qq + 1)
            a21 = 2 * z * qq / (qq + 1)
            a22 = 2 * qq * Fv / (qq + 1)
            det = a11 * a22 - a12 * a21
            if det == 0:
                raise ConvergenceError("radial fold refinement hit a singular step")
            dF = (g1 * a22 - g2 * a12) / det
            dz = (g2 * a11 - g1 * a21) / det
            Fv, z = Fv - dF, z - dz
        else:
            raise ConvergenceError("radial fold refinement did not converge")
        green = 1 / (1 - z * Fv)
        return z, Fv, green


def doob_green_decay(q: int, radii: Iterable[int]) -> list:
    """Green values at argument 1 of the eigenfunction-conjugated walk.

    Checks that the spherical function f is t-harmonic for the plain step
    on the ball of radius 3, then uses the conjugation of n-step kernels:
    the n-step law of the conjugated chain is the base law times
    f(y)/(t^n f(x)), so its Green value at 1 is the base Green value at the
    fold, divided by f.  Radial first-passage multiplicativity supplies the
    base values.
    """
    t = plain_tree_rho(q)
    resid = verify_t_harmonic(PlainTreeRows(q), lambda v: spherical(q, len(v)), t)
    if resid > 1e-12:
        raise ValidationError(
            f"spherical function is not t-harmonic for q = {q} "
            f"(residual {resid:.3g})"
        )
    z, Fv, green = radial_fold(q)
    out = []
    for k in radii:
        if k < 0:
            raise ValidationError("need radius >= 0")
        base = float(Fv ** k * green)
        out.append((k, base / spherical(q, k)))
    return out


# ---------------------------------------------------------------------------
# Green-comparison report


@dataclass(frozen=True)
class AnconaReport:
    z_values: tuple
    distances: tuple
    triple_min: float
    triple_max: float
    triple_green_gap: float  # |triple * G(z) - 1|: 0.0, the forms cancel
    per_distance_spread: tuple  # (distance, max/min - 1) pairs, all 0.0
    harnack_max: float
    quadruple_max: float
    samples: int


def ancona_harnack_check(
    system: FirstPassageSystem,
    n_pairs: int = 20,
    distances: Sequence[int] = (4, 6, 8, 10),
    seed: int = 0,
) -> AnconaReport:
    """Green-comparison constants of a nearest-neighbour word walk, in
    closed form at z = 1, (1 + r_lo)/2 and r_lo.

    Green functions factor over letters, G(x, y | z) = F(x^-1 y) G(z) with
    F the product of the letters' first-passage values and G(z) =
    G(e, e | z).  So for w on the geodesic from e to y, G(e,y)/(G(e,w)G(w,y))
    is 1/G(z) at every distance, a one-step ratio G(e,y)/G(c,y) is F_c(z)
    or its inverse, and the cross-ratio of boundary-separated quadruples is
    1.  The report gives the extremes of 1/G(z), the largest of F_c(z) and
    1/F_c(z) over z and c, and 0.0 for the triple's gap from 1/G(z), its
    spread at each distance and the cross-ratio's distance from 1.
    samples counts the n_pairs triples per distance and z that the forms
    cover; seed draws nothing.  A walk over one generator has no
    quadruples and is refused, as are no pairs and a distance below 2.
    """
    if n_pairs < 1 or not distances or min(distances) < 2:
        raise ValidationError("ancona check needs n_pairs >= 1 and distances >= 2")
    ab = system.spec.alphabet
    letters = system.letters
    if set(letters) <= {letters[0], ab.inverse_letter(letters[0])}:
        raise ValidationError(
            "ancona_harnack_check needs a letter off the first letter's axis "
            "for its boundary-separated quadruples; this alphabet has none"
        )
    cert = system.radius()
    z_values = (1.0, 0.5 * (1.0 + cert.lo), cert.lo)
    solves = [system.solve(z) for z in z_values]
    triples = [1.0 / float(sol.green) for sol in solves]
    growth = [max(f, 1.0 / f) for sol in solves for f in sol.floats.values()]
    return AnconaReport(
        z_values=z_values,
        distances=tuple(distances),
        triple_min=min(triples),
        triple_max=max(triples),
        triple_green_gap=0.0,
        per_distance_spread=tuple((n, 0.0) for n in sorted(set(distances))),
        harnack_max=max(growth),
        quadruple_max=0.0,
        samples=len(z_values) * len(distances) * n_pairs,
    )
