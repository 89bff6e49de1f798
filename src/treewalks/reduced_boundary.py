"""Targets the ratio kernel cannot tell apart, and the subgroup they form.

Two targets are equivalent when H(x, .) agrees on them for every probe
x.  The set equivalent to the identity is a subgroup; collapsing a
kernel table along the classes gives the reduced picture.  Everything
here is a finite-resolution certificate: a candidate ball, a probe
ball, and a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import ball, format_word
from .kernels import KernelTable, _json_text
from .products import (
    ProductWalk,
    _greedy_classes,
    factor_kernel_grid,
    product_kernel_grid,
)
from .walks import WalkSpec

__all__ = ["EquivalenceReport", "detect_R_mu", "reduced_kernel_table"]


@dataclass(frozen=True)
class EquivalenceReport:
    """Finite-resolution partition of candidate targets by kernel agreement.

    ``member_indices`` points at the candidates indistinguishable from
    the identity; this certifies membership at the stated resolution
    only, never triviality of the full subgroup.
    """

    candidate_radius: int
    probe_radius: int
    tol: float
    labels: tuple[str, ...]
    deviations: tuple[float, ...]
    classes: tuple[tuple[int, ...], ...]
    member_indices: tuple[int, ...]
    inverse_closed: bool
    certificate: str

    def members(self) -> list[str]:
        return [self.labels[i] for i in self.member_indices]

    def class_of(self, label: str) -> int:
        i = self.labels.index(label)
        for c, group in enumerate(self.classes):
            if i in group:
                return c
        raise ValidationError(f"{label} not in any class")

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "candidate_radius": self.candidate_radius,
            "probe_radius": self.probe_radius,
            "tol": self.tol,
            "labels": list(self.labels),
            "deviations": list(self.deviations),
            "classes": [list(c) for c in self.classes],
            "members": self.members(),
            "inverse_closed": self.inverse_closed,
            "certificate": self.certificate,
        }
        return _json_text(payload)


def _single_walk_grid(spec: WalkSpec, candidate_radius: int, probe_radius: int):
    cands = ball(spec.alphabet, candidate_radius)
    grid = factor_kernel_grid(spec, ball(spec.alphabet, probe_radius), cands)
    labels = [format_word(y) for y in cands]
    inverses = {format_word(y): format_word(y.inverse()) for y in cands}
    return grid, labels, inverses


def _product_grid(pw: ProductWalk, candidate_radius: int, probe_radius: int):
    def pairs(radius: int) -> list:
        # vertex pairs whose lengths add up to at most the radius
        left, right = ball(pw.left.alphabet, radius), ball(pw.right.alphabet, radius)
        return [(u, v) for u in left for v in right if len(u) + len(v) <= radius]

    cands = pairs(candidate_radius)
    grid = product_kernel_grid(pw, pairs(probe_radius), cands)

    def lab(pair):
        return f"{format_word(pair[0])}|{format_word(pair[1])}"

    labels = [lab(y) for y in cands]
    inverses = {
        lab(y): lab((y[0].inverse(), y[1].inverse())) for y in cands
    }
    return grid, labels, inverses


def detect_R_mu(
    walk: WalkSpec | ProductWalk,
    candidate_radius: int = 4,
    probe_radius: int = 4,
    tol: float = 1e-6,
) -> EquivalenceReport:
    """Scan a candidate ball for targets kernel-equivalent to the identity.

    Each candidate y gets max over probes x of the relative gap between
    H(x, y) and H(x, e); candidates below tol are reported members and
    the member set is spot-checked for closure under inversion, the
    cheap half of the subgroup axioms.

    H is read from a kernel grid, one float64 array H[probe, candidate]
    per factor built once from the walk's invariants (a product gathers
    its two factor grids and multiplies them).  The grids are the only
    implementation of a finite-target kernel value: factor_kernel and
    product_ratio_kernel read 1x1 grids, so a report and a kernel table
    carry the same floats.
    """
    if min(candidate_radius, probe_radius) < 0:
        raise ValidationError("candidate and probe radii must be >= 0")
    if not tol >= 0:
        raise ValidationError(f"need tolerance tol >= 0, got tol = {tol!r}")
    if isinstance(walk, ProductWalk):
        grid, labels, inverses = _product_grid(walk, candidate_radius, probe_radius)
    else:
        grid, labels, inverses = _single_walk_grid(
            walk, candidate_radius, probe_radius
        )
    base = grid[:, :1]
    scale = np.maximum(np.abs(base), 1e-300)
    deviations = np.max(np.abs(grid - base) / scale, axis=0).tolist()
    member_indices = tuple(
        i for i, d in enumerate(deviations) if d <= tol
    )
    member_labels = {labels[i] for i in member_indices}
    scanned = set(labels)
    inverse_closed = all(
        inverses[labels[i]] not in scanned
        or inverses[labels[i]] in member_labels
        for i in member_indices
    )
    n_extra = len(member_indices) - 1
    if n_extra == 0:
        certificate = (
            f"no non-identity member in ball {candidate_radius} "
            f"at tolerance {tol}"
        )
    else:
        certificate = (
            f"{n_extra} non-identity members in ball {candidate_radius} "
            f"at tolerance {tol}"
        )
    return EquivalenceReport(
        candidate_radius=candidate_radius,
        probe_radius=probe_radius,
        tol=tol,
        labels=tuple(labels),
        deviations=tuple(deviations),
        classes=_greedy_classes(grid.T, tol),
        member_indices=member_indices,
        inverse_closed=inverse_closed,
        certificate=certificate,
    )


def reduced_kernel_table(
    report: EquivalenceReport, table: KernelTable, tol: float | None = None
) -> KernelTable:
    """Collapse a kernel table along the report's target classes.

    Rows whose target belongs to a class are replaced by one row per
    (source, class), carrying the class representative's label.  Rows
    with targets outside the report pass through untouched.
    """
    if tol is None:
        tol = report.tol
    label_to_class: dict[str, int] = {}
    for c, group in enumerate(report.classes):
        for i in group:
            label_to_class[report.labels[i]] = c
    kept = []
    groups: dict[tuple[str, int], list] = {}
    order: list[tuple[str, int]] = []
    for row in table.rows:
        c = label_to_class.get(row.y_or_prefix)
        if c is None:
            kept.append(row)
            continue
        key = (row.x, c)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out_rows = []
    for key in order:
        rows = groups[key]
        values = [r.value for r in rows]
        spread = max(values) - min(values)
        limit = tol * max(1.0, max(abs(v) for v in values))
        if spread > limit:
            raise ValidationError(
                f"kernel values for x = {key[0]} spread {spread:.3e} across "
                f"class {key[1]}: classes were computed at a coarser tolerance"
            )
        rep = rows[0]
        rep_label = report.labels[report.classes[key[1]][0]]
        out_rows.append(
            type(rep)(
                x=rep.x,
                y_or_prefix=rep_label,
                depth=rep.depth,
                value=rep.value,
                error=rep.error,
                stabilized=rep.stabilized,
            )
        )
    out_rows.extend(kept)
    meta = dict(table.meta)
    meta["reduced_classes"] = len(report.classes)
    meta["reduced_tol"] = tol
    return KernelTable(kind=table.kind + "-reduced", rows=out_rows, meta=meta)
