"""Seeded inputs: walks with exact rational weights, words, sweep sizes.

Everything here is a pure function of the workload seed (string seeds go
through ``random.Random``'s SHA-512 path, so they are stable across
processes and Python hash randomisation).  Sizes that drive the cost of
an op are spread over their range with a golden-ratio sequence started at
a seeded offset, so every run covers the whole range evenly whatever the
seed, and run-to-run differences come from the inputs, not from which
sizes a short run happened to draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import treewalks as tw

GOLDEN = 0.6180339887498949


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def spread(offset: float, k: int) -> float:
    """k-th point in [0, 1) of a golden-ratio sequence started at offset."""
    return (offset + k * GOLDEN) % 1.0


@dataclass(frozen=True)
class Walk:
    """A generated nearest-neighbour (or lattice) walk and its spec file."""

    spec: object  # treewalks.WalkSpec
    rank: int
    uniform: bool
    hold: Fraction
    path: str | None = None

    @property
    def per_letter(self) -> Fraction:
        """Letter weight of a uniform walk."""
        return (1 - self.hold) / (2 * self.rank)

    @property
    def label(self) -> str:
        return f"F{self.rank}-{'uniform' if self.uniform else 'skewed'}"


HOLDS = (Fraction(1, 10), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))


def nn_walk(rng: random.Random, rank: int, uniform: bool, hold: Fraction | None = None) -> Walk:
    """Nearest-neighbour walk on F_rank, holding probability in [1/10, 1/2].

    Skewed walks draw integer letter weights 1..5 (not all equal) and
    share the non-holding mass in proportion.  The holding probability,
    which moves the cost of the singularity bracket by up to 40%, is drawn
    from HOLDS unless the caller schedules it.
    """
    if hold is None:
        hold = rng.choice(HOLDS)
    ab = tw.free_group(rank)
    letters = ab.letters
    if uniform:
        weights = [1] * len(letters)
    else:
        weights = [1] * len(letters)
        while len(set(weights)) == 1:
            weights = [rng.randint(1, 5) for _ in letters]
    total = sum(weights)
    mu = {tw.identity(ab): hold}
    for c, wgt in zip(letters, weights):
        mu[tw.word(ab, [c])] = (1 - hold) * Fraction(wgt, total)
    return Walk(tw.finite_walk(ab, mu), rank, uniform, hold)


def lattice_walk(rng: random.Random, biased: bool) -> Walk:
    """Walk on Z = F_1: hold in [1/4, 1/2], step odds 1:1 or a seeded bias.

    The bias keeps rho >= 0.957, so p^(n)(0,0) stays near 1e-192 or above
    up to n = 10^4.  The dense lattice engine does not rescale: past the
    float64 underflow (odds 3:1 with hold 1/4 reach it near n = 8000)
    ratio-converge reads 1.0 instead of the ratio limit.
    """
    hold = Fraction(rng.randint(2, 4), 8)
    up, down = (1, 1)
    if biased:
        up, down = rng.choice([(2, 1), (3, 2), (4, 3)])
    ab = tw.free_group(1)
    move = 1 - hold
    mu = {
        tw.identity(ab): hold,
        tw.word(ab, [1]): move * Fraction(up, up + down),
        tw.word(ab, [-1]): move * Fraction(down, up + down),
    }
    return Walk(tw.finite_walk(ab, mu), 1, not biased, hold)


def write_spec(walk: Walk, directory: Path, name: str) -> Walk:
    path = directory / f"{name}.spec"
    path.write_text(tw.dump_walk_spec(walk.spec))
    return Walk(walk.spec, walk.rank, walk.uniform, walk.hold, str(path))


def reduced_letters(rng: random.Random, alphabet, length: int) -> list[int]:
    out: list[int] = []
    while len(out) < length:
        c = rng.choice(alphabet.letters)
        if out and c == alphabet.inverse_letter(out[-1]):
            continue
        out.append(c)
    return out


def end_pattern(rng: random.Random, alphabet) -> list[int]:
    """Cyclically reduced pattern of 2 or 3 letters, so repeats stay reduced."""
    while True:
        pat = reduced_letters(rng, alphabet, rng.choice((2, 3)))
        if pat[0] != alphabet.inverse_letter(pat[-1]):
            return pat


def letters_arg(letters) -> str:
    return ",".join(str(c) for c in letters) if letters else "e"
