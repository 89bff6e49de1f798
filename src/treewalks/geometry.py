"""Reduced words, tree metric, confluents, ends and horocycle indices.

Vertices of the (q+1)-regular tree are reduced words over a generator
alphabet.  Two alphabets cover all degrees: the free group F_s (letters
+-1..+-s, inverse = negation) gives the 2s-regular tree, and a free
product of m involutions (letters 1..m, each its own inverse) gives the
m-regular tree.  All word operations below work uniformly in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ValidationError

__all__ = [
    "Alphabet",
    "ReducedWord",
    "EndPrefix",
    "free_group",
    "tree_alphabet",
    "identity",
    "word",
    "parse_word",
    "format_word",
    "multiply",
    "distance",
    "confluent",
    "ultrametric",
    "horocycle",
    "sphere",
    "sphere_size",
    "ball",
]


@dataclass(frozen=True)
class Alphabet:
    """Generator alphabet; ``kind`` is 'free' or 'involutive'."""

    kind: str
    size: int  # free: rank s, involutive: number of order-2 generators

    def __post_init__(self) -> None:
        if self.kind not in ("free", "involutive"):
            raise ValidationError(f"unknown alphabet kind {self.kind!r}")
        if self.size < 1:
            raise ValidationError("alphabet needs at least one generator")
        if self.kind == "involutive" and self.size < 3:
            # degree 1 and 2 trees are covered by the free alphabets
            raise ValidationError("involutive alphabet needs >= 3 letters")

    @property
    def letters(self) -> tuple[int, ...]:
        if self.kind == "free":
            return tuple(range(1, self.size + 1)) + tuple(
                range(-1, -self.size - 1, -1)
            )
        return tuple(range(1, self.size + 1))

    @property
    def degree(self) -> int:
        """Vertex degree of the associated tree."""
        return 2 * self.size if self.kind == "free" else self.size

    @property
    def q(self) -> int:
        """Branching number: degree - 1."""
        return self.degree - 1

    def inverse_letter(self, letter: int) -> int:
        self.check_letter(letter)
        return -letter if self.kind == "free" else letter

    def check_letter(self, letter: int) -> None:
        if self.kind == "free":
            if letter == 0 or abs(letter) > self.size:
                raise ValidationError(f"letter {letter} outside alphabet")
        elif not 1 <= letter <= self.size:
            raise ValidationError(f"letter {letter} outside alphabet")


def free_group(rank: int) -> Alphabet:
    return Alphabet("free", rank)


def tree_alphabet(q: int) -> Alphabet:
    """Alphabet whose Cayley graph is the (q+1)-regular tree.

    Even degree q+1 = 2s uses the free group F_s; odd degree uses q+1
    involutive generators.  q = 1 gives the line (F_1, i.e. the integers).
    """
    if q < 1:
        raise ValidationError("q must be >= 1")
    degree = q + 1
    if degree % 2 == 0:
        return free_group(degree // 2)
    return Alphabet("involutive", degree)


@dataclass(frozen=True)
class ReducedWord:
    """A vertex of the tree: a reduced word, kept reduced by construction."""

    alphabet: Alphabet
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # one check per letter: the previous letter passed its check, so its
        # inverse is taken without inverse_letter's second one
        free = self.alphabet.kind == "free"
        prev = None
        for a in self.letters:
            self.alphabet.check_letter(a)
            if prev is not None and a == (-prev if free else prev):
                raise ValidationError(f"word {self.letters} is not reduced")
            prev = a

    @classmethod
    def _trusted(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "ReducedWord":
        """A word on letters taken from words already checked, built without
        the check."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return multiply(self, other)

    def inverse(self) -> "ReducedWord":
        if self.alphabet.kind == "free":
            letters = tuple(-a for a in reversed(self.letters))
        else:
            letters = self.letters[::-1]
        return ReducedWord._trusted(self.alphabet, letters)

    def prefix(self, length: int) -> "ReducedWord":
        if not 0 <= length <= len(self.letters):
            raise ValidationError("prefix length out of range")
        return ReducedWord._trusted(self.alphabet, self.letters[:length])


def identity(alphabet: Alphabet) -> ReducedWord:
    return ReducedWord(alphabet)


def word(alphabet: Alphabet, letters: Iterable[int]) -> ReducedWord:
    """Build a word, reducing as needed."""
    out: list[int] = []
    inv = alphabet.inverse_letter
    for a in letters:
        alphabet.check_letter(a)
        if out and out[-1] == inv(a):
            out.pop()
        else:
            out.append(a)
    return ReducedWord(alphabet, tuple(out))


def _reduced_product(
    alphabet: Alphabet, xs: tuple[int, ...], ys: tuple[int, ...]
) -> tuple[int, ...]:
    """Letters of the product of two reduced words given as letter tuples.

    The letters are taken as valid: callers pass the letters of words that
    were checked when they were built.  Only the cancellation where xs
    meets ys happens here.
    """
    free = alphabet.kind == "free"
    k = len(xs)
    for b in ys:
        if k and xs[k - 1] == (-b if free else b):
            k -= 1
        else:
            return xs[:k] + ys[len(xs) - k :]
    return xs[:k]


def multiply(x: ReducedWord, y: ReducedWord) -> ReducedWord:
    if x.alphabet != y.alphabet:
        raise ValidationError("words over different alphabets")
    return ReducedWord._trusted(
        x.alphabet, _reduced_product(x.alphabet, x.letters, y.letters)
    )


def distance(x: ReducedWord, y: ReducedWord) -> int:
    """Graph distance d(x, y) = |x^-1 y|."""
    return len(multiply(x.inverse(), y))


@dataclass(frozen=True)
class EndPrefix:
    """Finite prefix of a ray from the root; depth is explicit.

    Extending the prefix never changes the letters already present, so
    any quantity resolved from an initial segment is stable under
    deepening.  Boundary evaluations report whether they stabilised at
    the supplied depth.
    """

    word: ReducedWord

    @property
    def depth(self) -> int:
        return len(self.word)

    @property
    def alphabet(self) -> Alphabet:
        return self.word.alphabet

    def truncate(self, depth: int) -> "EndPrefix":
        return EndPrefix(self.word.prefix(depth))

    @classmethod
    def from_pattern(
        cls, alphabet: Alphabet, pattern: Iterable[int], depth: int
    ) -> "EndPrefix":
        pat = tuple(pattern)
        if not pat:
            raise ValidationError("pattern must be nonempty")
        if pat[-1] == alphabet.inverse_letter(pat[0]):
            raise ValidationError(
                f"pattern {','.join(map(str, pat))} cancels where it repeats: "
                "its last letter is the inverse of its first"
            )
        letters: list[int] = []
        while len(letters) < depth:
            letters.append(pat[len(letters) % len(pat)])
        w = ReducedWord(alphabet, tuple(letters))  # reducedness enforced here
        return cls(w)


def _common_prefix_length(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    m = 0
    for a, b in zip(u, v):
        if a != b:
            break
        m += 1
    return m


def confluent(
    v: ReducedWord | EndPrefix, w: ReducedWord | EndPrefix
) -> ReducedWord:
    """Longest common rooted prefix v ^ w.

    For two equal vertices the confluent is undefined.  When an end
    enters only through a finite prefix, the prefix must be deep enough
    to witness the divergence, otherwise the confluent is unresolved.
    """
    vw = v.word if isinstance(v, EndPrefix) else v
    ww = w.word if isinstance(w, EndPrefix) else w
    if vw.alphabet != ww.alphabet:
        raise ValidationError("words over different alphabets")
    v_is_end = isinstance(v, EndPrefix)
    w_is_end = isinstance(w, EndPrefix)
    if not v_is_end and not w_is_end and vw == ww:
        raise ValidationError("confluent undefined for v = w")
    m = _common_prefix_length(vw.letters, ww.letters)
    # Unresolved if the common part swallowed an entire prefix whose end
    # could still continue along the other argument.
    if v_is_end and m == len(vw) and (w_is_end or m < len(ww)):
        raise ValidationError("prefix too short to resolve confluent")
    if w_is_end and m == len(ww) and (v_is_end or m < len(vw)):
        raise ValidationError("prefix too short to resolve confluent")
    return vw.prefix(m)


def ultrametric(v: ReducedWord, w: ReducedWord) -> Fraction:
    """Boundary-type distance q^(-|v^w|); zero iff v = w."""
    if v == w:
        return Fraction(0)
    q = v.alphabet.q
    m = len(confluent(v, w))
    return Fraction(1, q**m) if q > 1 else Fraction(1)


def horocycle(x: ReducedWord, xi: EndPrefix, depth: int | None = None) -> int:
    """Horocycle index of x with respect to the end xi.

    Equals d(x, x^xi) - |x^xi|, the stable value of d(x, y) - |y| for
    vertices y far out on the ray.  Requires depth > |x| + |x^xi| so the
    confluent is certain.
    """
    if depth is None:
        depth = xi.depth
    if depth > xi.depth:
        raise ValidationError("requested depth exceeds materialised prefix")
    xi_d = xi.truncate(depth)
    c = confluent(x, xi_d)  # raises if unresolved
    if depth <= len(x) + len(c):
        raise ValidationError("prefix too short to resolve confluent")
    return distance(x, c) - len(c)


def sphere_size(q: int, d: int) -> int:
    """Number of vertices at distance d from a vertex of the (q+1)-regular tree."""
    if d < 0:
        raise ValidationError("d must be >= 0")
    if d == 0:
        return 1
    return (q + 1) * q ** (d - 1)


def sphere(alphabet: Alphabet, radius: int) -> list[ReducedWord]:
    """All words of length ``radius``, in lexicographic letter order."""
    if radius == 0:
        return [identity(alphabet)]
    out: list[ReducedWord] = []
    inv = alphabet.inverse_letter
    order = sorted(alphabet.letters)

    def grow(prefix: list[int]) -> None:
        if len(prefix) == radius:
            out.append(ReducedWord(alphabet, tuple(prefix)))
            return
        for a in order:
            if prefix and a == inv(prefix[-1]):
                continue
            prefix.append(a)
            grow(prefix)
            prefix.pop()

    grow([])
    return out


def ball(alphabet: Alphabet, radius: int) -> list[ReducedWord]:
    """All words of length <= radius, grouped by length."""
    out: list[ReducedWord] = []
    for d in range(radius + 1):
        out.extend(sphere(alphabet, d))
    return out


def format_word(x: ReducedWord) -> str:
    if x.is_identity:
        return "e"
    return ",".join(str(a) for a in x.letters)


def parse_word(alphabet: Alphabet, text: str) -> ReducedWord:
    """Word from comma-separated letters, e.g. '1,-2'; 'e' or '' is the identity."""
    text = text.strip()
    if text in ("e", ""):
        return identity(alphabet)
    try:
        letters = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse word {text!r}; want e.g. '1,-2'")
    return word(alphabet, letters)
