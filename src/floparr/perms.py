"""Permutations of {0, ..., n-1} with one-line cycle notation.

Just enough group theory for representation checks: composition,
inverse, identity, and parsing of strings like "(0 1)(2 4)" or "()".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True, eq=False)
class Perm:
    """A permutation stored by its tuple of images.

    Points past the end of ``images`` are fixed, so equality and hashing
    ignore trailing fixed points: ``Perm((1, 0)) == Perm((1, 0, 2))``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images!r}")

    @staticmethod
    def identity(degree: int) -> Perm:
        return Perm(tuple(range(degree)))

    def extend(self, degree: int) -> Perm:
        """The same permutation acting on a larger set."""
        if degree <= len(self.images):
            return self
        return Perm(self.images + tuple(range(len(self.images), degree)))

    def _trimmed(self) -> tuple[int, ...]:
        """``images`` without its trailing fixed points."""
        n = len(self.images)
        while n and self.images[n - 1] == n - 1:
            n -= 1
        return self.images[:n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self._trimmed() == other._trimmed()

    def __hash__(self) -> int:
        return hash(self._trimmed())

    def __call__(self, x: int) -> int:
        return self.images[x] if x < len(self.images) else x

    def __mul__(self, other: Perm) -> Perm:
        """Composition, other applied first."""
        degree = max(len(self.images), len(other.images))
        return Perm(tuple(self(other(x)) for x in range(degree)))

    def inverse(self) -> Perm:
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Perm(tuple(out))

    def __str__(self) -> str:
        seen = set()
        parts = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.images[x]
            parts.append("(" + " ".join(str(v) for v in cycle) + ")")
        return "".join(parts) or "()"


def parse_perm(text: str, degree: int | None = None) -> Perm:
    """Parse disjoint cycle notation; symbols are nonnegative integers."""
    if not re.fullmatch(r"[\s\d,()]*", text) or text.count("(") != text.count(")"):
        raise ValueError(f"cannot parse permutation {text!r}")
    outside = _CYCLE_RE.sub("", text).strip()
    if outside:
        raise ValueError(f"stray text {outside!r} in permutation {text!r}")
    used = set()
    cycles = []
    for body in _CYCLE_RE.findall(text):
        entries = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if used & set(entries) or len(set(entries)) != len(entries):
            raise ValueError(f"cycles are not disjoint in {text!r}")
        used.update(entries)
        cycles.append(entries)
    n = max(used) + 1 if used else 0
    if degree is not None:
        n = max(n, degree)
    images = list(range(n))
    for cycle in cycles:
        for i, v in enumerate(cycle):
            images[v] = cycle[(i + 1) % len(cycle)]
    return Perm(tuple(images))
