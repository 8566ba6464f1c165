"""Permutations of {0, ..., n-1} with one-line cycle notation.

Just enough group theory for representation checks: composition,
inverse, and parsing of strings like "(0 1)(2 4)" or "()".  Each
permutation has one form: its images with trailing fixed points dropped.
"""

from __future__ import annotations

import re
from collections import namedtuple

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Perm(namedtuple("Perm", "images")):
    """A permutation stored by its tuple of images.

    Points past the end of ``images`` are fixed, and ``images`` never ends
    in a fixed point, so equal permutations are equal records:
    ``Perm((1, 0, 2)).images == (1, 0)``, and ``Perm(())`` fixes every point.
    ``images`` is a tuple of ints, not bools; ``_make`` and ``_replace``
    check it too.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, images: tuple[int, ...]):
        if not (type(images) is tuple and all(type(v) is int for v in images)):
            raise ValueError(f"images must be a tuple of ints, got {images!r}")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images!r}")
        n = len(images)
        while n and images[n - 1] == n - 1:
            n -= 1
        return super().__new__(cls, images[:n])

    def __call__(self, x: int) -> int:
        return self.images[x] if x < len(self.images) else x

    def __mul__(self, other: Perm) -> Perm:
        """Composition, other applied first; not tuple repetition."""
        n = max(len(self.images), len(other.images))
        return Perm(tuple(self(other(x)) for x in range(n)))

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


def parse_cycles(text: str) -> list[list[int]]:
    """The cycles of disjoint cycle notation; symbols are nonnegative integers."""
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
    return cycles


def perm_of_cycles(cycles) -> Perm:
    """The permutation moving each cycle's points one step along it."""
    n = max((max(cycle) + 1 for cycle in cycles if cycle), default=0)
    images = list(range(n))
    for cycle in cycles:
        for i, v in enumerate(cycle):
            images[v] = cycle[(i + 1) % len(cycle)]
    return Perm(tuple(images))


def parse_perm(text: str) -> Perm:
    """Parse disjoint cycle notation; symbols are nonnegative integers."""
    return perm_of_cycles(parse_cycles(text))
