"""Hyperplane arrangements cut out by restricted positive roots.

Contracting the nodes in J restricts every positive root of the diagram
to the surviving coordinates J^c.  The nonzero restrictions, made
primitive and deduplicated, are the normals of a finite central
arrangement in R^{|J^c|}.  Translating each normal over the integers
and keeping the translates that meet a box window (-radius, radius)^dim
gives the affine picture.

A hyperplane is ``normal . x = level`` with a primitive integer normal
whose first nonzero entry is positive.  Arrangements keep their
hyperplanes sorted and duplicate-free, so equal inputs produce byte
identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dynkin import DynkinData, positive_roots
from .errors import MixedKinds

Root = tuple[int, ...]


@dataclass(frozen=True)
class Hyperplane:
    """The set ``normal . x = level``; central hyperplanes have level 0."""

    normal: tuple[int, ...]
    level: int

    def __post_init__(self):
        if not any(self.normal):
            raise ValueError("hyperplane normal must be nonzero")


@dataclass(frozen=True)
class Arrangement:
    """A finite list of hyperplanes, central or inside a box window.

    ``radius`` is None for central arrangements and the half-width of
    the open box window otherwise.
    """

    dim: int
    radius: Fraction | None
    hyperplanes: tuple[Hyperplane, ...]

    @property
    def is_affine(self) -> bool:
        return self.radius is not None

    def __len__(self) -> int:
        return len(self.hyperplanes)


def _primitive(normal, level):
    """Scale by a positive rational and orient the first nonzero entry up."""
    g = 0
    for v in list(normal) + [level]:
        g = gcd(g, abs(v))
    if g > 1:
        normal = tuple(v // g for v in normal)
        level = level // g
    lead = next(v for v in normal if v != 0)
    if lead < 0:
        normal = tuple(-v for v in normal)
        level = -level
    return normal, level


def restrict_roots(data: DynkinData) -> list[Root]:
    """Restrict every positive root to the surviving coordinates.

    Zero restrictions are dropped; duplicates and proportional vectors
    are kept, in the lexicographic order of the full roots.
    """
    keep = data.surviving
    out = []
    for root in positive_roots(data.delta):
        sub = tuple(root[i] for i in keep)
        if any(sub):
            out.append(sub)
    return out


def build_finite(data: DynkinData) -> Arrangement:
    """The central arrangement of restricted roots in R^{|J^c|}."""
    normals = set()
    for sub in restrict_roots(data):
        normal, level = _primitive(sub, 0)
        normals.add(Hyperplane(normal, level))
    return Arrangement(len(data.surviving), None, tuple(sorted(normals, key=lambda h: (h.normal, h.level))))


def _window_levels(normal, radius: Fraction) -> list[int]:
    """Integer levels whose translate meets the closed box in more than a point.

    The maximum of ``normal . x`` over the closed box is
    radius * sum|normal_i|, attained on a face whose dimension is the
    number of zero entries of the normal; levels touching the box only
    in a corner are dropped.
    """
    span = radius * sum(abs(v) for v in normal)
    top = span.numerator // span.denominator
    if span == top and not any(v == 0 for v in normal):
        top -= 1
    return list(range(-top, top + 1))


def build_affine(data: DynkinData, radius: Fraction) -> Arrangement:
    """Integer translates of the finite arrangement meeting the window."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("window radius must be positive")
    finite = build_finite(data)
    planes = []
    for h in finite.hyperplanes:
        for k in _window_levels(h.normal, radius):
            planes.append(Hyperplane(h.normal, k))
    planes.sort(key=lambda h: (h.normal, h.level))
    return Arrangement(finite.dim, radius, tuple(planes))


def product_arrangement(a: Arrangement, b: Arrangement) -> Arrangement:
    """Juxtapose two arrangements of the same kind in R^{dim a + dim b}."""
    if (a.radius is None) != (b.radius is None) or a.radius != b.radius:
        raise MixedKinds(f"cannot take a product of kinds {a.radius!r} and {b.radius!r}")
    planes = [Hyperplane(h.normal + (0,) * b.dim, h.level) for h in a.hyperplanes]
    planes += [Hyperplane((0,) * a.dim + h.normal, h.level) for h in b.hyperplanes]
    planes.sort(key=lambda h: (h.normal, h.level))
    return Arrangement(a.dim + b.dim, a.radius, tuple(planes))


def arrangement_to_json(arr: Arrangement) -> dict:
    kind = "central" if arr.radius is None else {"affine": {"radius": str(arr.radius)}}
    return {
        "dim": arr.dim,
        "kind": kind,
        "hyperplanes": [{"normal": list(h.normal), "level": h.level} for h in arr.hyperplanes],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def arrangement_from_json(obj: dict) -> Arrangement:
    """Load and validate an arrangement, e.g. one built from a user matrix."""
    dim = obj["dim"]
    if not _is_int(dim) or dim < 1:
        raise ValueError("dim must be a positive integer")
    kind = obj["kind"]
    if kind == "central":
        radius = None
    else:
        text = kind["affine"]["radius"]
        if not (isinstance(text, str) or _is_int(text)):
            raise ValueError(f'radius must be a string such as "7/2" or an integer, got {text!r}')
        try:
            radius = Fraction(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"bad radius {text!r}") from exc
        if radius <= 0:
            raise ValueError("window radius must be positive")
    planes = []
    for item in obj["hyperplanes"]:
        normal = tuple(item["normal"])
        level = item["level"]
        if len(normal) != dim or not all(_is_int(v) for v in normal) or not any(normal):
            raise ValueError(f"bad normal {normal!r}")
        if not _is_int(level):
            raise ValueError(f"bad level {level!r}")
        if radius is None and level != 0:
            raise ValueError("central arrangements have level 0 only")
        if _primitive(normal, level) != (normal, level):
            raise ValueError(f"normal {normal!r} is not primitive and oriented")
        planes.append(Hyperplane(normal, level))
    ordered = sorted(set(planes), key=lambda h: (h.normal, h.level))
    if list(planes) != list(ordered):
        raise ValueError("hyperplanes must be sorted and duplicate-free")
    return Arrangement(dim, radius, tuple(planes))


def dumps(obj: dict) -> str:
    """Canonical JSON rendering used for every artifact this package emits."""
    return json.dumps(obj, indent=2) + "\n"
