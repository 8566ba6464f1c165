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

from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .dynkin import MAX_RANK, DynkinData, positive_roots
from .errors import MixedKinds, Overflow

Root = tuple[int, ...]

# far above every arrangement the tests, demos and benchmark build (< 100)
MAX_TRANSLATES = 10**5


class Hyperplane(namedtuple("Hyperplane", "normal level")):
    """The set ``normal . x = level``; central hyperplanes have level 0."""

    __slots__ = ()

    def __new__(cls, normal: tuple[int, ...], level: int):
        if not any(normal):
            raise ValueError("hyperplane normal must be nonzero")
        return super().__new__(cls, normal, level)


class Arrangement(namedtuple("Arrangement", "dim radius hyperplanes")):
    """A finite list of hyperplanes, central or inside a box window.

    ``radius`` is None for central arrangements and the half-width of
    the open box window otherwise.  A hyperplane given twice raises
    ValueError.  Only equal ``(normal, level)`` pairs count as repeats:
    proportional copies such as ``(1,)`` and ``(2,)`` are not caught
    here, so library callers pass primitive normals, as every builder
    and ``arrangement_from_json`` do.
    """

    __slots__ = ()

    def __new__(cls, dim: int, radius: Fraction | None, hyperplanes: tuple[Hyperplane, ...]):
        if dim > MAX_RANK:
            raise Overflow(f"dim {dim} is above the cap {MAX_RANK}")
        if len(set(hyperplanes)) != len(hyperplanes):
            raise ValueError("an arrangement lists each hyperplane once")
        return super().__new__(cls, dim, radius, hyperplanes)

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
    return Arrangement(len(data.surviving), None, tuple(sorted(normals)))


def _window_top(normal, radius: Fraction) -> int:
    """Largest level whose translate meets the closed box in more than a point.

    The maximum of ``normal . x`` over the closed box is
    radius * sum|normal_i|, attained on a face whose dimension is the
    number of zero entries of the normal; levels touching the box only
    in a corner are dropped.  The levels -top..top are the translates.
    """
    span = radius * sum(abs(v) for v in normal)
    top = span.numerator // span.denominator
    if span == top and not any(v == 0 for v in normal):
        top -= 1
    return top


def build_affine(data: DynkinData, radius: Fraction) -> Arrangement:
    """Integer translates of the finite arrangement meeting the window.

    The translates are counted before any is built: Overflow when there
    would be more than ``MAX_TRANSLATES``.
    """
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("window radius must be positive")
    finite = build_finite(data)
    tops = [_window_top(h.normal, radius) for h in finite.hyperplanes]
    count = sum(2 * top + 1 for top in tops)
    if count > MAX_TRANSLATES:
        raise Overflow(f"the window holds {count} hyperplanes, more than {MAX_TRANSLATES}")
    planes = [
        Hyperplane(h.normal, k)
        for h, top in zip(finite.hyperplanes, tops)
        for k in range(-top, top + 1)
    ]
    planes.sort()
    return Arrangement(finite.dim, radius, tuple(planes))


def product_arrangement(a: Arrangement, b: Arrangement) -> Arrangement:
    """Juxtapose two arrangements of the same kind in R^{dim a + dim b}."""
    if (a.radius is None) != (b.radius is None) or a.radius != b.radius:
        raise MixedKinds(f"cannot take a product of kinds {a.radius!r} and {b.radius!r}")
    planes = [Hyperplane(h.normal + (0,) * b.dim, h.level) for h in a.hyperplanes]
    planes += [Hyperplane((0,) * a.dim + h.normal, h.level) for h in b.hyperplanes]
    planes.sort()
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
    ordered = sorted(set(planes))
    if list(planes) != list(ordered):
        raise ValueError("hyperplanes must be sorted and duplicate-free")
    return Arrangement(dim, radius, tuple(planes))


class Rendered:
    """A value's JSON text, rendered once and spliced by ``dumps`` at any depth.

    A report that repeats one value many times (an atom recurs in every
    relation of its chamber pair) renders it once instead of walking it
    at each occurrence.
    """

    __slots__ = ("nl", "text")

    def __init__(self, obj):
        self.nl, self.text = "\n", dumps(obj)[:-1]

    def at(self, nl: str) -> str:
        """The text for a value that starts on a line indented as ``nl``.

        Every line break in the text is followed by the current indent, so
        re-indenting is one replace; the last indent is kept.
        """
        if nl != self.nl:
            self.nl, self.text = nl, self.text.replace(self.nl, nl)
        return self.text


class TextList:
    """A JSON list whose items arrive as text pieces while ``dumps`` emits it.

    ``items(nl)`` yields one tuple of strings per item: the item's text,
    for an item that starts on a line indented as ``nl``, in pieces that
    ``dumps`` buffers as they are.  Entries that share rendered parts
    (each ``pi1`` relation pairs two atoms of a group) are spliced from
    those parts, and no value is built per entry.  Each ``dumps`` calls
    ``items`` anew.
    """

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


# buffered pieces per write while streaming.  A piece can be a whole
# rendered atom of a few hundred bytes (``TextList`` items), so the bound
# is kept small enough that a chunk stays at tens to a few hundred KB;
# a chunk of several MB, not the math, would set the CLI's peak RSS.
_FLUSH = 1 << 10


def _encode(value, nl, buf, write):
    """Append the JSON text of ``value`` to ``buf``, indented as ``nl``.

    A full ``buf`` is handed to ``write`` between container items.
    """
    if isinstance(value, dict):
        if not value:
            buf.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
            buf.append(sep + _quote(k) + ": ")
            _encode(v, inner, buf, write)
            sep = "," + inner
            if len(buf) > _FLUSH:
                write("".join(buf))
                buf.clear()
        buf.append(nl + "}")
    elif isinstance(value, list):
        if not value:
            buf.append("[]")
            return
        inner = nl + "  "
        if all(type(v) is int for v in value):
            buf.append("[" + inner + ("," + inner).join(map(str, value)) + nl + "]")
            return
        sep = "[" + inner
        for v in value:
            buf.append(sep)
            _encode(v, inner, buf, write)
            sep = "," + inner
            if len(buf) > _FLUSH:
                write("".join(buf))
                buf.clear()
        buf.append(nl + "]")
    elif isinstance(value, Rendered):
        buf.append(value.at(nl))
    elif isinstance(value, str):
        buf.append(_quote(value))
    elif value is None:
        buf.append("null")
    elif value is True:
        buf.append("true")
    elif value is False:
        buf.append("false")
    elif isinstance(value, int):
        buf.append(int.__repr__(value))
    elif isinstance(value, TextList):
        inner = nl + "  "
        sep = "[" + inner
        for pieces in value.items(inner):
            buf.append(sep)
            buf.extend(pieces)
            sep = "," + inner
            if len(buf) > _FLUSH:
                write("".join(buf))
                buf.clear()
        buf.append("[]" if sep[0] == "[" else nl + "]")
    else:
        raise TypeError(f"cannot emit {type(value).__name__} as JSON")


def dumps(obj, write=None):
    """The one JSON emitter: the bytes of ``json.dumps(obj, indent=2) + "\n"``.

    It takes dicts with str keys, lists, str, int, bool, None,
    ``Rendered`` text and ``TextList`` items, and raises TypeError on
    anything else.  Without ``write`` it returns the text.  With it, the
    text goes to ``write`` in chunks and is never built whole, so a report
    of any length streams in bounded memory.  A chunk holds about
    ``_FLUSH`` pieces at most, each a scalar, a key, a separator, an
    all-int list, a ``Rendered`` text or one piece of a ``TextList`` item
    (for ``pi1``, a whole rendered atom), so its size is about ``_FLUSH``
    times the largest piece.  (``json.dumps`` with an indent runs
    CPython's pure-Python encoder, several times slower.)
    """
    chunks = None
    if write is None:
        chunks = []
        write = chunks.append
    buf = []
    _encode(obj, "\n", buf, write)
    buf.append("\n")
    write("".join(buf))
    return None if chunks is None else "".join(chunks)
