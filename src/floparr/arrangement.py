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

import re
import sys
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from types import FunctionType

from .dynkin import MAX_RANK, DynkinData, positive_roots
from .errors import MixedKinds, Overflow

Root = tuple[int, ...]

# far above every arrangement the tests, demos and benchmark build (< 100)
MAX_TRANSLATES = 10**5


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_printable(numbers, what: str) -> None:
    """Overflow unless ``str`` can write every int, and both terms of every
    Fraction, in ``numbers``.

    Python refuses ints of more than ``sys.get_int_max_str_digits()``
    digits (0, or a Python without the function, sets no limit); an int
    below 2**(3 * limit) is shorter than that.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for x in numbers if limit else ():
        for n in (x.numerator, x.denominator):
            if n.bit_length() > 3 * limit and abs(n) >= 10**limit:
                raise Overflow(f"{what} has a number of more than {limit} digits, too long to write")


class Hyperplane(namedtuple("Hyperplane", "normal level")):
    """The set ``normal . x = level``; central hyperplanes have level 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, normal: tuple[int, ...], level: int):
        if not any(normal):
            raise ValueError("hyperplane normal must be nonzero")
        return super().__new__(cls, normal, level)


class Arrangement(namedtuple("Arrangement", "dim radius hyperplanes")):
    """A finite list of hyperplanes, central or inside a box window.

    ``radius`` is None for central arrangements and the half-width of
    the open box window otherwise.  Every arrangement, built or loaded,
    meets one contract, and a broken rule raises ValueError: ``dim``,
    every normal entry and every level an int, not a bool; a tuple of
    Hyperplanes with tuple normals; ``dim >= 1``; a positive int or
    Fraction radius; ``dim`` entries per normal; each ``(normal, level)``
    primitive and oriented; level 0 throughout when central; and strictly
    increasing hyperplanes, each once.  A radius, normal entry or level
    too long for ``str`` to write raises Overflow.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, dim: int, radius: Fraction | None, hyperplanes: tuple[Hyperplane, ...]):
        if not _is_int(dim):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if not (radius is None or _is_int(radius) or isinstance(radius, Fraction)):
            raise ValueError(f"window radius must be an int or a Fraction, got {radius!r}")
        if dim > MAX_RANK:
            raise Overflow(f"dim {dim} is above the cap {MAX_RANK}")
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        if radius is not None and radius <= 0:
            raise ValueError(f"window radius must be positive, got {radius}")
        check_printable(() if radius is None else (radius,), "the window radius")
        if not (type(hyperplanes) is tuple and all(isinstance(h, Hyperplane) for h in hyperplanes)):
            raise ValueError(f"hyperplanes must be a tuple of Hyperplanes, got {hyperplanes!r}")
        for h in hyperplanes:
            if not (isinstance(h.normal, tuple) and all(map(_is_int, h.normal)) and _is_int(h.level)):
                raise ValueError(f"a hyperplane needs a tuple of ints and an int, got {h.normal!r} and {h.level!r}")
            if len(h.normal) != dim:
                raise ValueError(f"normal {h.normal!r} does not have {dim} entries")
            if _primitive(*h) != h:
                raise ValueError(f"normal {h.normal!r} with level {h.level} is not primitive and oriented")
            if radius is None and h.level != 0:
                raise ValueError("central arrangements have level 0 only")
        check_printable((v for h in hyperplanes for v in h.normal + (h.level,)), "a hyperplane")
        if any(a >= b for a, b in zip(hyperplanes, hyperplanes[1:])):
            raise ValueError("an arrangement lists its hyperplanes in increasing order, each once")
        return super().__new__(cls, dim, radius, hyperplanes)

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
    normals = {Hyperplane(*_primitive(sub, 0)) for sub in set(restrict_roots(data))}
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
    finite = build_finite(data)
    Arrangement(finite.dim, radius, ())  # the radius rules, before the radius is used
    tops = [_window_top(h.normal, radius) for h in finite.hyperplanes]
    count = sum(2 * top + 1 for top in tops)
    if count > MAX_TRANSLATES:
        raise Overflow(f"the window holds more than {MAX_TRANSLATES} hyperplanes")
    planes = [
        Hyperplane(h.normal, k)
        for h, top in zip(finite.hyperplanes, tops)
        for k in range(-top, top + 1)
    ]
    planes.sort()
    return Arrangement(finite.dim, radius, tuple(planes))


def product_arrangement(a: Arrangement, b: Arrangement) -> Arrangement:
    """Juxtapose two arrangements of the same kind in R^{dim a + dim b}."""
    if a.radius != b.radius:
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


# the exponent of the decimal form Fraction reads, and the text before it
_EXPONENT = re.compile(r"\s*[-+]?([\d_.]*)[eE]([-+]?[\d_]+)\s*")


def parse_radius(text) -> Fraction:
    """A window radius from an int or from a str such as "7/2", "1.5" or "1e-1".

    ``Fraction`` expands an exponent e to 10**e before anything can look
    at the result, which takes minutes for e near 10**8.  The d characters
    before the exponent move the result's length by at most d digits, so
    an |e| above the length limit of ``str`` plus d leaves a nonzero
    result too long to write: Overflow, before any expansion.  Any other
    bad text is a ValueError.
    """
    if not (isinstance(text, str) or _is_int(text)):
        raise ValueError(f'radius must be a string such as "7/2" or an integer, got {text!r}')
    limit = getattr(sys, "get_int_max_str_digits", int)()
    found = _EXPONENT.fullmatch(text) if limit and isinstance(text, str) else None
    if found and abs(int(found[2])) > limit + len(found[1]):
        raise Overflow(f"the window radius has a number of more than {limit} digits, too long to write")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad radius {text!r}") from exc


def arrangement_from_json(obj: dict) -> Arrangement:
    """Decode an arrangement, e.g. one built from a user matrix.

    Only the radius text is checked here; ``Arrangement`` checks the rest.
    """
    dim = obj["dim"]
    kind = obj["kind"]
    radius = None if kind == "central" else parse_radius(kind["affine"]["radius"])
    planes = tuple(Hyperplane(tuple(item["normal"]), item["level"]) for item in obj["hyperplanes"])
    return Arrangement(dim, radius, planes)


# buffered pieces per write while streaming, each a scalar, a key, a
# separator or an all-int list
_FLUSH = 1 << 10
# buffered characters per write inside a text list, whose yielded texts
# can each hold many entries of a few hundred bytes
_FLUSH_CHARS = 1 << 16


def _encode(value, nl, buf, write):
    """Append the JSON text of ``value`` to ``buf``, indented as ``nl``.

    A full ``buf`` is handed to ``write`` between container items.  A
    function is a text list: ``value(inner)`` yields the text of one or
    more consecutive items for a list whose items start on lines indented
    as ``inner``, the items within one text separated by ``"," + inner``.
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
    elif isinstance(value, list) and value and all(type(v) is int for v in value):
        inner = nl + "  "
        buf.append("[" + inner + ("," + inner).join(map(str, value)) + nl + "]")
    elif isinstance(value, (list, map)):
        inner = nl + "  "
        sep = "[" + inner
        for v in value:
            buf.append(sep)
            _encode(v, inner, buf, write)
            sep = "," + inner
            if len(buf) > _FLUSH:
                write("".join(buf))
                buf.clear()
        buf.append("[]" if sep[0] == "[" else nl + "]")
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
    elif isinstance(value, FunctionType):
        inner = nl + "  "
        sep = "[" + inner
        size = 0
        for text in value(inner):
            buf += sep, text
            sep = "," + inner
            size += len(text)
            if size > _FLUSH_CHARS:
                write("".join(buf))
                buf.clear()
                size = 0
        buf.append("[]" if sep[0] == "[" else nl + "]")
    else:
        raise TypeError(f"cannot emit {type(value).__name__} as JSON")


def dumps(obj, write=None):
    """The one JSON emitter: the bytes of ``json.dumps(obj, indent=2) + "\n"``.

    It takes dicts with str keys, lists, str, int, bool, None, maps and
    functions, and raises TypeError on anything else.  A ``map`` is the
    list of its items, made one at a time as they are emitted; it is read
    once, so a second ``dumps`` of it emits ``[]``.  A function is a text
    list (see ``_encode``), called anew on each ``dumps``: entries that
    share rendered parts, as ``pi1``'s relations share atoms, are spliced
    from those parts, and nothing checks the text.  Both are written as
    they are made, so an error must come before the first item:
    enumeration checks every witness, and ``pi1`` counts its relations
    before it lists them.  Without ``write`` it returns the text.  With
    it, the text goes to ``write`` in chunks and is never built whole, so
    a report of any length streams in bounded memory.  A chunk holds about
    ``_FLUSH`` pieces, each a scalar, a key, a separator or an all-int
    list, or about ``_FLUSH_CHARS`` characters of a text list plus one
    yielded text.  (``json.dumps`` with an indent runs CPython's
    pure-Python encoder, several times slower.)
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

