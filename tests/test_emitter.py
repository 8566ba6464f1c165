"""The JSON emitter against the standard library's ``json.dumps``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floparr.arrangement import dumps
from floparr.galleries import path_text

# quotes, backslashes, control characters, non-ASCII and astral characters
# next to plain ones, so that every escaping rule of json.dumps is hit
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u20ac\u2028\U0001f600 ab'
text = st.text(alphabet=st.sampled_from(SPECIAL) | st.characters(), max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | text
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(text, inner, max_size=6),
    max_leaves=20,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(values)
def test_bytes_equal_json_dumps(obj):
    assert dumps(obj) == reference(obj)
    chunks = []
    assert dumps(obj, chunks.append) is None
    assert "".join(chunks) == reference(obj)


def test_empty_and_int_only_containers():
    for obj in ({}, [], [[]], {"a": {}}, [1, -2, 10**30], [True, 1], [1, None], {"": [0]}):
        assert dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [1.5, [0.0], {"x": Fraction(1, 2)}, {(1, 2): 3}, {1: "int key"}, (1, 2), [b"bytes"], {"s": {1, 2}}],
    ids=["float", "float in list", "Fraction", "tuple key", "int key", "tuple", "bytes", "set"],
)
def test_other_types_raise(obj):
    with pytest.raises(TypeError):
        dumps(obj)
    with pytest.raises(TypeError):
        dumps(obj, lambda chunk: None)


def test_streams_in_bounded_chunks():
    report = {"relations": [{"p": {"source": i, "edges": [i, i + 1]}, "q": [str(i)]} for i in range(20000)]}
    chunks = []
    dumps(report, chunks.append)
    whole = "".join(chunks)
    assert whole == reference(report)
    assert len(chunks) >= 5
    assert max(len(c) for c in chunks) < len(whole) // 4


def text_list(items, run):
    """A text list of ``items``: a function yielding texts of ``run`` items each."""
    texts = [dumps(v)[:-1] for v in items]

    def runs(nl):
        rendered = [text.replace("\n", nl) for text in texts]
        for i in range(0, len(rendered), run):
            yield ("," + nl).join(rendered[i : i + run])

    return runs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(values, max_size=6), st.integers(1, 4), values, st.lists(st.sampled_from(["list", "dict"]), max_size=4)
)
def test_text_list_splices_at_any_depth(items, run, other, nesting):
    # a text list emits the bytes of the materialised list at the depth where
    # it sits, next to plain values, and again when reused at another depth
    lazy = text_list(items, run)
    plain, spliced = [other, items], [other, lazy]
    for kind in nesting:
        plain = [1, plain] if kind == "list" else {"k": plain, "z": [plain], "r": other}
        spliced = [1, spliced] if kind == "list" else {"k": spliced, "z": [spliced], "r": other}
    assert dumps(spliced) == reference(plain)


@settings(max_examples=60, deadline=None)
@given(st.lists(values, max_size=6), values, st.lists(st.sampled_from(["list", "dict"]), max_size=4))
def test_map_emits_its_items_at_any_depth(items, other, nesting):
    # a map emits the bytes of the list it yields, next to plain values; it
    # is read once, so each place it appears gets a fresh one
    def nest(leaf, kinds):
        if not kinds:
            return [other, leaf()]
        if kinds[0] == "list":
            return [1, nest(leaf, kinds[1:])]
        return {"k": nest(leaf, kinds[1:]), "z": [nest(leaf, kinds[1:])], "r": other}

    def fresh():
        return map(lambda v: v, items)

    assert dumps(nest(fresh, nesting)) == reference(nest(lambda: items, nesting))
    read = fresh()
    assert dumps(read) == reference(items)
    assert dumps(read) == "[]\n"


def test_empty_text_list():
    def empty(nl):
        return iter(())

    assert dumps(empty) == "[]\n"
    assert dumps({"a": empty, "b": [empty, 1]}) == reference({"a": [], "b": [[], 1]})


def test_text_list_streams_in_bounded_chunks():
    items = [{"p": {"source": i, "edges": [i, i + 1]}, "q": [str(i)]} for i in range(20000)]
    chunks = []
    dumps({"relations": text_list(items, 7)}, chunks.append)
    whole = "".join(chunks)
    assert whole == reference({"relations": items})
    assert len(chunks) >= 5
    assert max(len(c) for c in chunks) < len(whole) // 4


def test_text_list_of_atoms_streams_in_small_chunks():
    # pi1's relations: each group's atoms rendered once by path_text, and
    # one text per atom holding its entries with every later atom of the
    # group, so one yielded text can hold over a hundred entries of about 700 B
    atoms = [{"source": i % 7, "edges": list(range(i, i + 20))} for i in range(360)]
    groups = [atoms[i : i + 120] for i in range(0, 360, 120)]

    def relations(nl):
        inner = nl + "  "
        head, mid, tail = "{" + inner + '"p": ', "," + inner + '"q": ', nl + "}"
        for group in groups:
            texts = [path_text(atom["source"], atom["edges"], inner) for atom in group]
            for i, p in enumerate(texts[:-1], 1):
                yield head + p + mid + (tail + "," + nl + head + p + mid).join(texts[i:]) + tail

    chunks = []
    dumps({"relations": relations}, chunks.append)
    pairs = [{"p": p, "q": q} for group in groups for i, p in enumerate(group) for q in group[i + 1 :]]
    assert "".join(chunks) == reference({"relations": pairs})
    assert max(len(c) for c in chunks) < 1 << 18


@settings(max_examples=100, deadline=None)
@given(st.integers(), st.lists(st.integers(min_value=0), max_size=5), st.integers(0, 4))
def test_path_text_is_the_path_as_dumps_renders_it(source, edges, depth):
    nl = "\n" + "  " * depth
    path = {"source": source, "edges": edges}
    assert path_text(source, tuple(edges), nl) == dumps(path)[:-1].replace("\n", nl)
