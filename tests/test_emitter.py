"""The JSON emitter against the standard library's ``json.dumps``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floparr.arrangement import TextList, dumps

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


def text_list(items, cut):
    """A TextList of ``items``, each yielded in pieces of ``cut`` characters."""
    texts = [dumps(v)[:-1] for v in items]

    def pieces(nl):
        for text in texts:
            text = text.replace("\n", nl)
            yield tuple(text[i : i + cut] for i in range(0, len(text), cut))

    return TextList(pieces)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(values, max_size=6), st.integers(1, 9), values, st.lists(st.sampled_from(["list", "dict"]), max_size=4)
)
def test_text_list_splices_at_any_depth(items, cut, other, nesting):
    # a TextList emits the bytes of the materialised list at the depth where
    # it sits, next to plain values, and again when reused at another depth
    lazy = text_list(items, cut)
    plain, spliced = [other, items], [other, lazy]
    for kind in nesting:
        plain = [1, plain] if kind == "list" else {"k": plain, "z": [plain], "r": other}
        spliced = [1, spliced] if kind == "list" else {"k": spliced, "z": [spliced], "r": other}
    assert dumps(spliced) == reference(plain)


def test_empty_text_list():
    empty = TextList(lambda nl: iter(()))
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
    # pi1's relations: 20,000 items of about 700 B, each spliced from two
    # rendered atoms, so one buffered piece is a whole atom of about 350 B
    atoms = [{"source": i, "edges": list(range(i, i + 20))} for i in range(200)]
    texts = [dumps(atom)[:-1] for atom in atoms]
    pairs = [(i % 200, (7 * i + 1) % 200) for i in range(20000)]

    def relations(nl):
        inner = nl + "  "
        head, mid, tail = "{" + inner + '"p": ', "," + inner + '"q": ', nl + "}"
        rendered = [text.replace("\n", inner) for text in texts]
        for i, j in pairs:
            yield head, rendered[i], mid, rendered[j], tail

    chunks = []
    dumps({"relations": TextList(relations)}, chunks.append)
    assert "".join(chunks) == reference({"relations": [{"p": atoms[i], "q": atoms[j]} for i, j in pairs]})
    assert max(len(c) for c in chunks) < 1 << 20
