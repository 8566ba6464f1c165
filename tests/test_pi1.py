import random
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from floparr import (
    BaseMismatch,
    BoundaryContactWarning,
    CheckReport,
    GroupoidEquality,
    GroupoidWord,
    MissingEdgeAssignment,
    NonComposable,
    Overflow,
    Perm,
    PositivePath,
    atom_counts,
    atom_groups,
    atoms,
    base_chamber,
    check_representation,
    crossing_homomorphism,
    enumerate_chambers,
    equal_in_groupoid,
    generators,
    loop_word,
    parse_perm,
    path_target,
    product_arrangement,
    relation_count,
    rewrite_rules,
    separating_set,
    word_concat,
    word_end,
    word_from_json,
    word_inverse,
    word_of_path,
    word_to_json,
)
from floparr import pi1

from helpers import affine_graph, central, central_graph


def _s3_assignment(g):
    # send the wall crossings of the three lines to the transpositions
    # of S3 acting on three letters
    perms = {0: parse_perm("(0 1)"), 1: parse_perm("(1 2)"), 2: parse_perm("(0 2)")}
    return {e.id: perms[e.hyperplane] for e in g.edges}


def _pairs(g, length_cap=None):
    # the relations: each pair of atoms of each group, in order
    return [(p, q) for group in atom_groups(g, length_cap) for p, q in combinations(group, 2)]


def test_base_chamber_is_all_positive():
    g = central_graph("A2:J={}")
    assert g.chamber(base_chamber(g)).signs == (1, 1, 1)


def test_word_algebra():
    g = central_graph("A2:J={}")
    p = atoms(g, 0, 5)[0]
    w = word_of_path(p)
    assert w.base == 0
    assert word_end(g, w) == 5
    inv = word_inverse(g, w)
    assert word_end(g, inv) == 0
    both = word_concat(g, w, inv)
    assert word_end(g, both) == 0
    assert len(both.letters) == 6


@pytest.mark.parametrize("base, letter", [(0, (4, 7)), (2, (1, 0))], ids=["sign 7", "sign 0"])
def test_letters_with_a_bad_sign_are_rejected(base, letter):
    # A1 in a 5/2 window: edge 4 runs 2 -> 0 and edge 1 runs 0 -> 2, so
    # read backwards each letter starts at its base; (4, 7) counted as
    # 7 crossings of one hyperplane
    g = affine_graph("A1:J={}", Fraction(5, 2))
    word = GroupoidWord(base, (letter,))
    with pytest.raises(NonComposable):
        word_end(g, word)
    with pytest.raises(NonComposable):
        crossing_homomorphism(g, word)


@pytest.mark.parametrize(
    "eid, letter",
    [(1, (True, 1)), (0, (0, True)), (0, ("0", 1)), (0, (1.0, 1)), (0, (0, 1, 2))],
    ids=["bool edge", "bool sign", "str edge", "float edge", "three items"],
)
def test_letters_must_be_pairs_of_ints(eid, letter):
    # from the start of edge eid, (True, 1) walked edge 1 and (0, True)
    # read as sign +1; the others raised a bare TypeError or ValueError
    g = affine_graph("A1:J={}", Fraction(5, 2))
    with pytest.raises(NonComposable):
        word_end(g, GroupoidWord(g.edges[eid].source, (letter,)))


def test_word_concat_checks_the_second_word():
    g = affine_graph("A1:J={}", Fraction(5, 2))
    with pytest.raises(NonComposable):
        word_concat(g, GroupoidWord(0, ((0, 1),)), GroupoidWord(1, ((99, 1),)))


def test_single_line_generators():
    # base chamber has one wall, one atom to each chamber
    g = central_graph("A1:J={}")
    gens = generators(g)
    assert len(gens) == 2
    assert sorted(len(x.loop.letters) for x in gens) == [2, 4]
    for x in gens:
        assert word_end(g, x.loop) == 0


def test_a2_generator_count_and_order():
    g = central_graph("A2:J={}")
    gens = generators(g)
    # 6 chambers x 2 walls, with the far chamber contributing two atoms
    assert len(gens) == 14
    assert all(word_end(g, x.loop) == base_chamber(g) for x in gens)
    # ordering: chamber id ascending, then atom, then wall
    order = [(x.atom.edges, x.wall) for x in gens]
    targets = []
    for x in gens:
        end = x.atom.source
        for eid in x.atom.edges:
            end = g.edges[eid].target
        targets.append(end)
    assert targets == sorted(targets)


def test_loop_word_shape():
    g = central_graph("A2:J={}")
    p = atoms(g, 0, 1)[0]
    w = loop_word(g, p, 0)
    assert len(w.letters) == 2 * len(p) + 2
    assert word_end(g, w) == 0
    signs = [s for _, s in w.letters]
    assert signs == [1] * (len(p) + 2) + [-1] * len(p)
    with pytest.raises(NonComposable):
        loop_word(g, PositivePath(0, (g.out_edges(1)[0].id,)), 0)


def test_a2_relation_count():
    g = central_graph("A2:J={}")
    rels = _pairs(g)
    assert len(rels) == 6
    for p, q in rels:
        assert p.source == q.source
        assert len(p.edges) == len(q.edges)


def test_relation_length_cap():
    g = central_graph("A2:J={}")
    assert _pairs(g, length_cap=2) == []
    assert len(_pairs(g, length_cap=3)) == 6


def test_affine_line_has_no_relations():
    g = affine_graph("A1:J={}", Fraction(5, 2))
    assert _pairs(g) == []


def test_generators_skip_boundary_atoms():
    g = affine_graph("A1:J={}", Fraction(5, 2))
    with pytest.warns(BoundaryContactWarning):
        gens = generators(g)
    for x in gens:
        assert not g.chamber(x.atom.source).boundary


def test_crossing_homomorphism_concat():
    g = central_graph("A2:J={}")
    p = word_of_path(atoms(g, 0, 5)[0])
    q = word_inverse(g, p)
    total = crossing_homomorphism(g, word_concat(g, p, q))
    assert total == (0, 0, 0)
    single = crossing_homomorphism(g, p)
    assert sorted(single) == [1, 1, 1]


def test_loops_cross_twice():
    # every generator loop crosses its wall net twice, others net zero
    for g in (central_graph("A1:J={}"), central_graph("A2:J={}")):
        for x in generators(g):
            nu = crossing_homomorphism(g, x.loop)
            expected = tuple(2 if h == x.wall else 0 for h in range(len(g.arrangement)))
            assert nu == expected


def test_loops_cross_twice_affine():
    g = affine_graph("A1:J={}", Fraction(5, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContactWarning)
        gens = generators(g)
    assert gens
    for x in gens:
        nu = crossing_homomorphism(g, x.loop)
        assert nu == tuple(2 if h == x.wall else 0 for h in range(len(g.arrangement)))


def test_symmetric_group_representation_passes():
    g = central_graph("A2:J={}")
    report = check_representation(g, _s3_assignment(g), atom_groups(g))
    assert isinstance(report, CheckReport)
    assert report.ok
    assert report.checked == 6
    assert report.failures == ()


def test_corrupted_representation_fails():
    g = central_graph("A2:J={}")
    assignment = _s3_assignment(g)
    assignment[0] = parse_perm("(0 1 2)")
    groups = list(atom_groups(g))
    report = check_representation(g, assignment, groups)
    assert not report.ok
    assert report.failures == (0, 2, 4)
    again = check_representation(g, assignment, groups)
    assert again.failures == report.failures


def test_check_ignores_permutation_degree():
    # regression: the identity as (0, 1, 2) on one edge used to compare
    # unequal to (0, 1) elsewhere and report failures (0, 2, 4)
    g = central_graph("A2:J={}")
    assert Perm((0, 1, 2)) == Perm((0, 1)) == Perm(())
    assignment = {e.id: Perm((0, 1)) for e in g.edges}
    assignment[0] = Perm((0, 1, 2))
    assert check_representation(g, assignment, atom_groups(g)).failures == ()


def test_perm_equality_ignores_trailing_fixed_points():
    assert Perm((0, 1)) == Perm((0, 1, 2)) == Perm(())
    assert parse_perm("(0 1)") != parse_perm("(1 2)")
    assert len({Perm(tuple(range(n))) for n in range(4)}) == 1


def test_perm_images_drop_trailing_fixed_points():
    # one form per permutation, so equal permutations are equal tuples
    assert Perm((1, 0, 2)).images == (1, 0)
    assert (parse_perm("(0 1)") * parse_perm("(0 1)")).images == ()
    assert parse_perm("(3)").images == ()


def test_missing_edge_assignment():
    g = central_graph("A2:J={}")
    assignment = _s3_assignment(g)
    del assignment[3]
    with pytest.raises(MissingEdgeAssignment):
        check_representation(g, assignment, atom_groups(g))


def test_extra_edge_assignment():
    # a table for another graph used to pass whenever it also covered
    # every edge of this one
    g = central_graph("A2:J={}")
    assignment = _s3_assignment(g)
    assignment[999] = assignment[-5] = Perm(())
    with pytest.raises(MissingEdgeAssignment, match="no edge 999 in this graph"):
        check_representation(g, assignment, atom_groups(g))


def _parent_relations(graph, length_cap=None):
    # the relations as one nested loop, before atoms were grouped by pair
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContactWarning)
        for source in graph.chambers:
            for target in graph.chambers:
                length = len(separating_set(graph, source.id, target.id))
                if length < 2 or (length_cap is not None and length > length_cap):
                    continue
                found = atoms(graph, source.id, target.id)
                for i in range(len(found)):
                    for j in range(i + 1, len(found)):
                        out.append((found[i], found[j]))
    return out


def _parent_fold(assignment, path):
    # check_representation's fold before memoising: one relation side at
    # a time, later edges acting last
    values = [assignment[eid] for eid in path.edges]
    out = values[0]
    for v in values[1:]:
        out = v * out
    return out


GROUPOID_GRAPHS = {
    "A2": lambda: central_graph("A2:J={}"),
    "A3": lambda: central_graph("A3:J={}"),
    "D4:J={0,2}": lambda: central_graph("D4:J={0,2}"),
    "A2xA1": lambda: enumerate_chambers(product_arrangement(central("A2:J={}"), central("A1:J={}"))),
    "A2 window 3/2": lambda: affine_graph("A2:J={}", "3/2"),
}


@pytest.mark.parametrize("name", sorted(GROUPOID_GRAPHS))
def test_relations_match_nested_loop(name):
    g = GROUPOID_GRAPHS[name]()
    for cap in (None, 3):
        assert _pairs(g, length_cap=cap) == _parent_relations(g, cap)
        for found in atom_groups(g, cap):
            assert len(found) >= 2
            assert len({(p.source, path_target(g, p), len(p)) for p in found}) == 1


COUNT_GRAPHS = {
    "A2": lambda: central_graph("A2:J={}"),
    "A3": lambda: central_graph("A3:J={}"),
    "A3:J={1}": lambda: central_graph("A3:J={1}"),
    "D4:J={0,2}": lambda: central_graph("D4:J={0,2}"),
    "A2 window 3/2": lambda: affine_graph("A2:J={}", "3/2"),
    "D4:J={0,2} window 1": lambda: affine_graph("D4:J={0,2}", 1),
}


@pytest.mark.parametrize("cap", [None, 3], ids=["uncapped", "length cap 3"])
@pytest.mark.parametrize("name", sorted(COUNT_GRAPHS))
def test_atom_counts_match_atoms(name, cap):
    # the DP count against the atoms listed for every ordered pair, and the
    # relation count against the pairs of those listings
    g = COUNT_GRAPHS[name]()
    total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContactWarning)
        for s in g.chambers:
            listed = {t.id: atoms(g, s.id, t.id) for t in g.chambers}
            expected = {t: len(found) for t, found in listed.items() if cap is None or len(found[0]) <= cap}
            assert atom_counts(g, s.id, cap) == expected
            total += sum(comb(n, 2) for n in expected.values())
    assert relation_count(g, cap) == total == len(_pairs(g, cap))


def test_relation_count_caps(monkeypatch):
    # A3 has 4152 relations, and 16 atoms join each pair of opposite chambers
    g = central_graph("A3:J={}")
    assert relation_count(g) == 4152
    monkeypatch.setattr(pi1, "MAX_RELATIONS", 4151)
    with pytest.raises(Overflow, match="more than 4151 relations"):
        relation_count(g)
    monkeypatch.setattr(pi1, "MAX_RELATIONS", 4152)
    assert relation_count(g) == 4152
    monkeypatch.setattr(pi1, "DEFAULT_ATOM_CAP", 15)
    with pytest.raises(Overflow, match="more than 15 atoms from 0 to "):
        relation_count(g)


def _tables(g, seed):
    # seeded non-abelian tables: random images in S4, and a satisfying
    # table (powers of a 5-cycle per hyperplane) with one edge swapped
    # for a transposition
    rng = random.Random(seed)
    s4 = {e.id: Perm(tuple(rng.sample(range(4), 4))) for e in g.edges}
    power = {h: rng.randrange(1, 5) for h in range(len(g.arrangement))}
    satisfying = {e.id: Perm(tuple((x + power[e.hyperplane]) % 5 for x in range(5))) for e in g.edges}
    violating = dict(satisfying)
    violating[rng.choice(g.edges).id] = parse_perm("(0 1)")
    return {"s4": s4, "satisfying": satisfying, "violating": violating}


@pytest.mark.parametrize("name", sorted(GROUPOID_GRAPHS))
def test_check_matches_per_relation_fold(name):
    g = GROUPOID_GRAPHS[name]()
    groups = list(atom_groups(g))
    rels = _pairs(g)
    assert rels
    for seed in (1, 2):
        tables = _tables(g, seed)
        for kind, table in tables.items():
            report = check_representation(g, table, groups)
            expected = tuple(i for i, (p, q) in enumerate(rels) if _parent_fold(table, p) != _parent_fold(table, q))
            assert (report.checked, report.failures) == (len(rels), expected), kind
        assert check_representation(g, tables["satisfying"], groups).ok


def test_check_reads_groups_once():
    # a one-shot generator gives the report of the listed groups
    g = central_graph("A3:J={}")
    for table in _tables(g, 4).values():
        report = check_representation(g, table, atom_groups(g))
        assert report == check_representation(g, table, list(atom_groups(g)))
        assert report.checked == len(_pairs(g))


class _Unhashable:
    # a group element with only * and !=, counting its products
    products = 0

    def __init__(self, perm):
        self.perm = perm

    __hash__ = None

    def __mul__(self, other):
        _Unhashable.products += 1
        return _Unhashable(self.perm * other.perm)

    def __ne__(self, other):
        return self.perm != other.perm


def test_check_folds_each_atom_once_without_hashing():
    g = central_graph("A3:J={}")
    groups = list(atom_groups(g))
    rels = _pairs(g)
    table = _tables(g, 3)["violating"]
    wrapped = {eid: _Unhashable(perm) for eid, perm in table.items()}
    _Unhashable.products = 0
    report = check_representation(g, wrapped, groups)
    assert report.failures == check_representation(g, table, groups).failures
    # one product per distinct atom prefix of length at least 2
    prefixes = {path.edges[:k] for r in rels for path in r for k in range(2, len(path) + 1)}
    assert _Unhashable.products == len(prefixes) < sum(len(p) + len(q) - 2 for p, q in rels)


def test_missing_edge_raised_before_any_fold():
    g = central_graph("A3:J={}")
    wrapped = {e.id: _Unhashable(Perm(())) for e in g.edges}
    del wrapped[g.edges[-1].id]
    _Unhashable.products = 0
    with pytest.raises(MissingEdgeAssignment):
        check_representation(g, wrapped, atom_groups(g))
    assert _Unhashable.products == 0


def test_equal_out_and_back_is_identity():
    g = central_graph("A2:J={}")
    e = g.out_edges(0)[0]
    back = g.edge_across(e.target, e.hyperplane)
    w = GroupoidWord(0, ((e.id, 1), (back.id, 1), (back.id, -1), (e.id, -1)))
    empty = GroupoidWord(0, ())
    assert equal_in_groupoid(g, [], w, empty, depth=2) is GroupoidEquality.PROVEN_EQUAL


def test_equal_antipodal_atoms():
    g = central_graph("A2:J={}")
    far = g.id_of_signs((-1, -1, -1))
    pair = atoms(g, 0, far)
    rules = rewrite_rules(atom_groups(g))
    first = word_of_path(pair[0])
    second = word_of_path(pair[1])
    assert equal_in_groupoid(g, rules, first, second, depth=1) is GroupoidEquality.PROVEN_EQUAL


def test_unequal_words_stay_unknown():
    # distinct crossing vectors can never be proven equal
    g = central_graph("A2:J={}")
    a = word_of_path(atoms(g, 0, 1)[0])
    b_path = atoms(g, 0, 1)[0]
    b = word_concat(g, word_of_path(b_path), loop_word(g, PositivePath(1, ()), 0))
    # same endpoints, different net crossings
    assert word_end(g, a) == word_end(g, b)
    assert crossing_homomorphism(g, a) != crossing_homomorphism(g, b)
    assert equal_in_groupoid(g, rewrite_rules(atom_groups(g)), a, b, depth=3) is GroupoidEquality.UNKNOWN


def _flat_rules(rels):
    # every relation in both directions and both inverted, one flat list
    out = []
    for p_path, q_path in rels:
        p = tuple((eid, 1) for eid in p_path.edges)
        q = tuple((eid, 1) for eid in q_path.edges)
        pinv = tuple((eid, -1) for eid in reversed(p_path.edges))
        qinv = tuple((eid, -1) for eid in reversed(q_path.edges))
        out += [(old, new) for old, new in ((p, q), (q, p), (pinv, qinv), (qinv, pinv)) if old]
    return out


def _full_scan_swaps(letters, flat_rules):
    # the prover's rule scan before rules were indexed: every rule at
    # every position
    for old, new in flat_rules:
        for i in range(len(letters) - len(old) + 1):
            if letters[i : i + len(old)] == old:
                yield letters[:i] + new + letters[i + len(old) :]


def test_indexed_swaps_match_full_scan():
    import random

    from floparr.pi1 import _swaps

    g = affine_graph("A2:J={}", "3/2")
    rels = _pairs(g)
    rules = rewrite_rules(atom_groups(g))
    flat = _flat_rules(rels)
    # each stored (old, side) stands for old -> new for every other new in side
    expanded = [(old, new) for group in rules.values() for old, side in group for new in side if new != old]
    assert sorted(expanded) == sorted(flat)
    rng = random.Random(5)
    words = [tuple((eid, 1) for eid in p.edges) for p, _ in rels[:10]]
    letters = sorted({letter for old, _ in flat for letter in old})
    words += [tuple(rng.choice(letters) for _ in range(rng.randrange(9))) for _ in range(25)]
    # splice rule sides together so that one word holds several matches
    words += [rng.choice(flat)[0] + rng.choice(flat)[1] + rng.choice(flat)[0] for _ in range(25)]
    for word in words:
        # the order rewrites come out in is no contract, only the multiset
        assert sorted(_swaps(word, rules)) == sorted(_full_scan_swaps(word, flat))


def test_verdicts_independent_of_rule_order():
    g = central_graph("A3:J={}")
    rules = rewrite_rules(atom_groups(g))
    shuffled = {letter: list(group) for letter, group in rules.items()}
    rng = random.Random(11)
    for group in shuffled.values():
        rng.shuffle(group)
    assert shuffled != rules
    far = g.id_of_signs(tuple(-s for s in g.chambers[0].signs))
    words = [word_of_path(p) for p in atoms(g, 0, far)[:6]]
    # a loop in front changes the crossing vector, so those pairs stay unknown
    loop = loop_word(g, PositivePath(0, ()), g.out_edges(0)[0].hyperplane)
    looped = [word_concat(g, loop, w) for w in words]
    pairs = list(combinations(words, 2)) + list(zip(words, looped)) + list(combinations(looped, 2))
    seen = {verdict: 0 for verdict in GroupoidEquality}
    for depth in range(3):
        for first, second in pairs:
            verdict = equal_in_groupoid(g, rules, first, second, depth)
            assert equal_in_groupoid(g, shuffled, first, second, depth) is verdict
            seen[verdict] += 1
    assert min(seen.values()) > 0, seen


def test_equal_requires_same_base():
    g = central_graph("A2:J={}")
    with pytest.raises(BaseMismatch):
        equal_in_groupoid(g, [], GroupoidWord(0, ()), GroupoidWord(1, ()), depth=1)


def test_equal_requires_same_end():
    g = central_graph("A2:J={}")
    e = g.out_edges(0)[0]
    with pytest.raises(BaseMismatch):
        equal_in_groupoid(g, [], GroupoidWord(0, ((e.id, 1),)), GroupoidWord(0, ()), depth=1)


def test_word_json_round_trip():
    g = central_graph("A2:J={}")
    w = generators(g)[3].loop
    assert word_from_json(word_to_json(w)) == w


def test_perm_parse_and_compose():
    a = parse_perm("(0 1)")
    b = parse_perm("(1 2)")
    # other-first composition: (a * b) applies b, then a
    assert (a * b).images == parse_perm("(0 1 2)").images
    assert str(parse_perm("(0 1 2)")) == "(0 1 2)"
    assert str(Perm((0, 1, 2))) == "()"
    assert parse_perm("()").images == ()


def test_perm_inverse():
    p = parse_perm("(0 2 1)")
    assert (p * p.inverse()).images == ()


def test_perm_rejects_garbage():
    for bad in ("(0 1", "(0 1)(1 2)", "0 1)", "(0 0)", "(0 1) x", "(-1 2)"):
        with pytest.raises(ValueError):
            parse_perm(bad)
