"""Loop generators, relations, and checking a permutation table.

Run with: python3 demos/loops_and_check.py
"""

from itertools import combinations

from floparr import (
    GroupoidEquality,
    atom_groups,
    atoms,
    build_finite,
    check_representation,
    crossing_homomorphism,
    enumerate_chambers,
    equal_in_groupoid,
    generators,
    parse_data,
    parse_perm,
    rewrite_rules,
    word_of_path,
)

g = enumerate_chambers(build_finite(parse_data("A2:J={}")))
gens = generators(g)
# atoms with common endpoints, one group per chamber pair; each pair of
# atoms in a group is one relation
groups = list(atom_groups(g))
rels = [pair for group in groups for pair in combinations(group, 2)]

print(f"The A2 chamber graph yields {len(gens)} loop generators and"
      f" {len(rels)} relations.")
print()
print("Each loop runs out along a minimal gallery, crosses a wall twice,"
      " and returns:")
for x in gens[:4]:
    nu = crossing_homomorphism(g, x.loop)
    print(f"  atom {x.atom.edges} + wall {x.wall}: {len(x.loop.letters)} letters,"
          f" net crossings {nu}")
print(f"  ... and {len(gens) - 4} more")

print()
print("Wall crossings map to transpositions of three letters; the relation"
      " table must hold:")
cycles = {0: "(0 1)", 1: "(1 2)", 2: "(0 2)"}
table = {e.id: parse_perm(cycles[e.hyperplane]) for e in g.edges}
report = check_representation(g, table, groups)
print(f"  {report.checked} relations checked, ok={report.ok}")

table[0] = parse_perm("(0 1 2)")
broken = check_representation(g, table, groups)
print(f"  corrupting one edge: ok={broken.ok}, failing relations {list(broken.failures)}")

print()
print("Bounded rewriting proves the two opposite-chamber galleries equal:")
far = g.id_of_signs((-1, -1, -1))
first, second = atoms(g, 0, far)
rules = rewrite_rules(groups)
verdict = equal_in_groupoid(g, rules, word_of_path(first), word_of_path(second), depth=1)
print(f"  {first.edges} vs {second.edges}: {verdict.name}")
assert verdict is GroupoidEquality.PROVEN_EQUAL
