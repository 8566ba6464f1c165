"""Command line front end.

    floparr build "A3:J={1}"
    floparr build "A2:J={}" --window 7/2
    floparr chambers "A2:J={}"
    floparr atoms "A2:J={}" --from 0 --to 5
    floparr pi1 "A2:J={}"
    floparr check "A2:J={}" --rep rep.json
    floparr plot "A2:J={}" --window 1 --out picture.svg
    floparr search-figure --lines 6 --max-rank 8

Every command writes canonical JSON (or SVG) to stdout or --out and is
byte deterministic.  A Dynkin data string gives the central
arrangement; ``--window R``, the only kind flag, adds the integer
translates that meet the open box |x_i| < R.  Arrangements can instead
come from a JSON file via --in, with no data string and no --window;
this is how arrangements from arbitrary user matrices enter.

Exit codes: 0 success, 1 failed checks or any other error, 2 parse
failure, conflicting arguments or an unreadable/unwritable file, 3
empty surviving set, 4 a size cap exceeded, 5 unknown chamber id, 6
plot of a non rank-2 arrangement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb

from .arrangement import (
    Rendered,
    TextList,
    arrangement_from_json,
    arrangement_to_json,
    build_affine,
    build_finite,
    dumps,
)
from .chambers import enumerate_chambers, graph_to_json
from .dynkin import DynkinData, DynkinType, parse_data
from .errors import FloparrError, ParseFailure
from .galleries import DEFAULT_ATOM_CAP, BoundaryContactWarning, atoms, path_to_json, path_touches_boundary
from .perms import parse_cycles, perm_of_cycles
from .pi1 import (
    GroupoidEquality,
    atom_groups,
    check_representation,
    crossing_homomorphism,
    equal_in_groupoid,
    generators,
    rewrite_rules,
    word_of_path,
    word_to_json,
)
from .svgplot import arrangement_svg


def _parse_radius(text: str) -> Fraction:
    try:
        radius = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseFailure(f"cannot parse radius {text!r}") from exc
    if radius <= 0:
        raise ParseFailure(f"radius must be positive, got {text!r}")
    return radius


def _resolve_arrangement(args):
    """Arrangement from a data string and an optional --window, or from --in JSON."""
    if args.infile:
        if args.data or args.window is not None:
            raise ParseFailure("--in FILE takes no Dynkin data string and no --window")
        try:
            with open(args.infile) as f:
                obj = json.load(f)
            return arrangement_from_json(obj)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ParseFailure(f"cannot load arrangement from {args.infile}: {exc}") from exc
    if not args.data:
        raise ParseFailure("need a Dynkin data string or --in FILE")
    data = parse_data(args.data)
    if args.window is not None:
        return build_affine(data, _parse_radius(args.window))
    return build_finite(data)


def _emit(args, report) -> None:
    """Stream a report, canonical JSON or SVG text, to --out or stdout.

    Callers build the whole report first, so a failure leaves no output.
    """

    def send(write):
        if isinstance(report, str):
            write(report)
        else:
            dumps(report, write)

    if not args.out:
        send(sys.stdout.write)
        return
    try:
        with open(args.out, "w") as f:
            send(f.write)
    except OSError as exc:
        raise ParseFailure(f"cannot write {args.out}: {exc}") from exc


def cmd_build(args) -> int:
    _emit(args, arrangement_to_json(_resolve_arrangement(args)))
    return 0


def cmd_chambers(args) -> int:
    graph = enumerate_chambers(_resolve_arrangement(args))
    body = graph_to_json(graph)
    report = {
        "count": len(graph.chambers),
        "boundary_count": sum(1 for c in graph.chambers if c.boundary),
        "chambers": body["chambers"],
        "edges": body["edges"],
    }
    _emit(args, report)
    return 0


def cmd_atoms(args) -> int:
    graph = enumerate_chambers(_resolve_arrangement(args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContactWarning)
        found = atoms(graph, args.source, args.target, cap=args.cap)
    report = {
        "from": args.source,
        "to": args.target,
        "count": len(found),
        "length": len(found[0].edges) if found else None,
        "boundary_touching": sum(1 for p in found if path_touches_boundary(graph, p)),
        "atoms": [path_to_json(p) for p in found],
    }
    _emit(args, report)
    return 0


def cmd_pi1(args) -> int:
    graph = enumerate_chambers(_resolve_arrangement(args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContactWarning)
        gens = generators(graph, max_atoms_per_chamber=args.cap)
    # every atom is walked and rendered here, before the first byte; the
    # entries {"p": ..., "q": ...} are spliced from these texts as they stream
    groups = [[Rendered(path_to_json(path)) for path in group] for group in atom_groups(graph, args.length_cap)]

    def relations(nl):
        inner = nl + "  "
        head, mid, tail = "{" + inner + '"p": ', "," + inner + '"q": ', nl + "}"
        for group in groups:
            for p, q in combinations([atom.at(inner) for atom in group], 2):
                yield head, p, mid, q, tail

    report = {
        "generator_count": len(gens),
        "relation_count": sum(comb(len(group), 2) for group in groups),
        "generators": [
            {
                "atom": path_to_json(g.atom),
                "wall": g.wall,
                "loop": word_to_json(g.loop),
                "crossing": list(crossing_homomorphism(graph, g.loop)),
            }
            for g in gens
        ],
        "relations": TextList(relations),
    }
    _emit(args, report)
    return 0


def cmd_check(args) -> int:
    graph = enumerate_chambers(_resolve_arrangement(args))
    try:
        with open(args.rep) as f:
            table = json.load(f)
        cycles = {int(k): parse_cycles(v) for k, v in table.items()}
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ParseFailure(f"cannot load representation from {args.rep}: {exc}") from exc
    # renumber the m named points 0..m-1 in order, so a table naming point
    # 10**15 costs what one naming point 2 does; one bijection applied to
    # every element keeps products and equality, hence every verdict
    points = sorted({x for found in cycles.values() for cycle in found for x in cycle})
    index = {x: i for i, x in enumerate(points)}
    assignment = {k: perm_of_cycles([[index[x] for x in c] for c in found]) for k, found in cycles.items()}
    groups = atom_groups(graph, args.length_cap)
    if args.depth is not None:  # the prover needs every rule before the first relation
        groups = list(groups)
    report_obj = check_representation(graph, assignment, groups)
    report = {
        "relations": report_obj.checked,
        "failures": list(report_obj.failures),
        "ok": report_obj.ok,
    }
    if args.depth is not None:
        rules = rewrite_rules(groups)
        proven = [
            equal_in_groupoid(graph, rules, word_of_path(p), word_of_path(q), args.depth)
            is GroupoidEquality.PROVEN_EQUAL
            for group in groups
            for p, q in combinations(group, 2)
        ]
        report["rewrite_depth"] = args.depth
        report["rewrite_proven"] = proven
    _emit(args, report)
    return 0 if report_obj.ok else 1


def cmd_plot(args) -> int:
    arr = _resolve_arrangement(args)
    graph = enumerate_chambers(arr) if args.chambers else None
    _emit(args, arrangement_svg(arr, graph))
    return 0


def all_rank_two_data(max_rank: int):
    types = [DynkinType("A", n) for n in range(2, max_rank + 1)]
    types += [DynkinType("D", n) for n in range(4, max_rank + 1)]
    types += [DynkinType("E", n) for n in (6, 7, 8) if n <= max_rank]
    for delta in types:
        nodes = range(delta.rank)
        for i in nodes:
            for j in nodes:
                if i < j:
                    contracted = frozenset(nodes) - {i, j}
                    yield DynkinData(delta, contracted)


def cmd_search_figure(args) -> int:
    matches = []
    for data in all_rank_two_data(args.max_rank):
        count = len(build_finite(data).hyperplanes)
        if count == args.lines:
            matches.append({"data": str(data), "hyperplanes": count})
    _emit(args, {"target": args.lines, "matches": matches})
    return 0


def _nonnegative(what: str):
    """An argparse type for a count; a negative value exits 2 naming ``what``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be at least 0, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_input_args(parser):
    parser.add_argument("data", nargs="?", help='Dynkin data such as "A3:J={1}"')
    parser.add_argument("--in", dest="infile", metavar="FILE", help="arrangement JSON file")
    parser.add_argument("--window", metavar="p/q", help="add integer translates meeting the box |x_i| < p/q")
    parser.add_argument("--out", metavar="FILE", help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floparr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit the arrangement JSON")
    _add_input_args(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("chambers", help="enumerate chambers and wall-crossing edges")
    _add_input_args(p)
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("atoms", help="minimal positive paths between two chambers")
    _add_input_args(p)
    p.add_argument("--from", dest="source", type=int, required=True, metavar="N")
    p.add_argument("--to", dest="target", type=int, required=True, metavar="N")
    p.add_argument("--cap", type=_nonnegative("cap"), default=DEFAULT_ATOM_CAP, help="atom count cap")
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("pi1", help="loop generators and atom-pair relations")
    _add_input_args(p)
    p.add_argument("--cap", type=_nonnegative("cap"), default=DEFAULT_ATOM_CAP, help="atoms per chamber cap")
    p.add_argument(
        "--length-cap", type=_nonnegative("length cap"), default=None, help="skip relations above this atom length"
    )
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("check", help="evaluate the relations in a permutation representation")
    _add_input_args(p)
    p.add_argument("--rep", required=True, metavar="FILE", help="JSON edge id -> cycle notation")
    p.add_argument("--length-cap", type=_nonnegative("length cap"), default=None)
    p.add_argument("--depth", type=_nonnegative("depth"), default=None, help="also re-prove relations by rewriting")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("plot", help="SVG of a rank-2 arrangement")
    _add_input_args(p)
    p.add_argument("--chambers", action="store_true", help="overlay chamber witness dots")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("search-figure", help="rank-2 contractions with a given line count")
    p.add_argument("--lines", type=int, required=True, metavar="N")
    p.add_argument("--max-rank", type=int, default=8, metavar="N")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_search_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FloparrError as exc:
        print(f"floparr: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at
        # interpreter exit stays quiet (recipe of the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1

if __name__ == "__main__":
    sys.exit(main())
