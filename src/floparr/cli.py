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

from . import arrangement, chambers, dynkin, galleries, perms, pi1, svgplot
from .errors import FloparrError, ParseFailure


def _unique_keys(pairs) -> dict:
    """A JSON object from its key-value pairs; a repeated key is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice")
        obj[key] = value
    return obj


def _load_json(path, what: str, decode):
    """``decode`` of the JSON in the file ``path``, the one reader of --in and --rep.

    Any failure to read, parse or decode it, a repeated key or nesting too
    deep for the parser included, is a ParseFailure naming ``what``;
    Overflow passes through.
    """
    try:
        with open(path) as f:
            return decode(json.load(f, object_pairs_hook=_unique_keys))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ParseFailure(f"cannot load {what} from {path}: {exc}") from exc


def _edge_table(table) -> dict:
    """The cycles of a --rep table by edge id; its keys are canonical decimals."""
    for k in table:
        if str(int(k)) != k:  # "00", " 0" and "+0" would all name edge 0
            raise ValueError(f"edge id {k!r} is not a canonical decimal")
    return {int(k): perms.parse_cycles(v) for k, v in table.items()}


def _resolve_arrangement(args):
    """Arrangement from a data string and an optional --window, or from --in JSON."""
    if args.infile:
        if args.data or args.window is not None:
            raise ParseFailure("--in FILE takes no Dynkin data string and no --window")
        return _load_json(args.infile, "arrangement", arrangement.arrangement_from_json)
    if not args.data:
        raise ParseFailure("need a Dynkin data string or --in FILE")
    data = dynkin.parse_data(args.data)
    if args.window is None:
        return arrangement.build_finite(data)
    try:
        return arrangement.build_affine(data, arrangement.parse_radius(args.window))
    except ValueError as exc:
        raise ParseFailure(f"bad --window {args.window!r}: {exc}") from exc


def _emit(args, report) -> None:
    """Stream a report, canonical JSON or SVG text, to --out or stdout.

    Callers raise every error first, so a failure leaves no output: each
    report is built whole, except the chambers and edges of ``chambers``
    and the generators of ``pi1``, maps that render each item as it is
    written, and the relations of ``pi1``, a function that yields their
    text as it is written once their count has passed its cap.
    """

    def send(write):
        if isinstance(report, str):
            write(report)
        else:
            arrangement.dumps(report, write)

    if not args.out:
        send(sys.stdout.write)
        return
    try:
        with open(args.out, "w") as f:
            send(f.write)
    except OSError as exc:
        raise ParseFailure(f"cannot write {args.out}: {exc}") from exc


def _load(*layers) -> None:
    """Run these lazy layers, and the layers they import, now.

    A command calls this first when it would reach a layer only after it
    has built data: compiled back to back, the layers reuse each other's
    transient compile memory, where one compiled on top of a graph or a
    table raises the process's peak.
    """
    for layer in layers:
        layer.__name__  # reading any attribute runs a lazy module


def _cap(args) -> int:
    """The --cap of atoms or pi1; with none given, the library's default."""
    return galleries.DEFAULT_ATOM_CAP if args.cap is None else args.cap


def cmd_build(args) -> int:
    _emit(args, arrangement.arrangement_to_json(_resolve_arrangement(args)))
    return 0


def cmd_chambers(args) -> int:
    graph = chambers.enumerate_chambers(_resolve_arrangement(args))
    report = {
        "count": len(graph.chambers),
        "boundary_count": sum(1 for c in graph.chambers if c.boundary),
        "chambers": map(chambers.chamber_to_json, graph.chambers),
        "edges": map(chambers.edge_to_json, graph.edges),
    }
    _emit(args, report)
    return 0


def cmd_atoms(args) -> int:
    _load(galleries)
    graph = chambers.enumerate_chambers(_resolve_arrangement(args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", galleries.BoundaryContactWarning)
        found = galleries.atoms(graph, args.source, args.target, cap=_cap(args))
    report = {
        "from": args.source,
        "to": args.target,
        "count": len(found),
        "length": len(found[0].edges),
        "boundary_touching": sum(1 for p in found if galleries.path_touches_boundary(graph, p)),
        "atoms": [galleries.path_to_json(p) for p in found],
    }
    _emit(args, report)
    return 0


def cmd_pi1(args) -> int:
    _load(pi1)
    graph = chambers.enumerate_chambers(_resolve_arrangement(args))
    count = pi1.relation_count(graph, args.length_cap)  # once it passes, listing cannot raise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", galleries.BoundaryContactWarning)
        gens = pi1.generators(graph, max_atoms_per_chamber=_cap(args))

    def relations(nl):
        # one source's atoms at a time, each rendered once; the entries
        # {"p": ..., "q": ...} pairing an atom with every later atom of its
        # group come as one text
        inner = nl + "  "
        head, mid, tail = "{" + inner + '"p": ', "," + inner + '"q": ', nl + "}"
        for group in pi1.atom_groups(graph, args.length_cap):
            texts = [galleries.path_text(path.source, path.edges, inner) for path in group]
            for i, p in enumerate(texts[:-1], 1):
                yield head + p + mid + (tail + "," + nl + head + p + mid).join(texts[i:]) + tail

    def generator_json(g):
        return {
            "atom": galleries.path_to_json(g.atom),
            "wall": g.wall,
            "loop": pi1.word_to_json(g.loop),
            "crossing": list(pi1.crossing_homomorphism(graph, g.loop)),
        }

    report = {
        "generator_count": len(gens),
        "relation_count": count,
        "generators": map(generator_json, gens),
        "relations": relations,
    }
    del gens  # the map holds the list now, and lets it go once all are written
    _emit(args, report)
    return 0


def cmd_check(args) -> int:
    _load(pi1, perms)
    arr = _resolve_arrangement(args)
    cycles = _load_json(args.rep, "representation", _edge_table)
    # renumber the m named points 0..m-1 in order, so a table naming point
    # 10**15 costs what one naming point 2 does; one bijection applied to
    # every element keeps products and equality, hence every verdict
    points = sorted({x for found in cycles.values() for cycle in found for x in cycle})
    index = {x: i for i, x in enumerate(points)}
    assignment = {k: perms.perm_of_cycles([[index[x] for x in c] for c in found]) for k, found in cycles.items()}
    graph = chambers.enumerate_chambers(arr)
    pi1.relation_count(graph, args.length_cap)  # Overflow comes before the first fold
    report_obj = pi1.check_representation(graph, assignment, pi1.atom_groups(graph, args.length_cap))
    report = {
        "relations": report_obj.checked,
        "failures": list(report_obj.failures),
        "ok": report_obj.ok,
    }
    if args.depth is not None:
        # each relation is one of the prover's rules, so one rewrite proves it
        report["rewrite_depth"] = args.depth
        report["rewrite_proven"] = [args.depth >= 1] * report_obj.checked
    _emit(args, report)
    return 0 if report_obj.ok else 1


def cmd_plot(args) -> int:
    _load(svgplot)
    arr = _resolve_arrangement(args)
    graph = chambers.enumerate_chambers(arr) if args.chambers else None
    _emit(args, svgplot.arrangement_svg(arr, graph))
    return 0


def all_rank_two_data(max_rank: int):
    types = [dynkin.DynkinType("A", n) for n in range(2, max_rank + 1)]
    types += [dynkin.DynkinType("D", n) for n in range(4, max_rank + 1)]
    types += [dynkin.DynkinType("E", n) for n in (6, 7, 8) if n <= max_rank]
    for delta in types:
        nodes = range(delta.rank)
        for i in nodes:
            for j in nodes:
                if i < j:
                    contracted = frozenset(nodes) - {i, j}
                    yield dynkin.DynkinData(delta, contracted)


def cmd_search_figure(args) -> int:
    matches = []
    for data in all_rank_two_data(args.max_rank):
        count = len(arrangement.build_finite(data).hyperplanes)
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
    p.add_argument("--cap", type=_nonnegative("cap"), default=None, help="atom count cap")
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("pi1", help="loop generators and atom-pair relations")
    _add_input_args(p)
    p.add_argument("--cap", type=_nonnegative("cap"), default=None, help="atoms per chamber cap")
    p.add_argument(
        "--length-cap", type=_nonnegative("length cap"), default=None, help="skip relations above this atom length"
    )
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("check", help="evaluate the relations in a permutation representation")
    _add_input_args(p)
    p.add_argument("--rep", required=True, metavar="FILE", help="JSON edge id -> cycle notation")
    p.add_argument("--length-cap", type=_nonnegative("length cap"), default=None)
    p.add_argument(
        "--depth", type=_nonnegative("depth"), help="also report rewrite_proven, computed with no search: true iff N >= 1"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("plot", help="SVG of a rank-2 arrangement")
    _add_input_args(p)
    p.add_argument("--chambers", action="store_true", help="overlay chamber witness dots")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("search-figure", help="rank-2 contractions with a given line count")
    p.add_argument("--lines", type=_nonnegative("lines"), required=True, metavar="N")
    p.add_argument("--max-rank", type=_nonnegative("max rank"), default=8, metavar="N")
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
