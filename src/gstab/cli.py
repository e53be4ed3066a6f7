"""Command-line front end.

Subcommands:
    gstab graph analyze FILE [--oracle]
    gstab poset analyze FILE [--oracle]
    gstab family hmp --a A --b B [--oracle]
    gstab numsgp --gens 3,4,5 | --family A B
    gstab verify --max-n K

Reports are canonical JSON on stdout (sorted keys, stable field set), so a
rerun with the same inputs is byte-identical; timings go to stderr.  The
global `--json-indent` (default 2) must lie in 0..16.  Exit
codes: 0 ok and all match flags true, 1 stdout closed before the report
was written (as by `| head`), 2 parse error, 3 input not perfect, 4 size
guard, 5 bad parameters, 6 a match flag is false.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .config import check_size
from .errors import (
    FormatError,
    GstabError,
    NotPerfectError,
    ParameterError,
    SizeGuardError,
    _int_text,
    _read_text,
)
from .graphs import Graph, connected_components, load_graph
from .numsgp import (
    _residue,
    canonical_ideal,
    family,
    pseudo_frobenius,
    semigroup,
    trace_ideal,
)
from .posets import (Poset, _decode_poset_json, antichains, comparability_graph,
                     has_x_subposet, hmp_poset, poset_from_covers)
from .toric import UNIT, TraceReport, classify, trace_height, verify_equivalence

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_PARSE = 2
EXIT_NOT_PERFECT = 3
EXIT_SIZE_GUARD = 4
EXIT_PARAMS = 5
EXIT_MISMATCH = 6

# `--json-indent` range: wide enough to read, small enough that the indent
# strings `json.dumps` builds stay small
MAX_JSON_INDENT = 16


def _height_json(height):
    return "unit" if height is UNIT else height


def _header(command: str) -> dict:
    return {"tool": "gstab", "version": __version__, "command": command}


def _classification_payload(report: TraceReport, g: Graph) -> dict:
    payload = {
        "perfect": True,
        "components": [
            {"vertices": list(c.vertices), "dim": c.dim, "pure": c.pure}
            for c in connected_components(g)
        ],
        "classification": report.classification,
        "classification_label": report.label(),
        "N": report.N,
        "nearly_gorenstein": report.nearly_gorenstein,
        "gorenstein": report.gorenstein,
        "a_invariant": report.a_invariant,
        "dim": report.dim,
        "oracle": None,
    }
    if report.oracle is not None:
        payload["oracle"] = {
            "trace_power": report.oracle.trace_power,
            "m_primary": report.oracle.m_primary,
            "height": _height_json(report.oracle.height),
            "agreement": report.oracle.agreement,
        }
    return payload


def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def cmd_graph_analyze(args) -> tuple[dict, int]:
    g = load_graph(args.file)
    report = classify(g, oracle=args.oracle)
    payload = {
        **_header("graph analyze"),
        "input": {"path": args.file, **_graph_payload(g)},
    }
    payload.update(_classification_payload(report, g))
    ok = report.oracle.agreement if report.oracle is not None else True
    return payload, EXIT_OK if ok else EXIT_MISMATCH


def _poset_payload(p: Poset) -> dict:
    return {
        "elements": [str(e) for e in p.elements],
        "covers": [[str(a), str(b)] for a, b in p.covers()],
    }


def cmd_poset_analyze(args) -> tuple[dict, int]:
    elements, covers = _decode_poset_json(_read_text(args.file))
    # the comparability graph has one vertex per element; refuse before
    # closing the relation, with the perfection guard classify would apply
    check_size("perfection test", len(elements))
    p = poset_from_covers(elements, covers)
    g = comparability_graph(p)
    report = classify(g, oracle=args.oracle)
    payload = {
        **_header("poset analyze"),
        "input": {"path": args.file, **_poset_payload(p)},
        "has_x_subposet": has_x_subposet(p),
        "antichain_count": len(antichains(p)),
        "comparability_graph": _graph_payload(g),
    }
    payload.update(_classification_payload(report, g))
    ok = report.oracle.agreement if report.oracle is not None else True
    return payload, EXIT_OK if ok else EXIT_MISMATCH


def cmd_family_hmp(args) -> tuple[dict, int]:
    # the poset has b - 1 elements; refuse before building it
    check_size("family hmp", args.b - 1)
    p = hmp_poset(args.a, args.b)
    g = comparability_graph(p)
    payload = {
        **_header("family hmp"),
        "a": args.a,
        "b": args.b,
        "poset": _poset_payload(p),
        "comparability_graph": _graph_payload(g),
        "dim": g.n + 1,
        "dim_expected": args.b,
        "dim_match": g.n + 1 == args.b,
        "oracle": None,
    }
    ok = payload["dim_match"]
    if args.oracle:
        height = trace_height(g)
        height_match = height == args.a
        payload["oracle"] = {
            "height": _height_json(height),
            "height_expected": args.a,
            "height_match": height_match,
        }
        ok = ok and height_match
    return payload, EXIT_OK if ok else EXIT_MISMATCH


def cmd_numsgp(args) -> tuple[dict, int]:
    if (args.gens is None) == (args.family is None):
        raise ParameterError("give exactly one of --gens or --family")
    if args.family is not None:
        a, b = args.family
        h = family(a, b)
    else:
        try:
            gens = [_int_text(x) for x in args.gens.split(",") if x.strip()]
        except ValueError as exc:
            raise FormatError(f"bad generator list {args.gens!r}") from exc
        h = semigroup(gens)
    k = canonical_ideal(h)
    tr = trace_ideal(h)
    pf = pseudo_frobenius(h)
    payload = {
        **_header("numsgp"),
        "generators": list(h.generators),
        "gaps": list(h.gaps),
        "frobenius": h.frobenius,
        "conductor": h.conductor,
        "pseudo_frobenius": list(pf),
        "type": len(pf),
        "residue": _residue(h, tr),
        "canonical_ideal_window": sorted(k.window),
        "trace_min": tr.min,
        "family": None,
    }
    code = EXIT_OK
    if args.family is not None:
        a, b = args.family
        type_match = payload["type"] == a
        residue_match = payload["residue"] == b
        payload["family"] = {
            "a": a,
            "b": b,
            "type_match": type_match,
            "residue_match": residue_match,
        }
        if not (type_match and residue_match):
            code = EXIT_MISMATCH
    return payload, code


def cmd_verify(args) -> tuple[dict, int]:
    result = verify_equivalence(args.max_n)
    payload = {
        **_header("verify"),
        "max_n": args.max_n,
        **result,
    }
    return payload, EXIT_OK if result["disagreements"] == 0 else EXIT_MISMATCH


def _int_option(text: str) -> int:
    """Every integer option's `type`: `_int_text`, refused as `int` is."""
    try:
        return _int_text(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstab",
        description="Stable set rings of perfect graphs: classification and oracles.",
    )
    parser.add_argument("--json-indent", type=_int_option, default=2,
                        help=f"spaces per JSON nesting level, 0..{MAX_JSON_INDENT}")
    sub = parser.add_subparsers(dest="command", required=True)

    def analysis_flags(p):
        p.add_argument("--oracle", action="store_true",
                       help="also run the brute-force lattice-point checks")

    graph = sub.add_parser("graph", help="graph file operations")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    ga = graph_sub.add_parser("analyze", help="classify a graph file")
    ga.add_argument("file")
    analysis_flags(ga)
    ga.set_defaults(run=cmd_graph_analyze)

    poset = sub.add_parser("poset", help="poset file operations")
    poset_sub = poset.add_subparsers(dest="poset_command", required=True)
    pa = poset_sub.add_parser("analyze", help="analyze a poset file")
    pa.add_argument("file")
    analysis_flags(pa)
    pa.set_defaults(run=cmd_poset_analyze)

    fam = sub.add_parser("family", help="built-in families")
    fam_sub = fam.add_subparsers(dest="family_command", required=True)
    hmp = fam_sub.add_parser("hmp", help="poset family with prescribed height and dimension")
    hmp.add_argument("--a", type=_int_option, required=True)
    hmp.add_argument("--b", type=_int_option, required=True)
    hmp.add_argument("--oracle", action="store_true")
    hmp.set_defaults(run=cmd_family_hmp)

    num = sub.add_parser("numsgp", help="numerical semigroup invariants")
    num.add_argument("--gens", type=str, default=None,
                     help="comma-separated generators")
    num.add_argument("--family", type=_int_option, nargs=2, metavar=("A", "B"), default=None,
                     help="type/residue family parameters")
    num.set_defaults(run=cmd_numsgp)

    ver = sub.add_parser("verify", help="check the classification against the oracles")
    ver.add_argument("--max-n", type=_int_option, required=True)
    ver.set_defaults(run=cmd_verify)

    return parser


_ERROR_CODES = [
    (FormatError, EXIT_PARSE),
    (NotPerfectError, EXIT_NOT_PERFECT),
    (SizeGuardError, EXIT_SIZE_GUARD),
    (ParameterError, EXIT_PARAMS),
]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if not 0 <= args.json_indent <= MAX_JSON_INDENT:
            raise ParameterError(
                f"--json-indent must be in 0..{MAX_JSON_INDENT}, got {args.json_indent}")
        payload, code = args.run(args)
    except GstabError as exc:
        for cls, code in _ERROR_CODES:
            if isinstance(exc, cls):
                break
        else:
            code = EXIT_PARSE
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__},
                         sort_keys=True), file=sys.stderr)
        return code
    except OSError as exc:
        print(json.dumps({"error": str(exc), "kind": "OSError"}, sort_keys=True),
              file=sys.stderr)
        return EXIT_PARSE
    try:
        print(json.dumps(payload, indent=args.json_indent, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
