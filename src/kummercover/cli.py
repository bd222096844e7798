"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 internal consistency failure
(OracleDisagreement: independent computations of the same quantity disagreed;
RankInstability: a numeric rank decision fell inside its guard band), 64 usage
error, 141 (128 + SIGPIPE) when the reader closed stdout before the output was
written.
Output is deterministic for fixed inputs: no timestamps, stable ordering,
and integers that may exceed 64 bits are printed as decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import braid as braid_mod
from . import cover, folding, homology, schreier
from .exactlin import ExactLinError, smith_row, structured_smith
from .freegroup import Word, WordError, _family_text, parse_word

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_params(args) -> cover.CurveParams:
    if args.params:
        with open(args.params) as fh:
            obj = json.load(fh)
        if not (isinstance(obj, dict) and _is_int(obj.get("n"))
                and isinstance(obj.get("d"), list) and all(map(_is_int, obj["d"]))):
            raise cover.CurveValidationError(
                f"{args.params}: expected a JSON object {{\"n\": int, \"d\": [int, ...]}}")
        return cover.validate(obj["n"], obj["d"])
    if args.n is None or args.d is None:
        args.parser.error("give --params FILE, or both -n and -d")
    return cover.validate(args.n, [int(x) for x in args.d.split(",")])


def _add_params_flags(sub) -> None:
    sub.add_argument("--params", help="JSON file with {\"n\": ..., \"d\": [...]}")
    sub.add_argument("-n", type=int, help="cover order")
    sub.add_argument("-d", help="comma-separated branch exponents")


def _words_from_file(rank: int, path: str) -> list[Word]:
    with open(path) as fh:
        return [parse_word(rank, line) for line in fh if line.strip()]


def _cmd_validate(args) -> int:
    p = _load_params(args)
    out = dict(p.to_obj())
    out["valid"] = True
    _emit(out)
    return EXIT_OK


def _cmd_genus(args) -> int:
    p = _load_params(args)
    _emit({
        "n": p.n, "d": list(p.d),
        "genus": cover.genus(p),
        "branch_count": cover.branch_count(p),
        "open_rank": cover.open_rank(p),
    })
    return EXIT_OK


def _snf_block(row: list[int]) -> dict:
    snf = smith_row(row)
    cand, det, is_snf = structured_smith(row)
    return {"gcd": snf.gcd, "R": snf.r_matrix.to_obj(),
            "structured_candidate": cand.to_obj(),
            "structured_det": str(det),
            "structured_is_transform": is_snf}


def _cmd_snf(args) -> int:
    d = [int(x) for x in args.d.split(",")]
    _emit({"d": d, **_snf_block(d)})
    return EXIT_OK


def _gens_obj(kg: schreier.KernelGenerators) -> dict:
    out = {
        "mode": kg.mode,
        "count": len(kg.generators),
        "y_basis": [str(w) for w in kg.y_basis],
        "generators": _family_text(kg.generators),
    }
    if kg.window is not None:
        out["window"] = kg.window
    return out


def _cmd_gens(args) -> int:
    p = _load_params(args)
    if args.mode == "modn":
        kg = schreier.kernel_generators_mod_n(p)
    else:
        kg = schreier.kernel_generators_integral(p, window=args.window)
    if args.format == "json":
        _emit(_gens_obj(kg))
    else:
        print(f"mode: {kg.mode}")
        print("y basis: " + ", ".join(str(w) for w in kg.y_basis))
        for text in _family_text(kg.generators):
            print(text)
    return EXIT_OK


def _preset_graph(args, p: cover.CurveParams) -> folding.StallingsGraph:
    if args.preset == "rn":
        return folding.winding_cycle_graph(p.n, p.rank)
    if args.preset == "powers":
        return folding.powers_graph(p.d[:p.rank])
    return folding.product_graph(folding.winding_cycle_graph(p.n, p.rank),
                                 folding.powers_graph(p.d[:p.rank]))


def _cmd_fold(args) -> int:
    if args.words:
        if args.rank_hint is None:
            args.parser.error("--words needs --rank-hint")
        words = _words_from_file(args.rank_hint, args.words)
        g = folding.graph_from_words(args.rank_hint, words)
    elif args.preset:
        g = _preset_graph(args, _load_params(args))
    else:
        args.parser.error("give --words or --preset")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(folding.export_dot(g))
    out = {"vertices": g.num_vertices, "edges": len(g.edges)}
    if args.rank:
        out["rank"] = folding.rank(g)
    _emit(out)
    return EXIT_OK


def _cmd_intersect(args) -> int:
    rank = args.rank_hint
    g1 = folding.graph_from_words(rank, _words_from_file(rank, args.words))
    g2 = folding.graph_from_words(rank, _words_from_file(rank, args.words2))
    prod = folding.product_graph(g1, g2)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(folding.export_dot(prod))
    _emit({
        "vertices": prod.num_vertices,
        "edges": len(prod.edges),
        "rank": folding.rank(prod),
        "basis": [str(w) for w in folding.free_basis(prod)],
    })
    return EXIT_OK


def _homology_obj(p: cover.CurveParams, tol: float) -> dict:
    dec = homology.homology_decomposition(p, tol=tol)
    # homology_decomposition raises on any disagreement, so the check flags
    # are true whenever it returns
    return {
        "genus": dec.genus,
        "M": list(dec.multiplicities),
        "cw": list(dec.cw_table),
        "checks": {"sum_M_eq_2g": True, "hodge": True, "rank_agrees": True},
    }


def _cmd_homology(args) -> int:
    p = _load_params(args)
    _emit(_homology_obj(p, args.tol))
    return EXIT_OK


def _braid_block(p: cover.CurveParams, i: int, mode: str) -> dict:
    ok, conj = braid_mod.lifts_to_kernel(p, i, mode=mode, audit=True)
    return {"generator": i, "mode": mode, "lifts": ok,
            "conjugated_matrix": conj.to_obj()}


def _cmd_braid(args) -> int:
    p = _load_params(args)
    gens = [args.generator] if args.generator else list(range(1, p.rank))
    _emit({"verdicts": [_braid_block(p, i, args.mode) for i in gens]})
    return EXIT_OK


def _cmd_report(args) -> int:
    p = _load_params(args)
    kg = schreier.kernel_generators_mod_n(p)
    graph = folding.graph_from_words(p.rank, list(kg.generators))
    if graph != folding.coset_graph(p):
        raise homology.OracleDisagreement(
            "folded kernel graph differs from the Schreier coset graph")
    report = {
        "params": p.to_obj(),
        "genus": cover.genus(p),
        "branch_count": cover.branch_count(p),
        "open_rank": cover.open_rank(p),
        "snf": _snf_block(list(p.d[:p.rank])),
        "generators": _gens_obj(kg),
        "kernel_graph_rank": folding.rank(graph),
        "homology": _homology_obj(p, args.tol),
        "braid": {"mode": args.mode,
                  "verdicts": [_braid_block(p, i, args.mode)
                               for i in range(1, p.rank)]},
    }
    if report["kernel_graph_rank"] != report["open_rank"]:
        raise homology.OracleDisagreement(
            "folded kernel graph rank differs from the Euler-characteristic rank")
    _emit(report)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="kummercover")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("validate", _cmd_validate), ("genus", _cmd_genus)):
        sub = subs.add_parser(name)
        _add_params_flags(sub)
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("snf")
    sub.add_argument("-d", required=True, help="comma-separated entries")
    sub.set_defaults(fn=_cmd_snf)

    sub = subs.add_parser("gens")
    _add_params_flags(sub)
    sub.add_argument("--mode", choices=["modn", "integral"], default="modn")
    sub.add_argument("--window", type=int, default=3)
    sub.add_argument("--format", choices=["text", "json"], default="json")
    sub.set_defaults(fn=_cmd_gens)

    sub = subs.add_parser("fold")
    _add_params_flags(sub)
    sub.add_argument("--words", help="file with one word per line")
    sub.add_argument("--rank-hint", type=int, help="free group rank for --words")
    sub.add_argument("--preset", choices=["rn", "powers", "product"])
    sub.add_argument("--dot", help="write DOT output to this file")
    sub.add_argument("--rank", action="store_true", help="print the Euler rank")
    sub.set_defaults(fn=_cmd_fold)

    sub = subs.add_parser("intersect")
    sub.add_argument("--words", required=True)
    sub.add_argument("--words2", required=True)
    sub.add_argument("--rank-hint", type=int, required=True)
    sub.add_argument("--dot")
    sub.set_defaults(fn=_cmd_intersect)

    sub = subs.add_parser("homology")
    _add_params_flags(sub)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.set_defaults(fn=_cmd_homology)

    sub = subs.add_parser("braid")
    _add_params_flags(sub)
    sub.add_argument("--generator", type=int, help="single braid generator index")
    sub.add_argument("--mode", choices=["mod_n", "integral"], default="mod_n")
    sub.set_defaults(fn=_cmd_braid)

    sub = subs.add_parser("report")
    _add_params_flags(sub)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--mode", choices=["mod_n", "integral"], default="mod_n")
    sub.set_defaults(fn=_cmd_report)
    for sub in subs.choices.values():
        sub.set_defaults(parser=sub)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # parsing keeps no state in the parser, so one per process serves every run
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (cover.CurveValidationError, ExactLinError, WordError,
            folding.GraphError, FileNotFoundError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (homology.OracleDisagreement, homology.RankInstability) as exc:
        print(f"inconsistency: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except SystemExit as exc:
        return int(exc.code or 0)


def main() -> None:
    try:
        code = run()
        # a pipe closed early may only show when the last buffer goes out
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is still buffered to the null device, so that the flush
        # at interpreter exit raises no second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: BrokenPipeError: stdout was closed before the output "
              "was written", file=sys.stderr)
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
