"""Command-line surface: everything scriptable, deterministic, exit-coded.

Exit codes: 0 success, 1 a check failed (inconclusive proof, failed
verification), 2 parse or validation errors.

Start-up is most of a short run, so a command loads only what it uses:
``upto.companion`` is imported by ``check-upto``, ``upto.lattice`` by
``lattice-companion`` (and the lattice parsers), ``upto.verify`` and its
samplers by ``verify``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .checker import CONTAINED, ProofReport, check_upto
from .formats import (
    export_dot,
    parse_aut,
    parse_lattice,
    parse_progression,
    parse_relation_document,
    render_aut,
    render_relation,
    resolve_relation,
)
from .gallery import build_T, verify_gallery
from .strata import compute_strata

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2


def _integer(text: str) -> int:
    # int() alone also reads other scripts' digits, such as "\u0662"
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}: use ASCII digits")
    return int(text)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _cmd_strata(args) -> int:
    lts = parse_aut(_read(args.lts))
    seq = compute_strata(lts)
    # stratum 0 is the largest, so one past the render limit fails first
    for k in range(seq.epsilon + 1):
        print(f"~{k} = {render_relation(seq.stratum(k), lts.state_names)}")
    print(f"epsilon = {seq.epsilon}")
    return OK


def _cmd_bisim(args) -> int:
    lts = parse_aut(_read(args.lts))
    seq = compute_strata(lts)
    print(f"bisimilarity = {render_relation(seq.bisimilarity(), lts.state_names)}")
    return OK


def _cmd_companion(args) -> int:
    lts = parse_aut(_read(args.lts))
    r = resolve_relation(parse_relation_document(_read(args.relation)), lts)
    seq = compute_strata(lts)
    index = seq.depth(r)
    print(f"lrf(R) = {render_relation(seq.stratum(index), lts.state_names)}")
    print(f"stratum = {index}")
    return OK


def _render_report(report: ProofReport, names) -> None:
    print(f"relation = {report.relation_name}")
    print(f"function = {report.function_name}")
    print(f"progression = {'holds' if report.progression_holds else 'fails'}")
    for v in report.diagnosis.violations[:10]:
        p, q = v.pair
        print(
            f"  unmatched: pair ({names[p]},{names[q]}), {v.direction} move "
            f"{names[v.source]} -{v.label}-> {names[v.target]}"
        )
    if len(report.diagnosis.violations) > 10:
        print(f"  ... and {len(report.diagnosis.violations) - 10} more")
    print(f"conclusion = {report.conclusion}")
    print(f"cross_check = {'true' if report.cross_check else 'false'}")


def _cmd_check_upto(args) -> int:
    from .companion import catalog, lrf_function

    lts = parse_aut(_read(args.lts))
    doc = parse_relation_document(_read(args.relation))
    r = resolve_relation(doc, lts)
    seq = compute_strata(lts)
    functions = {f.name: f for f in [*catalog(lts, seq), lrf_function(seq)]}
    if args.fn not in functions:
        known = ", ".join(sorted(functions))
        raise ValueError(f"unknown up-to function {args.fn!r}; trusted functions: {known}")
    report = check_upto(lts, r, functions[args.fn], doc.name or "R", seq=seq)
    _render_report(report, lts.state_names)
    return OK if report.conclusion == CONTAINED else CHECK_FAILED


def _cmd_gallery(args) -> int:
    if args.verify:
        verdict = verify_gallery(args.n)
        if verdict.passed:
            print(f"gallery n={args.n}: pass ({verdict.checked} cases)")
            return OK
        print(f"gallery n={args.n}: FAIL ({verdict.discrepancy})")
        return CHECK_FAILED
    sys.stdout.write(render_aut(build_T(args.n)))
    return OK


def _cmd_lattice_companion(args) -> int:
    from .lattice import companion_at, z_chain

    lattice = parse_lattice(_read(args.lattice))
    progression = parse_progression(_read(args.progression), lattice)
    chain = z_chain(lattice, progression)
    for k, z in enumerate(chain.zs):
        print(f"z[{k}] = {lattice.elements[z]}")
    print(f"stable at index {chain.stable_index}")
    for x in range(lattice.size):
        t = companion_at(lattice, progression, chain, x)
        print(f"companion({lattice.elements[x]}) = {lattice.elements[t]}")
    return OK


def run_verification(seed: int, samples: int):
    """``upto.verify.run_verification``, imported at the first call."""
    from .verify import run_verification

    return run_verification(seed=seed, samples=samples)


def _cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, samples=args.samples)
    sys.stdout.write(report.render())
    return OK if report.all_passed else CHECK_FAILED


def _cmd_export_dot(args) -> int:
    lts = parse_aut(_read(args.lts))
    sys.stdout.write(export_dot(lts))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upto",
        description="Stratified bisimilarity, up-to proof checking, and lattice companions "
        "on finite systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strata", help="print every stratum and the convergence index")
    p.add_argument("lts", help=".aut file, or - for stdin")
    p.set_defaults(run=_cmd_strata)

    p = sub.add_parser("bisim", help="print bisimilarity (the stable stratum)")
    p.add_argument("lts")
    p.set_defaults(run=_cmd_bisim)

    p = sub.add_parser("companion", help="print the smallest stratum containing a relation")
    p.add_argument("lts")
    p.add_argument("relation")
    p.set_defaults(run=_cmd_companion)

    p = sub.add_parser("check-upto", help="certify a relation as a bisimulation up-to")
    p.add_argument("lts")
    p.add_argument("relation")
    p.add_argument("--fn", default="lrf", help="trusted up-to function name (default: lrf)")
    p.set_defaults(run=_cmd_check_upto)

    p = sub.add_parser("gallery", help="emit the n-th ladder system, or verify its strata law")
    p.add_argument("n", type=_integer)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(run=_cmd_gallery)

    p = sub.add_parser("lattice-companion", help="z-chain and companion table of a progression")
    p.add_argument("lattice")
    p.add_argument("progression")
    p.set_defaults(run=_cmd_lattice_companion)

    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--samples", type=_integer, default=200)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("export-dot", help="DOT rendering of the transition graph")
    p.add_argument("lts")
    p.set_defaults(run=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except MemoryError as e:
        print(f"error: input too large: {str(e) or 'out of memory'}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
