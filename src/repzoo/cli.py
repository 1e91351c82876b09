"""Command-line interface.

Exit codes: 0 = all assertions hold, 1 = a mathematical assertion failed
(witness JSON on stdout), 2 = configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .groups import BudgetExceededError, DEFAULT_BUDGET, GroupScheme, check_budget
from .harness import (
    AlignmentError,
    AmbiguousFitError,
    CACHE_ENV,
    ExperimentConfig,
    compare_rings,
    compute_clifford_report,
    compute_degrees,
    fit_polynomials,
    render_fit,
    run_dimirr,
)
from .lietype import candidate_set, require_split, root_datum, verify_containment
from .localring import RingConstructionError, RingSpec


def _cmd_dimirr(args) -> int:
    scheme = GroupScheme.parse(args.scheme)
    specs = tuple(RingSpec.parse(tok) for tok in args.ring)
    config = ExperimentConfig(
        scheme, specs, engine=args.engine, budget=args.budget, cache_dir=args.cache_dir
    )
    results = run_dimirr(config)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 1 if any("error" in payload for payload in results.values()) else 0


def _cmd_fit(args) -> int:
    scheme = GroupScheme.parse(args.scheme)
    level = args.level
    sample_qs = [int(tok) for tok in args.samples.split(",")]
    if len(set(sample_qs)) < 3:
        raise ValueError(f"need at least 3 distinct sample values of q, got {args.samples!r}")
    hq = None if args.holdout is None else int(args.holdout)
    if hq in sample_qs:
        raise ValueError(f"holdout q={hq} is one of the samples, which every fit reproduces")
    # every argument is checked before the first oracle runs; at level >= 2 the
    # samples and the holdout all go through the Clifford engine
    specs = {q: RingSpec.for_q(q, level) for q in [*sample_qs, hq] if q is not None}
    for spec in specs.values():
        check_budget(scheme, spec, args.budget, clifford=level >= 2)
    samples = {}
    for q in sample_qs:
        if level >= 2:
            samples[q] = compute_clifford_report(scheme, specs[q], args.budget)
        else:
            samples[q] = compute_degrees(scheme, specs[q], "chardeg", args.budget)
    holdout = None if hq is None else (hq, compute_degrees(scheme, specs[hq], "auto", args.budget))
    report = fit_polynomials(scheme, level, samples, holdout=holdout)
    text = render_fit(report, args.format)
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    if holdout is not None and not report.holdout_match:
        print(json.dumps({"holdout_diff": [list(t) for t in report.holdout_diff]}))
        return 1
    return 0


def _cmd_compare(args) -> int:
    scheme = GroupScheme.parse(args.scheme)
    report = compare_rings(
        scheme, RingSpec.parse(args.a), RingSpec.parse(args.b), args.engine, args.budget
    )
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0 if report.equal else 1


def _cmd_lietype(args) -> int:
    scheme = GroupScheme.parse(args.family)
    datum = root_datum(scheme.family, scheme.n)
    # --verify is checked before the candidate set is built
    qs = []
    if args.verify:
        qs = [int(tok) for tok in args.verify.split(",")]
        require_split(args.twist)
        for q in qs:
            check_budget(scheme, RingSpec.for_q(q, 1), args.budget)
    cands = candidate_set(datum, args.twist)
    containment = None
    code = 0
    if qs:
        report = verify_containment(scheme, args.twist, cands, qs, args.budget)
        containment = json.dumps(report.to_json(), indent=2, sort_keys=True)
        if not report.all_contained:
            code = 1
    # the output is json.dumps({"candidate_set": .., "containment": ..},
    # indent=2, sort_keys=True) + "\n", written as it is rendered: the GL3
    # candidate set alone is 5.58 MB of text
    write = sys.stdout.write
    write('{\n  "candidate_set": ')
    cands.write_json(write, "  ")
    if containment is not None:
        write(',\n  "containment": ' + containment.replace("\n", "\n  "))
    write("\n}\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repzoo",
        description="Character degree multisets of matrix groups over finite quotient rings.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"oracle cache directory (default: ${CACHE_ENV} or .repzoo_cache)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dimirr", help="compute degree multisets over a family of rings")
    p.add_argument("--scheme", required=True, help="e.g. GL2, SL2, U3, B2, T2")
    p.add_argument("--ring", required=True, action="append",
                   help="ring spec, e.g. unram:3,1,2 eqchar:3,1,2 eis:3,1,2,2 (repeatable)")
    p.add_argument("--engine", default="both", choices=["chardeg", "clifford", "both", "auto"])
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_dimirr)

    p = sub.add_parser("fit", help="fit dimension/multiplicity polynomials in q")
    p.add_argument("--scheme", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--samples", required=True, help="comma-separated q values, e.g. 2,3,4")
    p.add_argument("--holdout", default=None, help="holdout q value")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", default="markdown", choices=["markdown", "json", "csv"])
    p.add_argument("--out", default=None, help="write the report to this path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="compare degree multisets over two rings")
    p.add_argument("--scheme", required=True)
    p.add_argument("--a", required=True, help="first ring spec")
    p.add_argument("--b", required=True, help="second ring spec")
    p.add_argument("--engine", default="auto", choices=["chardeg", "clifford", "both", "auto"])
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("lietype", help="candidate degree polynomials from root data")
    p.add_argument("--family", required=True,
                   help="GL1..GL3 or SL2, SL3 (the GL4 and SL4 boxes exceed the enumeration limit)")
    p.add_argument("--twist", default="split", choices=["split", "unitary"])
    p.add_argument("--verify", default=None, help="comma-separated q values to verify containment")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_lietype)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlignmentError, AmbiguousFitError) as exc:
        print(json.dumps({"assertion_failure": str(exc)}))
        return 1
    except (BudgetExceededError, RingConstructionError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(json.dumps({"assertion_failure": repr(exc.args)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
