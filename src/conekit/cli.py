"""Command-line interface: cone analysis, decomposition, covers, sweeps.

Cone files are JSON documents {"generators": [[...], ...]} whose inner lists
are generator columns.  Entries are JSON integers up to 2^53 - 1; larger
values must be written as decimal strings so no precision is lost.

Exit codes: 0 success, 1 standard output closed by its reader (e.g. piped
into `head`; nothing more is written), 2 parse error (including a cone file
that cannot be read or is not UTF-8, and an `--out` file that cannot be
written), 3 membership error (including a point of the wrong length), 4
precondition error, 5 internal certificate failure, 6 search node budget
exhausted.  Every error but exit 1 prints one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cones, cosets, cover, experiments, oracle, special
from .cones import SimplicialCone
from .decompose import decompose, icr_upper_bound, reduce_to_hilbert
from .errors import ConekitError, ParseError

_SAFE_INT = 2**53 - 1


def _parse_entry(x):
    if isinstance(x, bool) or isinstance(x, float):
        raise ParseError(f"matrix entry {x!r} is not an integer")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError as err:
            raise ParseError(f"matrix entry {x!r} is not an integer") from err
    raise ParseError(f"matrix entry {x!r} is not an integer")


def load_cone(path: str) -> SimplicialCone:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}") from err
    if not isinstance(doc, dict) or "generators" not in doc:
        raise ParseError(f"{path}: expected an object with a 'generators' key")
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParseError(f"{path}: 'generators' must be a non-empty list")
    parsed = []
    for col in gens:
        if not isinstance(col, list):
            raise ParseError(f"{path}: each generator must be a list")
        parsed.append(tuple(_parse_entry(x) for x in col))
    return SimplicialCone(tuple(parsed))


def dump_cone(cone: SimplicialCone) -> dict:
    return {
        "generators": [
            [x if abs(x) <= _SAFE_INT else str(x) for x in g]
            for g in cone.generators
        ]
    }


def _parse_point(text: str) -> tuple:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as err:
        raise ParseError(f"invalid point {text!r}") from err


def _trace_json(trace):
    steps = []
    for step in trace.steps:
        entry = {"kind": type(step).__name__}
        entry.update(vars(step))
        steps.append(entry)
    return steps


def _decomposition_json(dec) -> dict:
    return {
        "target": list(dec.target),
        "terms": [[c, list(v)] for c, v in dec.terms],
        "term_count": dec.term_count(),
        "all_hilbert": dec.all_hilbert,
        "trace": _trace_json(dec.trace),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    cone = load_cone(args.file)
    profile = cosets.coset_profile(cone)
    hb = cones.hilbert_basis(cone)
    bound = icr_upper_bound(cone)
    print(f"ambient dimension: {cone.ambient_dim}")
    print(f"cone dimension: {cone.dim}")
    print(f"multiplicity: {cones.multiplicity(cone)}")
    print(f"elementary divisors: {list(profile.elementary_divisors)}")
    print(f"cyclic quotient: {profile.cyclic}")
    print(f"integral duals: {[i for i, f in enumerate(profile.integral_flags) if f]}")
    print(f"equal coset pairs: {list(profile.equal_pairs)}")
    print(f"nontrivial coset classes: {profile.nontrivial_class_count}")
    print(f"hilbert basis size: {len(hb)}")
    print(f"icr upper bound: {bound.value} ({bound.method})")
    return 0


def cmd_decompose(args) -> int:
    cone = load_cone(args.file)
    z = _parse_point(args.point)
    dec = decompose(cone, z, node_budget=args.node_budget)
    if args.hilbert_only and not dec.all_hilbert:
        dec = reduce_to_hilbert(cone, dec, node_budget=args.node_budget)
    out = _decomposition_json(dec)
    if args.certify_oracle:
        report = oracle.min_terms(cone, z, node_budget=args.node_budget)
        out["oracle"] = {
            "status": report.status,
            "min_terms": report.min_terms,
            "nodes": report.nodes,
        }
    print(json.dumps(out, indent=2))
    return 0


def cmd_cover5(args) -> int:
    cone = load_cone(args.file)
    built = cover.build_cover_det5(cone)
    verification = oracle.verify_cover(built, cone)
    out = {
        "subcones": [
            {
                "labels": list(sub.labels),
                "generators": [list(g) for g in sub.cone.generators],
                "det": sub.det_coords,
                "parent_generators": sub.generator_count,
            }
            for sub in built.subcones
        ],
        "census": list(built.census),
        "volume": str(built.volume),
        "volume_target": str(built.volume_target),
        "disjoint_pairs": built.disjoint_pairs,
        "verified": verification.ok,
        "verification_failures": list(verification.failures),
    }
    print(json.dumps(out, indent=2))
    return 0 if verification.ok else 5


def _parse_dims(text: str):
    try:
        lo, hi = (int(end) for end in text.split(".."))
    except ValueError as err:
        raise ParseError(f"invalid dimension range {text!r}, expected a..b") from err
    _require_at_least("--dims lower end", lo, 1)
    _require_at_least("--dims upper end", hi, lo)
    return lo, hi


def _require_at_least(option: str, value, low: int) -> None:
    if value is not None and value < low:
        raise ParseError(f"{option} must be at least {low}, got {value}")


def cmd_experiment(args) -> int:
    lo, hi = _parse_dims(args.dims)
    _require_at_least("--min-det", args.min_det, 1)
    _require_at_least("--max-det", args.max_det, args.min_det)
    _require_at_least("--count", args.count, 0)
    _require_at_least("--dilation", args.dilation, 1)
    config = experiments.ExperimentConfig(
        dim_lo=lo,
        dim_hi=hi,
        det_lo=args.min_det,
        det_hi=args.max_det,
        count=args.count,
        dilation=args.dilation,
        seed=args.seed,
        node_budget=args.node_budget,
    )
    csv_text = experiments.rows_to_csv(experiments.run_experiment(config))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(csv_text)
        except OSError as err:
            raise ParseError(f"cannot write {args.out}: {err}") from err
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_special(args) -> int:
    if args.family == "skew":
        n = args.n
        r = _parse_point(args.r)
        cone, spec = special.make_skew_cone(n, r)
        report = special.check_skew_classes(spec)
        out = {
            "cone": dump_cone(cone),
            "offsets": list(spec.r),
            "offset_values": sorted(spec.values),
            "hypothesis_holds": spec.hypothesis_holds,
            "nontrivial_classes": report.nontrivial_class_count,
            "dimension_bound_applies": report.bound_applies,
            "cross_checks_ok": report.cross_checks_ok,
        }
    elif args.family == "gorenstein":
        cone = load_cone(args.file)
        check = special.gorenstein_check(cone)
        out = {
            "lambda": [str(x) for x in check.lam],
            "y": [str(x) for x in check.y],
            "y_integral": check.y_integral,
            "y_interior": check.y_interior,
            "covering_sampled": check.covering_sampled,
            "premise_holds": check.premise_holds,
            "divisor_count": check.divisor_count,
            "cyclic": check.cyclic,
        }
    else:  # pq
        cone = special.make_pq_cone(args.p, args.q)
        check = special.gorenstein_check(cone)
        skew = special.has_skew_normal_form(cone)
        out = {
            "cone": dump_cone(cone),
            "multiplicity": cones.multiplicity(cone),
            "premise_holds": check.premise_holds,
            "divisor_count": check.divisor_count,
            "cyclic": check.cyclic,
            "skew_normal_form": skew,
            "not_skew": not skew,
        }
    print(json.dumps(out, indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="Exact toolkit for Hilbert bases and cone decompositions",
    )
    parser.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help="node budget of each engine search and single-point oracle "
        "call (default 10^7); the experiment's sampled oracle runs no search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print lattice invariants of a cone")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="decompose an integer cone point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated integers")
    p.add_argument("--certify-oracle", action="store_true")
    p.add_argument("--hilbert-only", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cover5", help="build and verify the 18-subcone cover")
    p.add_argument("file")
    p.set_defaults(func=cmd_cover5)

    p = sub.add_parser("experiment", help="randomized sweep with CSV output")
    p.add_argument("--dims", required=True, help="dimension range, e.g. 3..5")
    p.add_argument("--min-det", type=int, default=1)
    p.add_argument("--max-det", type=int, default=5)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--dilation", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("special", help="structured cone families")
    fam = p.add_subparsers(dest="family", required=True)
    s = fam.add_parser("skew", help="all-but-one standard basis generators")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", required=True, help="comma-separated skew vector")
    s = fam.add_parser("gorenstein", help="minimal interior point premise")
    s.add_argument("file")
    s = fam.add_parser("pq", help="two-prime multiplicity-pq family")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_special)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_at_least("--node-budget", args.node_budget, 1)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
    except ConekitError as err:
        print(f"error: {err}", file=sys.stderr)
        return getattr(err, "exit_code", 5)
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; send that flush to
        # devnull so it cannot report the closed pipe a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
