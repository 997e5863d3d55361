"""Command-line front end: construct, analyze, classify, enumerate, self-test.

Exit codes: 0 success, 2 user or parameter error, 3 internal numerical
failure.  The environment variable QKA_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .classify import _Analysis, classify_subspace, moduli_describe, moduli_membership, snapped
from .families import CLASSICAL_FAMILIES, FamilySpec, construct
from .selftest import run_selftest
from .serialize import load_subspace, save_subspace
from .subspace import AngleTriple, NumericalFailure, constancy_check

__all__ = ["main"]

_FAMILIES = CLASSICAL_FAMILIES + ("v3", "v4", "sum")


def _default_seed() -> int:
    try:
        return int(os.environ.get("QKA_SEED", "0"))
    except ValueError:
        return 0


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_angles(args) -> tuple[AngleTriple | None, float | None]:
    """Angle inputs: full triple or a single family parameter phi."""
    values = None
    if getattr(args, "cos", None) is not None:
        values = [math.acos(max(-1.0, min(1.0, c))) for c in args.cos]
    elif getattr(args, "angles", None) is not None:
        values = list(args.angles)
    if values is None:
        return None, getattr(args, "phi", None)
    if len(values) == 1:
        return None, values[0]
    if len(values) == 3:
        return AngleTriple(*sorted(values)), values[0]
    raise ValueError("--angles/--cos take one value (a family parameter) or three")


def _spec_from_args(args) -> FamilySpec:
    triple, phi = _parse_angles(args)
    family = args.family
    sign = 1 if args.sign in (None, "+", "+1", "1") else -1
    if args.sign not in (None, "+", "-", "+1", "-1", "1"):
        raise ValueError("--sign must be + or -")
    if family == "sum":
        if triple is None:
            raise ValueError("sum needs three angles (--angles or --cos)")
        return FamilySpec("sum_type", n=args.n, angles=triple,
                          l_plus=args.lplus, l_minus=args.lminus)
    if family == "v4":
        if triple is None:
            raise ValueError("v4 needs three angles (--angles or --cos)")
        return FamilySpec("v4", n=args.n, angles=triple, sign=sign)
    if family == "v3":
        if phi is None:
            raise ValueError("v3 needs an angle (--angles/--cos/--phi)")
        return FamilySpec("v3", n=args.n, phi=phi, sign=sign)
    if family in ("cka_plane_sum", "complexified_cka"):
        if phi is None:
            raise ValueError(f"{family} needs an angle (--angles/--cos/--phi)")
        return FamilySpec(family, n=args.n, k=args.k, phi=phi)
    if family == "im_h_line":
        return FamilySpec(family, n=args.n, k=3)
    if args.k is None:
        raise ValueError(f"{family} needs a dimension --k")
    return FamilySpec(family, n=args.n, k=args.k)


def _cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    space = construct(spec)
    report = constancy_check(space, samples=args.samples, seed=args.seed)
    triple = snapped(report.triple)
    meta = {
        "family": spec.family,
        "cosines": [round(c, 15) for c in triple.cosines().tolist()],
        "seed": args.seed,
    }
    if spec.family == "v3" or spec.family == "v4":
        meta["branch"] = spec.sign
    if spec.family == "sum_type":
        meta["l_plus"] = spec.l_plus
        meta["l_minus"] = spec.l_minus
    save_subspace(args.out, space, meta)
    _emit({
        "path": args.out,
        "n": space.n,
        "k": space.k,
        "triple": list(report.triple.as_tuple()),
        "cosines": triple.cosines().tolist(),
        "constant": report.constant,
        "spread": report.max_spread,
        "meta": meta,
    })
    return 0


def _cmd_angles(args) -> int:
    space, _ = load_subspace(args.path)
    # The same analysis as `classify`, so both report one joint residual.
    analysis = _Analysis(space, args.samples, args.seed)
    report = analysis.report
    _, residual = analysis.joint
    _emit({
        "n": space.n,
        "k": space.k,
        "triple": list(report.triple.as_tuple()),
        "cosines": report.triple.cosines().tolist(),
        "spread": report.max_spread,
        "constant": report.constant,
        "samples": report.samples,
        "joint_residual": residual,
    })
    return 0


def _cmd_classify(args) -> int:
    space, _ = load_subspace(args.path)
    _emit(classify_subspace(space, samples=args.samples, seed=args.seed))
    return 0


def _cmd_moduli(args) -> int:
    if args.n < 1:
        raise ValueError("n must be positive")
    if not 0 <= args.k <= 4 * args.n:
        raise ValueError(f"k must lie in [0, {4 * args.n}]")
    triple = None
    if args.cos is not None:
        triple = AngleTriple.from_cosines(args.cos)
    elif args.triple is not None:
        triple = AngleTriple(*sorted(args.triple))
    if triple is None:
        _emit(moduli_describe(args.k, args.n))
        return 0
    if args.k == 0:
        raise ValueError("membership queries need k >= 1")
    hits = moduli_membership(args.k, args.n, triple)
    _emit({
        "k": args.k,
        "n": args.n,
        "triple": list(triple.as_tuple()),
        "cosines": triple.cosines().tolist(),
        "member": bool(hits),
        "strata": [h.to_dict() for h in hits],
    })
    return 0


def _cmd_selftest(args) -> int:
    quick = not args.full
    results = run_selftest(quick=quick, seed=args.seed, stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    print(f"{'OK' if not failed else 'FAILED'}: {len(results) - len(failed)}/"
          f"{len(results)} criteria passed ({'quick' if quick else 'full'} mode)")
    return 0 if not failed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qka",
        description="Constant quaternionic Kahler angle subspaces: construction, "
                    "classification, and moduli enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p = sub.add_parser("construct", help="build a subspace and write it to JSON")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--k", type=int, help="real dimension (classical families)")
    p.add_argument("--n", type=int, required=True, help="ambient quaternionic dimension")
    p.add_argument("--angles", type=float, nargs="+", metavar="RAD",
                   help="angle triple in radians, or a single family parameter")
    p.add_argument("--cos", type=float, nargs="+", metavar="COS",
                   help="angle cosines instead of radians")
    p.add_argument("--phi", type=float, help="single-angle family parameter (radians)")
    p.add_argument("--sign", choices=["+", "-"], help="class sign for v3/v4")
    p.add_argument("--lplus", type=int, default=0, help="plus blocks in a sum")
    p.add_argument("--lminus", type=int, default=0, help="minus blocks in a sum")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("angles", help="angle triple and constancy report of a file")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("classify", help="full classification record of a file")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("moduli", help="stratification of the (k, n) moduli space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--triple", type=float, nargs=3, metavar="RAD")
    p.add_argument("--cos", type=float, nargs=3, metavar="COS")
    p.set_defaults(func=_cmd_moduli)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True)
    mode.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
