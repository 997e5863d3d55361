"""Command-line front end: construct, analyze, classify, enumerate, self-test.

Each command parses its flags, calls the library, which checks the values
and builds the payload, and prints it as JSON.  The CLI's own checks are on
flags alone: construct refuses a flag its family does not read (`CATALOG`),
--cos values must be finite numbers in [0, 1], and a single --angles value
an angle in [0, pi/2].

Exit codes: 0 success, 2 user or parameter error, 3 internal numerical
failure.  `selftest`, the one command that samples, reads --seed (default
0); no verdict reads a seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .classify import _Analysis, _report_fields, classify_subspace
from .families import CATALOG, FamilySpec, construct
from .moduli import HALF_PI, AngleTriple, moduli_describe, moduli_membership
from .serialize import load_subspace, save_subspace
from .subspace import NumericalFailure

__all__ = ["main"]

# The catalog's families by their --family names, and the FamilySpec field
# each optional construct flag sets besides the angle flags.
_CHOICES = {"sum" if name == "sum_type" else name: name for name in CATALOG}
_FIELDS = {"sign": "sign", "lplus": "l_plus", "lminus": "l_minus"}


def _seed_arg(text: str) -> int:
    """An argparse type: a non-negative integer, so a bad --seed is refused
    where it enters (exit 2, naming the flag)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _emit(payload: dict) -> None:
    # Serialized whole first: a refused payload (NaN or inf) writes nothing.
    text = json.dumps(payload, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _in_range(flag: str, values: list[float], top: float, shown: str) -> list[float]:
    """Values of an angle flag, refused unless each is a finite number in
    [0, top], naming the flag."""
    for v in values:
        if not 0.0 <= v <= top:
            raise ValueError(f"{flag} values must be finite numbers in [0, {shown}], got {v}")
    return values


def _parse_angles(args) -> tuple[AngleTriple | None, float | None]:
    """Angle inputs: a full triple, or the cosine of a family's one angle,
    in radians (--angles, or --triple of moduli) or as cosines (--cos).
    Cosines are stored as given; one angle is range-checked, then its
    cosine is taken once."""
    values = args.angles if args.cos is None else _in_range("--cos", args.cos, 1.0, "1")
    if values is None:
        return None, None
    if len(values) == 3:
        return (AngleTriple(*sorted(values)) if args.cos is None
                else AngleTriple.from_cosines(values)), None
    if len(values) != 1:
        raise ValueError("--angles/--cos take one value (a family parameter) or three")
    if args.cos is None:
        values = [math.cos(_in_range("--angles", values, HALF_PI, "pi/2")[0])]
    return None, values[0]


def _spec_from_args(args) -> FamilySpec:
    """Map the construct flags onto a FamilySpec; `construct` validates it.

    A flag the family does not read (`CATALOG`) is refused, naming it; one
    angle where it reads a triple is refused by `construct` as no triple."""
    family = _CHOICES[args.family]
    reads = CATALOG[family].reads
    triple, c = _parse_angles(args)
    angle = "angles" if triple is not None or "angles" in reads else "cos"
    unread = [f"--{flag}" for flag, field in (("angles", angle), ("cos", angle), *_FIELDS.items())
              if getattr(args, flag) is not None and field not in reads]
    if unread:
        raise ValueError(f"--family {args.family} does not read {', '.join(unread)}")
    return FamilySpec(family, n=args.n, k=args.k, cos=c, angles=triple,
                      sign=-1 if args.sign == "-" else 1,
                      l_plus=args.lplus or 0, l_minus=args.lminus or 0)


def _cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    space = construct(spec)
    if args.k is not None and args.k != space.k:  # v3, v4 and sum fix their own k
        raise ValueError(f"--family {args.family} builds dimension {space.k}, but --k is {args.k}")
    # The same analysis as `angles` and `classify`, so all three report one spread.
    analysis = _Analysis(space)
    fields = _report_fields(analysis)
    meta = {"family": spec.family, "cosines": [round(c, 15) for c in fields["cosines"]]}
    # The sign ("branch") and block counts, where the family reads them.
    meta.update({"branch" if name == "sign" else name: getattr(spec, name)
                 for name in _FIELDS.values() if name in CATALOG[spec.family].reads})
    save_subspace(args.out, space, meta)
    _emit({"path": args.out, **fields, "meta": meta})
    return 0


def _cmd_angles(args) -> int:
    space, _ = load_subspace(args.path)
    # The same analysis as `classify`, so both report one joint residual.
    analysis = _Analysis(space)
    _emit({**_report_fields(analysis), "samples": analysis.report.samples,
           "joint_residual": analysis.exact.residual})
    return 0


def _cmd_classify(args) -> int:
    space, _ = load_subspace(args.path)
    _emit(classify_subspace(space))
    return 0


def _cmd_moduli(args) -> int:
    triple, _ = _parse_angles(args)
    if triple is None:
        _emit(moduli_describe(args.k, args.n))
        return 0
    hits = moduli_membership(args.k, args.n, triple)
    _emit({
        "k": args.k,
        "n": args.n,
        "triple": list(triple.as_tuple()),
        "cosines": list(triple.cos_tuple()),
        "member": bool(hits),
        "strata": [h.to_dict() for h in hits],
    })
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

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

    p = sub.add_parser("construct", help="build a subspace and write it to JSON")
    p.add_argument("--family", required=True, choices=list(_CHOICES))
    p.add_argument("--k", type=int, help="real dimension (classical families)")
    p.add_argument("--n", type=int, required=True, help="ambient quaternionic dimension")
    angle = p.add_mutually_exclusive_group()
    angle.add_argument("--angles", type=float, nargs="+", metavar="RAD",
                       help="angle triple in radians, or a single family parameter")
    angle.add_argument("--cos", type=float, nargs="+", metavar="COS",
                       help="angle cosines instead of radians")
    p.add_argument("--sign", choices=["+", "-"], help="class sign for v3/v4")
    p.add_argument("--lplus", type=int, help="plus blocks in a sum (default 0)")
    p.add_argument("--lminus", type=int, help="minus blocks in a sum (default 0)")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("angles", help="angle triple and constancy report of a file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("classify", help="full classification record of a file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("moduli", help="stratification of the (k, n) moduli space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    angle = p.add_mutually_exclusive_group()
    angle.add_argument("--triple", type=float, nargs=3, metavar="RAD", dest="angles")
    angle.add_argument("--cos", type=float, nargs=3, metavar="COS")
    p.set_defaults(func=_cmd_moduli)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", default=True)
    mode.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
