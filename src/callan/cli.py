"""Command-line front end.

Subcommands:

* ``genocchi --max N`` — print the Genocchi numbers up to index N.
* ``number --family b|c|ctable --n N --k K`` — one poly-Bernoulli value,
  or the full C-number table as CSV.
* ``enumerate --kind callan|mbarred|dumont --k K --n N --m M`` — list (or
  count) the combinatorial objects of one size.
* ``map --which phi|phi-inv|psi|psi-b|psi-r|relabel --input FILE.json`` —
  apply one bijection to a serialized sequence and print the image.
* ``verify --claim ... --max-weight W`` — run identity/bijection checks
  and exit 0 iff everything passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import combinat, harness, numbers
from .bijections import (
    _phi_case,
    _phi_inverse_case,
    intermediate_from_json_dict,
    intermediate_to_json_dict,
    phi,
    phi_inverse,
    psi,
    psi_b,
    psi_image,
    psi_r,
    relabel_max_min,
)
from .errors import ConsistencyError, DomainError

__all__ = ["main"]


def _cmd_genocchi(args: argparse.Namespace) -> int:
    if args.max < 0:
        print("genocchi: --max must be nonnegative", file=sys.stderr)
        return 2
    for n, value in enumerate(numbers.genocchi_list(args.max)):
        print(f"{n} {value}")
    return 0


def _cmd_number(args: argparse.Namespace) -> int:
    if args.family == "ctable":
        max_n = 5 if args.n is None else args.n
        max_k = 5 if args.k is None else args.k
        table = numbers.c_table(max_n, max_k)
        print("n\\k," + ",".join(str(k) for k in range(max_k + 1)))
        for n, row in enumerate(table):
            print(f"{n}," + ",".join(str(v) for v in row))
        return 0
    if args.n is None or args.k is None:
        print("number: --n and --k are required for families b and c", file=sys.stderr)
        return 2
    fn = numbers.poly_bernoulli_b if args.family == "b" else numbers.poly_bernoulli_c
    value = fn(args.n, args.k)
    if value.denominator == 1:
        value = value.numerator
    print(value)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "dumont":
        if args.n is None or args.n < 0 or args.n % 2 != 0:
            print("enumerate: dumont needs an even --n (the permutation length)",
                  file=sys.stderr)
            return 2
        items = combinat.enumerate_dumont(args.n)
        if args.count_only:
            print(sum(1 for _ in items))
            return 0
        for p in items:
            print(json.dumps(list(p.values)) if args.json else str(p))
        return 0

    if args.k is None or args.n is None:
        print(f"enumerate: {kind} needs --k and --n", file=sys.stderr)
        return 2
    m = args.m if args.m is not None else 0
    if args.k < 0 or args.n < 0 or m < 0:
        print("enumerate: sizes must be nonnegative", file=sys.stderr)
        return 2

    if kind == "callan":
        items = combinat.enumerate_callan(args.k, args.n, m)
        if args.count_only:
            print(sum(1 for _ in items))
            return 0
        for cs in items:
            if args.json:
                obj = {
                    "k": cs.k,
                    "n": cs.n,
                    "shift": cs.shift,
                    "pairs": [combinat._element_to_json(p)["pair"] for p in cs.pairs],
                }
                print(json.dumps(obj, separators=(",", ":")))
            else:
                print(cs)
        return 0

    # kind == "mbarred"
    if args.count_only:
        print(combinat.count_mbarred(args.k, args.n, m))
        return 0
    for seq in combinat.enumerate_mbarred(args.k, args.n, m):
        print(combinat.canonical_json(seq) if args.json else str(seq))
    return 0


# (map, case): the case function reads the move from an input that the map
# has already validated.
_MAPS = {
    "phi": (phi, _phi_case),
    "phi-inv": (phi_inverse, _phi_inverse_case),
    "psi": (psi, None),
    "psi-b": (psi_b, None),
    "psi-r": (psi_r, None),
    "relabel": (relabel_max_min, None),
}


def _cmd_map(args: argparse.Namespace) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"map: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    fn, case_fn = _MAPS[args.which]
    try:
        if args.which == "psi-r":
            obj = intermediate_from_json_dict(data)
        else:
            obj = combinat.from_json_dict(data)
        image = fn(obj)
        case = case_fn(obj) if case_fn is not None else None
        if args.which == "psi-r":  # psi_r maps psi_b images into psi's image
            combinat._require_mbarred(image, "psi_r: not a psi-b image", psi_image)
    except (DomainError, ValueError) as exc:
        print(f"map: {exc}", file=sys.stderr)
        return 1
    if args.which == "psi-b":
        result = intermediate_to_json_dict(image)
    else:
        result = combinat.to_json_dict(image)
    print(json.dumps({"case": case, "result": result}, separators=(",", ":")))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = harness.run_claim(args.claim, args.max_weight)
    reports = sorted(reports, key=harness.report_sort_key)
    failed = 0
    for r in reports:
        if not r.passed:
            failed += 1
        if args.json:
            print(json.dumps(harness.report_to_json_dict(r), separators=(",", ":")))
        else:
            params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
            print(f"{r.status:4s}  {r.claim_id:14s} {params:18s} "
                  f"lhs={r.lhs} rhs={r.rhs} ({r.elapsed:.3f}s)")
            for ce in r.counterexamples:
                print(f"      counterexample: {json.dumps(ce, separators=(',', ':'))}")
    if not args.json:
        print(f"{len(reports)} reports, {len(reports) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


@cache  # built once per process; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="callan",
        description="Genocchi / poly-Bernoulli numbers, Callan sequence "
        "enumeration, and bijection verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genocchi", help="print Genocchi numbers 0..N")
    p.add_argument("--max", type=int, required=True, help="largest index")
    p.set_defaults(fn=_cmd_genocchi)

    p = sub.add_parser("number", help="poly-Bernoulli values and the C-number table")
    p.add_argument("--family", choices=("b", "c", "ctable"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(fn=_cmd_number)

    p = sub.add_parser("enumerate", help="list Callan sequences, barred "
                       "sequences, or Dumont permutations")
    p.add_argument("--kind", choices=("callan", "mbarred", "dumont"), required=True)
    p.add_argument("--k", type=int, help="number of blue elements")
    p.add_argument("--n", type=int,
                   help="number of red elements (dumont: permutation length)")
    p.add_argument("--m", type=int,
                   help="number of blue bars (callan: label shift); default 0")
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("map", help="apply a bijection to a serialized sequence")
    p.add_argument("--which", choices=sorted(_MAPS), required=True)
    p.add_argument("--input", required=True, metavar="FILE.json")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("verify", help="check the identities and bijections")
    p.add_argument("--claim", choices=harness.CLAIM_NAMES + ("all",), default="all")
    p.add_argument("--max-weight", type=int, default=8, dest="max_weight")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a bad argument; map exits 1 on bad input itself
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:  # always a bug, never bad input
        print(f"{args.command}: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
