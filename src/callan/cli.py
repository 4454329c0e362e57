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
import os
import sys
from functools import cache

from . import combinat, harness, numbers
from .bijections import (
    _phi_case,
    _phi_inverse_case,
    intermediate_from_json_dict,
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


def _ints_of_any_length(command):
    """The command, with Python's limit on int-to-text conversion (4,300
    digits, from 3.10.7) lifted while it runs: the limit guards the parsing
    of untrusted text, and the number commands only print what they computed."""

    def run(args: argparse.Namespace) -> int:
        if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
            return command(args)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return command(args)
        finally:
            sys.set_int_max_str_digits(limit)

    return run


@_ints_of_any_length
def _cmd_genocchi(args: argparse.Namespace) -> int:
    if args.max < 0:
        raise ValueError("--max must be nonnegative")
    for n in range(args.max + 1):
        print(f"{n} {numbers.genocchi(n)}")
    return 0


@_ints_of_any_length
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
        raise ValueError("--n and --k are required for families b and c")
    fn = numbers.poly_bernoulli_b if args.family == "b" else numbers.poly_bernoulli_c
    print(fn(args.n, args.k))  # a Fraction prints as an integer when it is one
    return 0


def _callan_json(cs) -> str:
    pairs = [{"blue": sorted(p.blue), "red": sorted(p.red), "extra": p.is_extra} for p in cs.pairs]
    obj = {"k": cs.k, "n": cs.n, "shift": cs.shift, "pairs": pairs}
    return json.dumps(obj, separators=(",", ":"))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    k, n, m = args.k, args.n, 0 if args.m is None else args.m
    if args.kind == "dumont":
        if n is None or n < 0 or n % 2 != 0:
            raise ValueError("dumont needs an even --n (the permutation length)")
        items = combinat.enumerate_dumont(n)
        lines = (json.dumps(list(p.values)) if args.json else str(p) for p in items)
    elif k is None or n is None:
        raise ValueError(f"{args.kind} needs --k and --n")
    elif k < 0 or n < 0 or m < 0:
        raise ValueError("sizes must be nonnegative")
    elif args.kind == "callan":
        items = combinat.enumerate_callan(k, n, m)
        lines = (_callan_json(cs) if args.json else str(cs) for cs in items)
    else:  # mbarred: counted by product, written straight from the packed stream
        items = combinat.enumerate_packed(k, n, m)
        lines = combinat.packed_lines(items, args.json)
    if args.count_only:
        print(combinat.count_mbarred(k, n, m) if args.kind == "mbarred" else sum(1 for _ in items))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return 0


# (map, case): the map's with_packed, which packs its input once and
# returns the packed forms beside the image; the case function, a packed
# core, reads the move from the packed input that the map has validated.
_MAPS = {
    "phi": (phi.with_packed, _phi_case),
    "phi-inv": (phi_inverse.with_packed, _phi_inverse_case),
    "psi": (psi.with_packed, None),
    "psi-b": (psi_b.with_packed, None),
    "psi-r": (psi_r.with_packed, None),
    "relabel": (relabel_max_min.with_packed, None),
}


def _cmd_map(args: argparse.Namespace) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # UnicodeDecodeError: a file that is not UTF-8;
        # RecursionError: JSON nested too deep for the decoder
        raise ValueError(f"cannot read {args.input}: {exc}") from exc
    fn, case_fn = _MAPS[args.which]
    try:
        if args.which == "psi-r":
            obj = intermediate_from_json_dict(data)
        else:
            obj = combinat.from_json_dict(data)
        seq, out, image = fn(obj)  # the one pack of this call
        case = case_fn(seq) if case_fn is not None else None
        if args.which == "psi-r":  # psi_r maps psi_b images into psi's image
            combinat._require_mbarred(out, "psi_r: not a psi-b image", psi_image)
    except (DomainError, ValueError) as exc:
        print(f"map: {exc}", file=sys.stderr)
        return 1
    print(f'{{"case":{json.dumps(case)},"result":{combinat.canonical_json(image)}}}')
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
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:  # the reader closed stdout early, as `| head -1` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE killed
    except ValueError as exc:  # a bad argument; map exits 1 on bad input itself
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:  # always a bug, never bad input
        print(f"{args.command}: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
