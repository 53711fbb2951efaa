"""Command-line front end.

Subcommands: coeff, triangle, twisted, necklaces, verify; text, JSON, and
CSV output where it makes sense.  Each subcommand computes its data and
exit code, then makes one call to the single renderer, ``_emit``, which
builds only the requested format and is the one writer of stdout.  JSON
is streamed: ``_chunks`` cuts the bytes of ``json.dumps`` with indent=2
into pieces the size of a row or of a run of flat dicts, each run found
with no Python call per item and encoded in one C-encoder call, and
``_emit`` hands them to ``writelines``, so no string of the whole document
is ever held.  Exit codes: 0 success / full agreement, 1 closed-vs-oracle
divergence, 2 usage or enumeration-limit errors, 141 when the reader
closes stdout early (as under SIGPIPE).  The base field never enters the
numbers, so --q only checks that the field order is an odd prime power.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain, compress, count, repeat, zip_longest
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import comb
from operator import not_

from .arith import _smallest_factor, valuation
from .coefficients import (
    VerifyReport,
    _triangle_json,
    triangle_rows,
    twisted_closed,
    twisted_oracle,
    untwisted_closed,
    untwisted_oracle,
    verify,
)
from .gw import GWElem, gw_display
from .necklaces import check_enumeration, orbit_catalog

FORMATS = ("text", "json", "csv")
MAX_Q = 10**10  # --q is checked by trial division: sqrt(MAX_Q) steps, about 0.04 s
MAX_TWISTED_J = 4000  # max_j^2 work; --max-j 4000 as JSON: about 2.5-2.8 s, 71 MB (Python 3.11.7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwbinom",
        description=(
            "Enriched binomial coefficients over finite fields of odd"
            " characteristic, with necklace-orbit cross-validation."
        ),
    )
    parser.add_argument(
        "--q",
        type=int,
        help="order of the base field; validated to be an odd prime power of at"
        f" most {MAX_Q}, nothing else (the values are the same for every such q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="one enriched coefficient")
    p.add_argument("--n", type=int, help="bead count (defaults to 2j when --twisted)")
    p.add_argument("--j", type=int, required=True, help="blue bead count")
    p.add_argument("--twisted", action="store_true", help="twisted coefficient (n = 2j)")
    p.add_argument("--oracle", action="store_true", help="also run the enumeration oracle")
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("triangle", help="rows of the enriched triangle")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("twisted", help="the twisted coefficient sequence")
    p.add_argument("--max-j", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="also run the enumeration oracle")
    p.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser("necklaces", help="rotation-orbit catalog for (n, j)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--classify", action="store_true",
                   help="add the type-1/type-2/odd flip-fixed summary (even n only)")
    p.add_argument("--format", choices=FORMATS, default="json")

    p = sub.add_parser("verify", help="closed-form vs oracle sweep")
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--twisted-max-j", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _chunks(obj):
    """Pieces whose concatenation is json.dumps(obj, indent=2), byte for byte,
    on plain dicts (str keys), lists, tuples and scalars.  A container holding
    no non-empty container is one C-encoder call; its item separator adds
    every newline, as strings escape theirs.  In a list of non-empty plain
    dicts, each maximal run of such flat dicts is one call at the dicts'
    indent, whose "}" + separator + "{" seams are re-broken onto their own
    lines: escaped strings hold no newline, so only the seam between two
    dicts matches.  Passes of C functions find one whole run or the nested
    dicts that cut the runs, with no Python call per item.  Any other list
    is cut at every item.  A dict streams its members and a list yields one
    piece per item or run, so the pieces are members, rows, runs and closing
    brackets, not one per token."""
    if c_make_encoder is None:  # an interpreter without CPython's _json
        yield json.dumps(obj, indent=2)
        return
    encoders = {}

    def enc(o, sep: str) -> str:  # o by the C encoder, items separated by sep
        e = encoders.get(sep) or encoders.setdefault(sep, c_make_encoder(
            None, None, encode_basestring_ascii, None, ": ", sep, False, False, True))
        return "".join(e(o, 0))

    containers = frozenset({dict, list, tuple})  # opened when not empty

    def flat(items) -> bool:
        return containers.isdisjoint(map(type, filter(None, items)))

    def chunks(o, outer: str, head: str):
        # outer: a comma, a newline and o's indent; head leads the first piece
        sep = outer + "  "
        is_dict = isinstance(o, dict)
        items = o.values() if is_dict else o if isinstance(o, (list, tuple)) else ()
        left, right = "{}" if is_dict else "[]"
        if not items:  # a scalar, [] or {}
            yield head + enc(o, sep)
            return
        if flat(items):
            yield f"{head}{left}{sep[1:]}{enc(o, sep)[1:-1]}{outer[1:]}{right}"
            return
        head += left + sep[1:]
        if is_dict:
            for k in o:
                yield from chunks(o[k], sep, f"{head}{encode_basestring_ascii(k)}: ")
                head = sep
        else:
            inner = sep + "  "
            seam = f"{sep[1:]}}}{sep}{{{inner[1:]}"
            cuts = range(len(o))
            if set(map(type, o)) == {dict} and all(o):
                whole = flat(chain.from_iterable(map(dict.values, o)))
                # flat(v.values()) per v, by maps of C functions; nested v cut runs
                flags = map(containers.isdisjoint,
                            map(map, repeat(type), map(filter, repeat(None), map(dict.values, o))))
                cuts = () if whole else compress(count(), map(not_, flags))
            start = 0
            for cut in chain(cuts, [len(o)]):
                if start < cut:  # a run
                    body = enc(o[start:cut], inner)[2:-2].replace("}" + inner + "{", seam)
                    yield f"{head}{{{inner[1:]}{body}{sep[1:]}}}"
                    head = sep
                if cut < len(o):
                    yield head + "".join(chunks(o[cut], sep, ""))
                    head = sep
                start = cut + 1
        yield outer[1:] + right

    yield from chunks(obj, ",\n", "")


def _emit(fmt: str, obj, header, rows, lines) -> None:
    """Print only the requested format: JSON of the zero-argument callable obj
    (the bytes of json.dumps with indent=2) as the pieces of _chunks, written
    by writelines, so no string of the whole document is held; CSV from
    header and the iterable rows; text from the iterable lines.  This is the
    one writer of stdout."""
    if fmt == "json":
        sys.stdout.writelines(_chunks(obj()))
        print()
    elif fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    else:
        for line in lines:
            print(line)


def _check_printable(n: int, j: int) -> None:
    """Refuse, before any output, a rank C(n, j) with more digits than Python
    will print.  A cell with j outside 0..n passes, for the calculation to reject."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (no limit) before 3.10.7
    k = min(j, n - j)
    bound = 10**limit
    # C(n, k) >= 2^k, so a large k is refused without computing C(n, k)
    if limit and k >= 0 and (k >= bound.bit_length() or comb(n, k) >= bound):
        raise ValueError(f"C({n}, {j}) has more than {limit} digits, the limit on"
                         " printing an integer (sys.get_int_max_str_digits())")


def _cmd_coeff(args) -> int:
    if args.twisted:
        if args.n is not None and args.n != 2 * args.j:
            raise ValueError(f"--twisted requires n = 2j, got n={args.n}, j={args.j}")
        _check_printable(2 * args.j, args.j)
        closed = twisted_closed(args.j)
        oracle = twisted_oracle(args.j) if args.oracle else None
    else:
        if args.n is None:
            raise ValueError("--n is required unless --twisted is given")
        _check_printable(args.n, args.j)
        closed = untwisted_closed(args.n, args.j)
        oracle = untwisted_oracle(args.n, args.j) if args.oracle else None
    cells = [closed] if oracle is None else [closed, oracle]
    agree = cells[-1].value == closed.value

    def obj() -> dict:
        out = {"value": closed.to_json()}
        if oracle is not None:
            out.update(oracle=oracle.to_json(), agree=agree)
        return out

    def lines():
        yield closed.display
        yield f"rank={closed.value.rank} disc={closed.value.disc_name}"
        if oracle is not None:
            yield f"oracle={oracle.display} agree={'yes' if agree else 'NO'}"

    _emit(args.format, obj, ["n", "j", "twisted", "method", "rank", "disc", "display"],
          ([c.n, c.j, c.twisted, c.method, c.value.rank, c.value.disc_name, c.display]
           for c in cells), lines())
    return 0 if agree else 1


def triangle_text(rows: list[list[GWElem]]) -> str:
    """Centered text triangle of class rows; entries joined by double spaces."""
    lines = ["  ".join(map(gw_display, row)) for row in rows]
    width = len(lines[-1])
    return "\n".join(line.center(width).rstrip() for line in lines)


def _cmd_triangle(args) -> int:
    _check_printable(args.rows - 1, (args.rows - 1) // 2)
    rows = triangle_rows(args.rows)
    _emit(args.format, lambda: _triangle_json(rows), ["row", "j", "rank", "disc", "display"],
          ([n, j, v.rank, v.disc_name, gw_display(v)]
           for n, row in enumerate(rows) for j, v in enumerate(row)),
          map(triangle_text, [rows]))
    return 0


def _cmd_twisted(args) -> int:
    if args.max_j < 1:
        raise ValueError(f"--max-j must be positive, got {args.max_j}")
    if args.oracle:
        check_enumeration(2 * args.max_j, args.max_j)
    _check_printable(2 * args.max_j, args.max_j)
    if args.max_j > MAX_TWISTED_J:
        raise ValueError(f"--max-j {args.max_j} exceeds the twisted-sequence budget"
                         f" of {MAX_TWISTED_J} (MAX_TWISTED_J)")
    cells = [twisted_closed(j) for j in range(1, args.max_j + 1)]
    oracles = [twisted_oracle(j) for j in range(1, args.max_j + 1)] if args.oracle else []
    agree = all(a.value == b.value for a, b in zip(cells, oracles))

    def obj() -> dict:
        out = {"max_j": args.max_j, "sequence": [c.to_json() for c in cells]}
        if args.oracle:
            out.update(oracle=[c.to_json() for c in oracles], agree=agree)
        return out

    def lines():
        for c, o in zip_longest(cells, oracles):
            line = f"{c.j}\t{c.display}"
            if o is not None:
                line += f"\toracle={o.display} agree={'yes' if o.value == c.value else 'NO'}"
            yield line

    _emit(args.format, obj, ["j", "rank", "disc", "display"],
          ([c.j, c.value.rank, c.value.disc_name, c.display] for c in cells), lines())
    return 0 if agree else 1


def _cmd_necklaces(args) -> int:
    catalog = orbit_catalog(args.n, args.j, classify=args.classify)
    orbits = catalog["orbits"]

    def lines():
        yield f"orbits of (n={args.n}, j={args.j}): {len(orbits)}"
        for o in orbits:
            axes = ",".join(f"m={a['m']}:type{a['type']}" for a in o["axes"]) or "-"
            yield (f"  {o['canonical']}  period={o['period']}"
                   f"  flip_fixed={'yes' if o['flip_fixed'] else 'no'}  axes={axes}")
        if "classification" in catalog:
            c = catalog["classification"]
            yield (f"flip-fixed summary: type1_even={c['type1_even']}"
                   f" type2_even={c['type2_even']} odd_fixed={c['odd_fixed']}")

    _emit(args.format, lambda: catalog, ["n", "j", "canonical", "period", "flip_fixed", "axes"],
          ([args.n, args.j, o["canonical"], o["period"], o["flip_fixed"],
            "|".join(f"{a['m']}:{a['type']}" for a in o["axes"])] for o in orbits), lines())
    return 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    report = verify(args.max_n, args.twisted_max_j, jobs=args.jobs)
    _emit(args.format, report.to_json, None, (), map(VerifyReport.render_text, [report]))
    return 0 if report.ok else 1


_COMMANDS = {
    "coeff": _cmd_coeff,
    "triangle": _cmd_triangle,
    "twisted": _cmd_twisted,
    "necklaces": _cmd_necklaces,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    q = args.q
    try:
        if q is not None and q % 2 == 0:
            raise ValueError(f"--q must be odd, got {q}")
        if q is not None and q > MAX_Q:
            raise ValueError(f"--q must be at most {MAX_Q} (MAX_Q), got {q}")
        if q is not None and (q < 3 or (p := _smallest_factor(q)) ** valuation(p, q) != q):
            raise ValueError(f"--q must be an odd prime power of at least 3, got {q}")
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader stopped early.  Point stdout at the null device so that
        # the flush at exit cannot fail again, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
