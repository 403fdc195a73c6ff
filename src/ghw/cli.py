"""Command line front end.

Exit codes: 0 success, 2 argument or input errors, 3 enumeration refused
by the resource cap or a size limit (member codes past 64 bits), 4 a
verification mismatch, 5 no closed form applies.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from time import perf_counter

from .code import BoundViolation, _search, _search_context, _uses_character_sum, hierarchy_prop1
from .config import DEFAULT_MAX_ENUM, Q_CAP, ResourceCapError, resolve_max_enum
from .field import Field, field_new
from .formulas import NotApplicable, hierarchy_formula
from .linalg import gaussian_binomial, representative_count
from .reference import run_reference_checks
from .simplicial import normalize, normalize_sets, parse_sets


class CLIError(Exception):
    def __init__(self, message: str, code: int = 2):
        self.code = code
        super().__init__(message)


def _prime_power(n: int):
    """(p, e) with p^e = n, or None when n is not a prime power."""
    if n < 2:
        return None
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None
    return (n, 1)


def _resolve_field(args) -> Field:
    if args.q > Q_CAP:  # before factoring, which trial-divides up to sqrt(q)
        raise CLIError(f"--q {args.q} exceeds the supported cap {Q_CAP}")
    pe = _prime_power(args.q)
    if pe is None:
        raise CLIError(f"--q {args.q} is not a prime power")
    p, e = pe
    if args.e is not None and args.e != e:
        if e != 1:
            raise CLIError(f"--q {args.q} with --e {args.e} is ambiguous; pass the prime")
        e = args.e  # --q gave the prime
    try:
        return field_new(p, e)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _resolve_cap(explicit=None) -> int:
    try:
        return resolve_max_enum(explicit)
    except ValueError as exc:  # a malformed GHW_MAX_ENUM
        raise CLIError(str(exc)) from exc


def _resolve_spec(args, verbose_to=None):
    """The normalized spec, refused when D is empty.  Nothing is sized
    here, so no cap refuses a request the closed forms can answer."""
    try:
        raw = parse_sets(args.sets)
        spec = normalize(args.m, raw, args.complement)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if spec.empty:
        raise CLIError(f"defining set {spec.describe()} is empty")
    if verbose_to is not None:
        _, dropped = normalize_sets(raw)
        for s in dropped:
            print(
                f"note: generator {{{','.join(map(str, s))}}} is contained "
                "in another and was dropped",
                file=verbose_to,
            )
    return spec


def _base_payload(field: Field, spec) -> dict:
    return {
        "q": field.q,
        "e": field.e,
        "m": spec.m,
        "sets": [list(s) for s in spec.sets],
        "complement": spec.complement,
    }


def _print_hierarchy_text(field, spec, h, elapsed_ms):
    print(f"[{h.n}, {h.k}] code over GF({field.q}), {spec.describe()}")
    width = max(len(str(h.n)), 3)
    for r, (d, prov) in enumerate(zip(h.values, h.provenance), start=1):
        print(f"  r={r:<2} d_r={d:<{width}} {prov}")
    print(f"method: {h.method}  elapsed_ms: {elapsed_ms}")


def cmd_params(args) -> int:
    field = _resolve_field(args)
    spec = _resolve_spec(args, sys.stderr if args.verbose else None)
    start = perf_counter()
    try:
        h = hierarchy_formula(field.q, spec)
        n, k, d1 = h.n, h.k, h.values[0]
        method = "formula"
    except NotApplicable as exc:
        if args.verbose:
            print(f"note: no closed form ({exc.reason}); searching", file=sys.stderr)
        ctx = _search_context(field, spec, args.max_enum, (1,))
        d1, _ = _search(ctx, 1)
        n, k = ctx.n, ctx.k
        method = "prop1-search"
    elapsed = int(round((perf_counter() - start) * 1000))
    if args.format == "json":
        payload = _base_payload(field, spec)
        payload.update(
            {"n": n, "k": k, "d1": d1, "method": method, "elapsed_ms": elapsed}
        )
        print(json.dumps(payload))
    else:
        print(f"[{n}, {k}, {d1}] code over GF({field.q}), {spec.describe()}")
        print(f"method: {method}  elapsed_ms: {elapsed}")
    return 0


def cmd_hierarchy(args) -> int:
    field = _resolve_field(args)
    spec = _resolve_spec(args, sys.stderr if args.verbose else None)
    start = perf_counter()
    if args.method == "formula":
        h = hierarchy_formula(field.q, spec)
    elif args.method == "brute":
        h = hierarchy_prop1(field, spec, max_enum=args.max_enum)
    else:
        try:
            closed = hierarchy_formula(field.q, spec)
            formula = closed.values
        except BoundViolation as exc:  # a broken table still meets the search
            formula = exc.values
        searched = hierarchy_prop1(field, spec, max_enum=args.max_enum)
        if formula != searched.values:
            bad = next(
                r
                for r, (x, y) in enumerate(zip(formula, searched.values), 1)
                if x != y
            )
            record = _base_payload(field, spec)
            record.update(
                {
                    "r": bad,
                    "formula": formula[bad - 1],
                    "search": searched.values[bad - 1],
                }
            )
            print(
                "verification mismatch: " + json.dumps(record),
                file=sys.stderr,
            )
            return 4
        h = replace(closed, method="both", witnesses=searched.witnesses)
    elapsed = int(round((perf_counter() - start) * 1000))
    if args.format == "json":
        payload = _base_payload(field, spec)
        payload.update(
            {
                "n": h.n,
                "k": h.k,
                "hierarchy": list(h.values),
                "provenance": list(h.provenance),
                "method": h.method,
                "elapsed_ms": elapsed,
            }
        )
        print(json.dumps(payload))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["r", "d_r", "provenance", "method"])
        for r, (d, prov) in enumerate(zip(h.values, h.provenance), start=1):
            writer.writerow([r, d, prov, h.method])
    else:
        _print_hierarchy_text(field, spec, h, elapsed)
        if args.verbose:
            for r, witness in enumerate(h.witnesses, start=1):
                rows = " ".join("".join(map(str, row)) for row in witness.basis)
                print(f"  witness r={r}: [{rows}]")
    return 0


def cmd_verify_paper(args) -> int:
    rows = run_reference_checks(only=args.only, max_enum=args.max_enum)
    if not rows:
        raise CLIError(f"no reference case matches --only {args.only!r}")
    failed = [row for row in rows if not row["ok"]]
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for row in rows:
            status = "PASS" if row["ok"] else "FAIL"
            expected = row["expected"]
            print(
                f"{status}  {row['id']:<8} q={row['q']} m={row['m']} "
                f"expected={expected}  ({row['elapsed_ms']} ms)"
            )
            if not row["ok"]:
                for tag in ("formula", "prop1", "definitional"):
                    print(f"      {tag:<12} = {row[tag]}")
                print(f"      detail: {row['detail']}")
        print(f"{len(rows)} cases: {len(rows) - len(failed)} passed, {len(failed)} failed")
    return 4 if failed else 0


def cmd_count(args) -> int:
    field = _resolve_field(args)
    q, m = field.q, args.m
    if args.r is not None and not 1 <= args.r <= m:  # before sizing --sets
        raise CLIError(f"--r must lie in 1..{m}, got {args.r}")
    ctx = None  # with --sets, the search context of their union
    if args.sets:
        try:
            union_spec = normalize(args.m, parse_sets(args.sets), False)
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        ctx = _search_context(field, union_spec, ranks=())
    k = m if ctx is None else ctx.k  # the dimension the search spans
    ranks = [args.r] if args.r is not None else list(range(1, m + 1))
    rows = []
    for r in ranks:
        count = gaussian_binomial(m, r, q)
        ops = None
        if ctx is not None and r <= k:  # per basis scored, the search's pick
            width = ctx.side_size
            if _uses_character_sum(field, k, r, ctx.side_size, ctx.terms):
                width = q**r
            ops = representative_count(q, k, r) * width * k
        rows.append((r, count, gaussian_binomial(k, r, q), ops))
    total = sum(c for _, c, _, _ in rows)
    if args.format == "json":
        payload = {"q": q, "e": field.e, "m": m, "rows": [], "total": total}
        for r, count, _, ops in rows:
            entry = {"r": r, "count": count}
            if ops is not None:
                entry["search_ops"] = ops
            payload["rows"].append(entry)
        print(json.dumps(payload))
    else:
        side = "" if ctx is None else f" (defining side size {ctx.side_size})"
        print(f"subspaces of F_{q}^{m}" + side)
        for r, count, _, ops in rows:
            line = f"  r={r:<2} count={count}"
            if ops is not None:
                line += f"  est_search_ops={ops}"
            print(line)
        print(f"total candidates: {total}")
        cap = _resolve_cap()
        over = [str(r) for r, _, searched, _ in rows if searched > cap]
        if over:  # the cap applies to each rank's count of candidates searched
            print(
                f"note: over the enumeration cap {cap} at r = {', '.join(over)}; "
                "a search needs --max-enum or GHW_MAX_ENUM raised"
            )
    return 0


def _positive(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_field_options(sub, need_sets=True):
    sub.add_argument("--q", type=int, required=True, help="field size, or prime with --e")
    sub.add_argument("--e", type=int, default=None, help="extension degree over the prime")
    sub.add_argument("--m", type=_positive, required=True, help="ambient dimension")
    if need_sets:
        sub.add_argument(
            "--sets",
            required=True,
            help='generators as 1-based lists, e.g. "1,2,3;3,4,5"',
        )
        sub.add_argument(
            "--complement",
            action="store_true",
            help="use the complement of the union as the defining set",
        )


def _add_run_options(sub):
    sub.add_argument(
        "--threads",
        type=_positive,
        default=1,
        help="accepted and validated (at least 1) for compatibility; "
        "ranks are searched in turn, so results are unchanged",
    )
    sub.add_argument(
        "--max-enum",
        type=int,
        default=None,
        help=f"enumeration cap (overrides GHW_MAX_ENUM; default {DEFAULT_MAX_ENUM})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghw",
        description="Generalized Hamming weights of codes whose defining sets "
        "are unions of coordinate subspaces, or complements of such unions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params", help="length, dimension, and minimum distance")
    _add_field_options(p)
    _add_run_options(p)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_params)

    p = subs.add_parser("hierarchy", help="full weight hierarchy")
    _add_field_options(p)
    _add_run_options(p)
    p.add_argument("--verbose", action="store_true")
    p.add_argument(
        "--method",
        choices=["formula", "brute", "both"],
        default="both",
        help="closed form, subspace search, or both with cross-checking",
    )
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_hierarchy)

    p = subs.add_parser(
        "verify-paper",
        help="run the built-in reference suite (pinned hierarchies, three methods)",
    )
    p.add_argument("--only", default=None, help="substring filter on case ids")
    _add_run_options(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify_paper)

    p = subs.add_parser(
        "count-subspaces",
        help="subspace counts and the implied search cost before running one",
    )
    _add_field_options(p, need_sets=False)
    p.add_argument("--r", type=int, default=None)
    p.add_argument(
        "--sets", default=None, help="optional generators for a cost estimate"
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_cap(getattr(args, "max_enum", None))
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ResourceCapError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotApplicable as exc:
        print(f"no closed form applies: {exc.reason}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
