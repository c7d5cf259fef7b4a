"""Command-line front end: compute any counter, and verify formulas against
oracles over sweeps, timing both.

One table, MODE_TABLE, holds what the commands know about each mode: how
count reads its arguments, the restriction of oracles.RESTRICTIONS it
counts, the record fields, the verify grid and the golden values selftest
checks.  count, verify and selftest reach every restriction through the
front door, formulas.counter, and oracles.oracle_histogram.  ramanujan
(C_n(b), which may be negative) is no restriction: it keeps its own counter
and the divisor-form oracle.  Each command takes only its own flags.

Exit codes: 0 success, 1 selftest/verify mismatch, 2 usage error,
3 internal-consistency failure.  Records are JSON lines by default or CSV
with a single header; all output apart from timings is deterministic for
fixed flags (sweep rows come out in lexicographic grid order, whatever
--jobs is).  The process pool behind verify --jobs is imported on first
use: it pulls in multiprocessing, which would double the start-up time of
every command.  count prints the exact count however many digits it has.

A verify case is one oracle histogram checked at every target b, by one
counter built for the case: formulas.counter does the work that does not
read b once, and each row calls it at one target.  The rows share mode, n
and k, a or blocks, so a case carries those fields once and each row as a
tuple of the fields that vary; Emitter.case encodes the shared fields once
per case and writes the case's rows at once, in the same bytes as one
record per row.

The distinct grid, the multisets whose proper nonempty subset sums are
coprime to n, is walked by prefix: a prefix is dropped at its first subset
sum that shares a factor with n, and only a case's counter calls
formulas.subset_sum_obstruction, on its own tuple.

wall_time_ns (a row's counter call, or the whole count command) is the
int that time.perf_counter_ns() differences give, written as it is: an int
formats in a fraction of the time a float's repr takes.  verify's summary
gives formula_s, the sum of the rows' wall_time_ns in seconds, against
oracle_s, the time its oracle histograms took, and build_s, the time
building its cases' counters took, each read the same way per case.  csv is
imported by the first CSV write, as JSON is the default format.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

from . import arith, characters, formulas, oracles
from .errors import BudgetExceededError, ConsistencyError, DomainError
from .model import FORMULA, BlockSpec, CongruenceSpec, OracleBudget

CSV_COLUMNS = (
    "mode", "n", "k", "a", "b", "blocks", "count", "method", "residual", "wall_time_ns",
    "oracle_count", "match", "status", "detail",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _at_least_one(args, *flags: str) -> None:
    """Usage error when one of the given flags is below 1; an absent flag
    (None, or not a flag of this command) passes."""
    for flag in flags:
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")


def _budget(args) -> int:
    """--budget, or OracleBudget's default when it is not given."""
    return OracleBudget.max_states if args.budget is None else args.budget


def _moduli(args, default) -> tuple[int, ...] | range:
    """The moduli of a verify grid: --n-list, else 1..--n-max, else the
    mode's ``default``; --k-max, --jobs and --budget are checked here too."""
    if args.n_list is not None:
        ns = _parse_ints(args.n_list)
    elif args.n_max is not None:
        ns = range(1, args.n_max + 1)
    else:
        ns = default
    if any(n < 1 for n in ns):
        raise UsageError(f"moduli must be >= 1, got {args.n_list or args.n_max}")
    _at_least_one(args, "k_max", "jobs", "budget")
    return ns


def _nk(ns, k_max: int):
    return ((n, k) for n in ns for k in range(1, k_max + 1))


# ----------------------------------------------------------------------
# The mode table.  A mode's ``params`` fix an instance apart from n and b.
# For the coefficient modes (all, square, strict, distinct) they are
# (k, coeffs): the coefficients as given when k is None, else k copies of
# the single coefficient coeffs[0].  blocks takes the block tuple and
# ramanujan None.  _instance builds the instance once per case, at b = 0.


class _Signed(NamedTuple):  # a formula value that may be negative (a Ramanujan sum)
    count: int
    method: str = FORMULA
    residual: float = 0.0


class _Mode(NamedTuple):
    parse: Callable  # count's arguments -> params; raises UsageError
    fields: Callable  # (n, params, b) -> record fields k, a, b or k, b, blocks
    restriction: str | None  # a name of oracles.RESTRICTIONS; None for ramanujan
    verify_grid: Callable  # args -> [(n, params)] in lexicographic order
    golden: tuple  # (n, params, b, count) cases that selftest checks
    count_budget: bool = False  # count's counter reads --budget (square's charge)


def _parse_coeffs(args):
    if args.a is None or args.b is None:
        raise UsageError(f"mode {args.mode} requires -a and -b")
    return None, CongruenceSpec(args.n, _parse_ints(args.a), args.b).coeffs


def _parse_strict(args):
    if args.k is None or args.a is None or args.b is None:
        raise UsageError("mode strict requires -k, -a (one value) and -b")
    coeffs = _parse_ints(args.a)
    if len(coeffs) != 1:
        raise UsageError("mode strict takes a single shared coefficient")
    return args.k, coeffs


def _parse_distinct(args):
    if args.a is None or args.b is None:
        raise UsageError("mode distinct requires -a and -b")
    coeffs = _parse_ints(args.a)
    if len(coeffs) == 1 and args.k is not None:
        return args.k, coeffs
    return None, CongruenceSpec(args.n, coeffs, args.b).coeffs


def _parse_blocks(args):
    if not args.blocks or args.b is None:
        raise UsageError("mode blocks requires --blocks and -b")
    blocks = []
    for piece in args.blocks.split(","):
        try:
            size, coeff = piece.split(":")
            blocks.append((int(size), int(coeff)))
        except ValueError as exc:
            raise UsageError(f"expected size:coeff pairs, got {args.blocks!r}") from exc
    return BlockSpec(args.n, blocks, args.b).blocks


def _parse_ramanujan(args):
    if args.b is None:
        raise UsageError("mode ramanujan requires -b")


def _coeff_fields(n, params, b):
    k, coeffs = params
    return {"k": len(coeffs) if k is None else k, "a": coeffs, "b": b % n}


def _blocks_fields(n, blocks, b):
    label = ",".join(f"{size}:{coeff}" for size, coeff in blocks)
    return {"k": sum(size for size, _ in blocks), "b": b % n, "blocks": label}


def _instance(mode: _Mode, n: int, params, budget: OracleBudget) -> tuple:
    """The instance at b = 0 (a BlockSpec, a CongruenceSpec, or for
    ramanujan the modulus alone) and its counter as a function of b."""
    if mode.restriction is None:
        return n, lambda b: _Signed(arith.ramanujan_sum(n, b))
    if mode.restriction == "blocks":
        spec = BlockSpec(n, params, 0)
    else:
        k, coeffs = params
        spec = CongruenceSpec(n, coeffs if k is None else coeffs * k, 0)
    return spec, formulas.counter(spec, mode.restriction, budget)


def ramanujan_divisor_form(n: int) -> list[int]:
    """C_n(b) for every b in [0, n): sum of mu(n/d)*d over d | gcd(n, b)."""
    return [sum(arith.moebius(n // d) * d for d in arith.divisors(math.gcd(n, b)))
            for b in range(n)]


def _coeff_grid(ns, k_max: int, values: Callable):
    """(n, (None, coeffs)) for every multiset of k <= k_max coefficients
    drawn from values(n)."""
    for n, k in _nk(ns, k_max):
        for coeffs in itertools.combinations_with_replacement(values(n), k):
            yield n, (None, coeffs)


def _coprime_multisets(n: int, k: int):
    """The multisets of k residues mod n that pass
    formulas.subset_sum_obstruction, in lexicographic order.  Each value
    entered adds its subset sums with the prefix's, by position (at the
    last position, all but the whole tuple's), and must keep them coprime."""
    def walk(prefix, sums, low):
        last = len(prefix) == k - 1
        for c in range(low, n):
            new = [s + c for s in (sums[:-1] if last else sums)]
            if any(math.gcd(s, n) != 1 for s in new):
                continue
            if last:
                yield prefix + (c,)
            else:
                yield from walk(prefix + (c,), sums + new, c)

    return walk((), [0], 0)


def _blocks_grid(args):
    pairs = [(s, c) for s in range(1, min(args.k_max or 3, 3) + 1) for c in (1, 2, 3)]
    blockings = [bl for t in (1, 2, 3) for bl in itertools.combinations_with_replacement(pairs, t)]
    return itertools.product(_moduli(args, range(1, 13)), blockings)


def _ramanujan_grid(args):
    # each case is every b for one n: there is no k to bound, and the exact
    # oracle charges no budget
    for flag in ("k_max", "budget"):
        if getattr(args, flag) is not None:
            raise UsageError(f"mode ramanujan takes no --{flag.replace('_', '-')}")
    return ((n, None) for n in _moduli(args, range(1, 201)))


MODE_TABLE = {
    "all": _Mode(
        parse=_parse_coeffs,
        fields=_coeff_fields,
        restriction="all",
        verify_grid=lambda args: _coeff_grid(_moduli(args, range(1, 13)), args.k_max or 3, range),
        golden=((27, (None, (1, 1)), 1, 27), (4, (None, (2,)), 3, 0), (6, (None, (2, 4)), 4, 12)),
    ),
    "square": _Mode(
        parse=_parse_coeffs,
        fields=_coeff_fields,
        restriction="square",
        verify_grid=lambda args: _coeff_grid(
            _moduli(args, (3, 5, 7, 9, 15, 25, 27, 45)), args.k_max or 3, lambda n: (1, 2, 3, 5)
        ),
        golden=((27, (None, (1, 1)), 1, 4), (9, (None, (1, 1)), 3, 0), (9, (None, (1, 1)), 2, 3)),
        count_budget=True,  # charges 2^k subset products per residue, or at even n the oracle
    ),
    "strict": _Mode(
        parse=_parse_strict,
        fields=_coeff_fields,
        restriction="strict-order",
        verify_grid=lambda args: (
            (n, (k, (a,)))
            for n, k in _nk(_moduli(args, range(1, 21)), args.k_max or 4) for a in range(n)
        ),
        golden=((5, (2, (1,)), 0, 2), (12, (1, (3,)), 6, 3)),
    ),
    "distinct": _Mode(
        parse=_parse_distinct,
        fields=_coeff_fields,
        restriction="distinct",
        verify_grid=lambda args: (
            (n, (None, coeffs))
            for n, k in _nk(_moduli(args, range(1, 16)), args.k_max or 4)
            for coeffs in _coprime_multisets(n, k)
        ),
        # the last has equal coefficients that fail the subset-sum hypothesis
        golden=((5, (2, (1,)), 0, 4), (5, (2, (1,)), 1, 4), (9, (3, (1,)), 0, 60),
                (5, (None, (1, 4)), 0, 0), (7, (None, (1, 1)), 1, 6),
                (5, (None, (1, 2, 2)), 0, 20), (6, (None, (2, 2)), 0, 10)),
    ),
    "blocks": _Mode(
        parse=_parse_blocks,
        fields=_blocks_fields,
        restriction="blocks",
        verify_grid=_blocks_grid,
        # the last three have blocks of size 1: Lehmer's unrestricted counts
        golden=((6, ((2, 2), (2, 3)), 5, 63), (4, ((2, 1), (2, 3)), 1, 24),
                (5, ((1, 1), (1, 2), (1, 3)), 4, 25), (6, ((1, 2), (1, 4)), 2, 12),
                (9, ((1, 3), (1, 6)), 3, 27)),
    ),
    "ramanujan": _Mode(
        parse=_parse_ramanujan,
        fields=lambda n, _params, b: {"b": b},
        restriction=None,
        verify_grid=_ramanujan_grid,
        golden=((9, None, 3, -3), (6, None, 1, 1)),
    ),
}

MODES = tuple(MODE_TABLE)


def build_parser() -> _Parser:
    parser = _Parser(prog="lincong", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    count, verify = (sub.add_parser(name) for name in ("count", "verify"))
    sub.add_parser("selftest")
    # each command registers only the flags it reads, so a stray one is a usage error
    for p in (count, verify):
        p.add_argument("--mode", choices=MODES, default="all")
        p.add_argument("--budget", type=int, help="most tuples an oracle may count, or subset "
                       "products square's counter may form, per case or count, charged before "
                       f"either is built (default {OracleBudget.max_states})")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    count.add_argument("-n", type=int, help="modulus")
    count.add_argument("-k", type=int, help="number of variables")
    count.add_argument("-a", type=str, help="comma-separated coefficients, e.g. 1,1,3")
    count.add_argument("-b", type=int, help="target residue")
    count.add_argument("--blocks", type=str, help="size:coeff pairs, e.g. 2:2,2:3")
    verify.add_argument("--n-max", type=int, help="sweep bound on the modulus")
    verify.add_argument("--n-list", type=str,
                        help="explicit comma-separated moduli; wins over --n-max")
    verify.add_argument("--k-max", type=int, help="sweep bound on k")
    verify.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    return parser


def _csv_cell(val):
    if val is None:
        return ""
    if isinstance(val, (tuple, list)):
        return " ".join(map(str, val))
    return val


class Emitter:
    """Writes records as JSON lines or CSV rows with one header.

    record writes one record; case writes all the rows of one verify case,
    encoding the fields they share once and the whole case in one write.
    Both give the same bytes as record called once per row would."""

    def __init__(self, fmt: str, stream=None):
        self.fmt = fmt
        self.stream = stream or sys.stdout
        self._csv = None

    def _writer(self):
        if self._csv is None:
            import csv  # only here: JSON is the default

            self._csv = csv.writer(self.stream)
            self._csv.writerow(CSV_COLUMNS)
        return self._csv

    def record(self, rec: dict) -> None:
        if self.fmt == "json":
            print(json.dumps(rec), file=self.stream)
        else:
            self._writer().writerow([_csv_cell(rec.get(col)) for col in CSV_COLUMNS])

    def case(self, fixed: dict, rows: list[tuple]) -> None:
        """The rows of one verify case: ``fixed`` holds the fields every row
        shares (mode, n, and k, a or blocks), and each row is a tuple
        (b, count, method, residual, wall_time_ns, oracle_count, match)."""
        # Each distinct residual is formatted once per case; exact routes
        # give 0.0.  Residuals are finite and never -0.0 (round_complex_to_int
        # divides abs() values and rejects non-finite ones), so float.__repr__
        # is their json and csv form, and equal keys share one text.
        residuals = {r: float.__repr__(r) for r in {row[3] for row in rows}}
        if self.fmt == "csv":
            # the columns of CSV_COLUMNS in order; fixed has no b
            mode, n, k, a, _, blocks = (_csv_cell(fixed.get(col)) for col in CSV_COLUMNS[:6])
            self._writer().writerows(
                [mode, n, k, a, b, blocks, count, method, residuals[residual], ns, oracle, ok,
                 "ok", ""]
                for b, count, method, residual, ns, oracle, ok in rows
            )
            return
        # json.dumps(record) with the shared fields and each method name
        # encoded once.  Counts, b and wall_time_ns are ints.
        head = json.dumps(fixed)[:-1] + ', "b": '
        methods = {method: json.dumps(method) for method in {row[2] for row in rows}}
        self.stream.write("".join(
            f'{head}{b}, "count": {count}, "method": {methods[method]}, '
            f'"residual": {residuals[residual]}, "wall_time_ns": {ns}, '
            f'"oracle_count": {oracle}, "match": {"true" if ok else "false"}, "status": "ok"}}\n'
            for b, count, method, residual, ns, oracle, ok in rows
        ))

    def summary(self, rec: dict) -> None:
        if self.fmt == "json":
            return self.record(rec)
        body = " ".join(f"{key}={value}" for key, value in rec.items())
        print(f"# summary {body}", file=self.stream)


# ----------------------------------------------------------------------
# count


def _unlimited_digits(fn, *args):
    """fn(*args) with int -> str uncapped, as an exact count may need."""
    cap = getattr(sys, "get_int_max_str_digits", int)()  # 4300 from 3.11 and 3.10.7; 0 none
    if not cap:
        return fn(*args)
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(cap)


def cmd_count(args) -> int:
    if args.n is None:
        raise UsageError("count requires -n")
    _at_least_one(args, "budget")
    mode = MODE_TABLE[args.mode]
    if args.budget is not None and not mode.count_budget:
        raise UsageError(f"mode {args.mode} takes no --budget")
    t0 = time.perf_counter_ns()
    params = mode.parse(args)
    # -k is checked first: building the counter may raise a DomainError
    rec = {"mode": args.mode, "n": args.n, **mode.fields(args.n, params, args.b)}
    if args.k is not None and args.k != rec.get("k"):
        if "k" not in rec:
            raise UsageError(f"mode {args.mode} takes no -k")
        raise UsageError(f"-k {args.k} disagrees with the instance, which has k = {rec['k']}")
    _, count_at = _instance(mode, args.n, params, OracleBudget(_budget(args)))
    result = count_at(args.b)
    rec.update(count=result.count, method=result.method, residual=result.residual)
    rec["wall_time_ns"] = time.perf_counter_ns() - t0
    _unlimited_digits(Emitter(args.format).record, rec)
    return 0


# ----------------------------------------------------------------------
# verify


def _case_rows(case: tuple) -> tuple[dict, list[tuple] | None, int, int]:
    """Run one verify case (mode name, n, params, budget): one oracle
    histogram checks the counter at every target b.  The counter and the
    oracle each get an OracleBudget of the case's size, and either refuses
    a case past it when it is built, the counter first; a built counter
    meets no budget at a target.  Returns the fields all rows share (mode,
    n, and k, a or blocks), one tuple (b, count, method, residual,
    wall_time_ns, oracle_count, match) per target as Emitter.case takes
    them, and the nanoseconds of building the counter and of the oracle (a
    case over budget: its skip record, None, 0 and 0)."""
    name, n, params, max_states = case
    mode = MODE_TABLE[name]
    try:
        t0 = time.perf_counter_ns()
        spec, count_at = _instance(mode, n, params, OracleBudget(max_states))
        t1 = time.perf_counter_ns()
        hist = (ramanujan_divisor_form(n) if mode.restriction is None
                else oracles.oracle_histogram(spec, mode.restriction, OracleBudget(max_states)))
        build_ns, oracle_ns = t1 - t0, time.perf_counter_ns() - t1
    except BudgetExceededError as exc:
        return {"mode": name, "n": n, "status": "skipped", "detail": str(exc)}, None, 0, 0
    fixed = {"mode": name, "n": n, **mode.fields(n, params, 0)}
    del fixed["b"]  # each row writes its own b after the shared fields
    rows = []
    for b in range(n):
        t0 = time.perf_counter_ns()
        res = count_at(b)
        ns = time.perf_counter_ns() - t0
        rows.append((b, res.count, res.method, res.residual, ns, hist[b], res.count == hist[b]))
    return fixed, rows, build_ns, oracle_ns


def cmd_verify(args) -> int:
    grid, budget = MODE_TABLE[args.mode].verify_grid(args), _budget(args)
    # built as they run, so no list of the cases is held
    cases = ((args.mode, n, params, budget) for n, params in grid)
    emitter = Emitter(args.format)
    total_rows = mismatches = skipped = build_ns = formula_ns = oracle_ns = 0
    max_residual = 0.0
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: costly to import
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_case_rows, cases, chunksize=8))
    else:
        outcomes = map(_case_rows, cases)
    for fixed, rows, case_build_ns, case_oracle_ns in outcomes:
        if rows is None:
            emitter.record(fixed)
            skipped += 1
            continue
        emitter.case(fixed, rows)
        total_rows += len(rows)
        build_ns += case_build_ns
        oracle_ns += case_oracle_ns
        *_, residuals, times, _, matches = zip(*rows)
        formula_ns += sum(times)
        mismatches += matches.count(False)
        max_residual = max(max_residual, *residuals)
    emitter.summary({"cases": total_rows, "mismatches": mismatches, "skipped": skipped,
                     "max_residual": max_residual, "formula_s": formula_ns / 1e9,
                     "oracle_s": oracle_ns / 1e9, "build_s": build_ns / 1e9})
    return 0 if mismatches == 0 else 1


# ----------------------------------------------------------------------
# selftest


def _check_golden(name: str) -> None:
    """The counter and the oracle of mode ``name`` give its golden values."""
    for n, params, b, expected in MODE_TABLE[name].golden:
        row = _case_rows((name, n, params, OracleBudget.max_states))[1][b]
        assert row[1] == row[5] == expected, (n, params, row)


def _selftest_checks():
    sqrt3 = math.sqrt(3)

    def close(x, y, tol=1e-9):
        return abs(x - y) < tol

    def check_epsilon():
        assert arith.epsilon(5) == 1 and arith.epsilon(1) == 1
        assert arith.epsilon(3) == 1j and arith.epsilon(7) == 1j

    def check_gauss_closed():
        assert close(characters.gauss_sum_real_prime_power(3, 1, 1), 1j * sqrt3)
        assert close(characters.gauss_sum_real_prime_power(3, 1, 2), -1j * sqrt3)
        assert close(characters.gauss_sum_real_prime_power(3, 2, 1), 0)
        assert close(characters.gauss_sum_real_prime_power(3, 2, 3), 1j * 3 * sqrt3)

    def check_square_membership():
        squares = [characters.square_indicator(27, b) for b in (1, 9, 0, 3, 2, 18)]
        assert squares == [1, 1, 1, 0, 0, 0]
        assert characters.squares(9) == (0, 1, 4, 7)
        assert len(characters.squares(3)) == 2
        assert len(characters.squares(27)) == 11

    def check_square_witnesses():
        witnesses = oracles.oracle_solutions(CongruenceSpec(27, (1, 1), 1), "square")
        assert set(witnesses) == {(1, 0), (0, 1), (9, 19), (19, 9)}

    return [
        ("epsilon-values", check_epsilon),
        ("gauss-closed-forms", check_gauss_closed),
        ("square-membership-and-profiles", check_square_membership),
        ("square-witnesses", check_square_witnesses),
        *((f"{name}-golden-counts", partial(_check_golden, name)) for name in MODES),
    ]


def cmd_selftest(_args=None) -> int:
    checks = _selftest_checks()
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # first failure wins, with its case
            print(f"FAIL {name}: {exc!r}")
            return 1
        print(f"ok {name}")
    print(f"selftest: {len(checks)} checks passed")
    return 0


# ----------------------------------------------------------------------


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        commands = {"count": cmd_count, "verify": cmd_verify}
        return commands.get(args.command, cmd_selftest)(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
