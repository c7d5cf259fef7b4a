"""Command-line front end: compute any counter, verify formulas against
oracles over sweeps, and benchmark formula vs oracle evaluation.

One table, MODE_TABLE, holds what the commands know about each mode: how
count reads its arguments, the counter, the oracle histogram over all
targets, the record fields, the verify and bench grids, and the golden
values selftest checks.  count, verify, bench and the per-mode selftest
checks are each one loop over it.  Each command takes only its own flags.

Exit codes: 0 success, 1 selftest/verify mismatch, 2 usage error,
3 internal-consistency failure.  Records are JSON lines by default or CSV
with a single header; all output is deterministic for fixed flags (sweep
rows come out in lexicographic grid order, whatever --jobs is).  The
process pool behind verify --jobs is imported on first use: it pulls in
multiprocessing, which would double the start-up time of every command.

A verify case is one oracle histogram checked at every target b.  Its rows
share mode, n and k, a or blocks, so a case carries those fields once and
each row as a tuple of the fields that vary; Emitter.case encodes the shared
fields once per case and writes the case's rows at once, in the same bytes
as one record per row.

wall_time_s (a row's counter call, or the whole count command) is read
with time.perf_counter_ns() and written as ns / 1e9: whole nanoseconds,
whose short repr formats in half the time of a perf_counter() difference's.
"""

from __future__ import annotations

import argparse
import csv
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
    "mode", "n", "k", "a", "b", "blocks", "count", "method", "residual", "wall_time_s",
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
    """The moduli of a verify or bench grid: --n-list when given, else
    1..--n-max when given, else the mode's ``default``.  Every grid starts
    here, so --k-max, --jobs and --budget are checked here too."""
    if args.n_list is not None:
        ns = _parse_ints(args.n_list)
    elif args.n_max is not None:
        ns = range(1, args.n_max + 1)
    else:
        ns = default
    if any(n < 1 for n in ns):
        raise UsageError(f"moduli must be >= 1, got {args.n_list or args.n_max}")
    _at_least_one(args, "k_max", "jobs", "budget")  # bench has no --jobs
    return ns


def _nk(ns, k_max: int):
    return ((n, k) for n in ns for k in range(1, k_max + 1))


# ----------------------------------------------------------------------
# The mode table.  A mode's ``params`` fix an instance apart from n and b.
# For the coefficient modes (all, square, strict, distinct) they are
# (k, coeffs): the coefficients as given when k is None, else k copies of
# the single coefficient coeffs[0].  blocks takes the block tuple and
# ramanujan None.  A mode's ``instance`` builds what its counter and oracle
# read, once per case: the spec at b = 0, from which the counter derives
# each target's spec without checking the coefficients again, or the
# modulus alone where the counter needs no spec (strict, ramanujan).
# Counters and oracles are looked up on their modules at call time, so a
# patched or traced function is the one that runs.


class _Signed(NamedTuple):
    """A formula value that may be negative (a Ramanujan sum)."""

    count: int
    method: str = FORMULA
    residual: float = 0.0


class _Mode(NamedTuple):
    parse: Callable  # count's arguments -> params; raises UsageError
    fields: Callable  # (n, params, b) -> record fields k, a or blocks, and b last
    instance: Callable  # (n, params) -> what count and oracle read, built once per case
    count: Callable  # (instance, params, b, budget) -> CountResult
    oracle: Callable  # (instance, params, OracleBudget) -> count for every b
    verify_grid: Callable  # args -> [(n, params)] in lexicographic order
    golden: tuple  # (n, params, b, count) cases that selftest checks
    bench_grid: Callable | None = None  # args -> [(n, k, params)], at b = 1
    count_budget: bool = False  # count's counter reads --budget (an oracle fallback)


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
    return {"k": sum(size for size, _ in blocks), "blocks": label, "b": b % n}


def _coeff_spec(n, params):
    k, coeffs = params
    return CongruenceSpec(n, coeffs if k is None else coeffs * k, 0)


def _count_distinct(spec, params, b, _budget):
    k, coeffs = params
    if k is None:
        return formulas.distinct_count_gcd_condition(spec.with_target(b))
    return formulas.distinct_count_equal_coeffs(spec.n, k, coeffs[0], b)


def _histogram(restriction: str) -> Callable:
    """The oracle histogram for ``restriction`` on the case's spec."""
    return lambda spec, _params, budget: oracles.oracle_histogram(spec, restriction, budget)


def _coeff_grid(ns, k_max: int, values: Callable):
    """(n, (None, coeffs)) for every multiset of k <= k_max coefficients
    drawn from values(n)."""
    for n, k in _nk(ns, k_max):
        for coeffs in itertools.combinations_with_replacement(values(n), k):
            yield n, (None, coeffs)


def _blocks_grid(args):
    pairs = [(s, c) for s in range(1, min(args.k_max or 3, 3) + 1) for c in (1, 2, 3)]
    for n in _moduli(args, range(1, 13)):
        for t in (1, 2, 3):
            for blocks in itertools.combinations_with_replacement(pairs, t):
                yield n, blocks


def _ramanujan_grid(args):
    # each case is every b for one n: there is no k to bound, and the exact
    # oracle charges no budget
    for flag in ("k_max", "budget"):
        if getattr(args, flag) is not None:
            raise UsageError(f"mode ramanujan takes no --{flag.replace('_', '-')}")
    return ((n, None) for n in _moduli(args, range(1, 201)))


def _strict_bench(args):
    n_list = _moduli(args, (100, 1000, 10000))
    k_list = (5, 10) if args.k_max is None else tuple(range(5, args.k_max + 1, 5)) or (args.k_max,)
    return [(n, k, (k, (1,))) for n in n_list for k in k_list]


MODE_TABLE = {
    "all": _Mode(
        parse=_parse_coeffs,
        fields=_coeff_fields,
        instance=_coeff_spec,
        count=lambda spec, _p, b, _budget: formulas.lehmer_count(spec.with_target(b)),
        oracle=_histogram("all"),
        verify_grid=lambda args: _coeff_grid(_moduli(args, range(1, 13)), args.k_max or 3, range),
        golden=((27, (None, (1, 1)), 1, 27), (4, (None, (2,)), 3, 0), (6, (None, (2, 4)), 4, 12)),
    ),
    "square": _Mode(
        parse=_parse_coeffs,
        fields=_coeff_fields,
        instance=_coeff_spec,
        count=lambda spec, _p, b, budget: formulas.square_count(
            spec.with_target(b), OracleBudget(budget)),
        oracle=_histogram("square"),
        verify_grid=lambda args: _coeff_grid(
            _moduli(args, (3, 5, 7, 9, 15, 25, 27, 45)), args.k_max or 3, lambda n: (1, 2, 3, 5)
        ),
        bench_grid=lambda args: [(n, k, (None, (1,) * k)) for n in _moduli(args, (27, 81, 243))
                                 for k in range(2, (args.k_max or 3) + 1)],
        golden=((27, (None, (1, 1)), 1, 4), (9, (None, (1, 1)), 3, 0), (9, (None, (1, 1)), 2, 3)),
        count_budget=True,  # even n falls back to the oracle
    ),
    "strict": _Mode(
        parse=_parse_strict,
        fields=_coeff_fields,
        # the counter reads n, k and a: no spec of k coefficients for count
        instance=lambda n, _params: n,
        count=lambda n, p, b, _budget: formulas.strict_order_count(n, p[0], p[1][0], b),
        oracle=lambda n, p, budget: oracles.oracle_histogram(
            _coeff_spec(n, p), "strict-order", budget),
        verify_grid=lambda args: (
            (n, (k, (a,)))
            for n, k in _nk(_moduli(args, range(1, 21)), args.k_max or 4) for a in range(n)
        ),
        bench_grid=_strict_bench,
        golden=((5, (2, (1,)), 0, 2), (12, (1, (3,)), 6, 3)),
    ),
    "distinct": _Mode(
        parse=_parse_distinct,
        fields=_coeff_fields,
        instance=_coeff_spec,
        count=_count_distinct,
        oracle=_histogram("distinct"),
        verify_grid=lambda args: (
            (n, params)
            for n, params in _coeff_grid(_moduli(args, range(1, 16)), args.k_max or 4, range)
            if formulas.subset_sum_obstruction(n, params[1]) is None
        ),
        golden=((5, (2, (1,)), 0, 4), (5, (2, (1,)), 1, 4), (9, (3, (1,)), 0, 60),
                (5, (None, (1, 4)), 0, 0), (7, (None, (1, 1)), 1, 6),
                (5, (None, (1, 2, 2)), 0, 20)),
    ),
    "blocks": _Mode(
        parse=_parse_blocks,
        fields=_blocks_fields,
        instance=lambda n, blocks: BlockSpec(n, blocks, 0),
        count=lambda spec, _blocks, b, _budget: formulas.order_blocks_count(spec.with_target(b)),
        oracle=_histogram("blocks"),
        verify_grid=_blocks_grid,
        bench_grid=lambda args: [(n, 4, ((2, 2), (2, 3))) for n in _moduli(args, (8, 12))],
        # the last three have blocks of size 1: Lehmer's unrestricted counts
        golden=((6, ((2, 2), (2, 3)), 5, 63), (4, ((2, 1), (2, 3)), 1, 24),
                (5, ((1, 1), (1, 2), (1, 3)), 4, 25), (6, ((1, 2), (1, 4)), 2, 12),
                (9, ((1, 3), (1, 6)), 3, 27)),
    ),
    "ramanujan": _Mode(
        parse=_parse_ramanujan,
        fields=lambda n, _params, b: {"b": b},
        instance=lambda n, _params: n,
        count=lambda n, _params, b, _budget: _Signed(arith.ramanujan_sum(n, b)),
        # the divisor form: exact, and apart from the counter's Hoelder form
        oracle=lambda n, _params, _budget: [
            sum(arith.moebius(n // d) * d for d in arith.divisors(math.gcd(n, b)))
            for b in range(n)
        ],
        verify_grid=_ramanujan_grid,
        golden=((9, None, 3, -3), (6, None, 1, 1)),
    ),
}

MODES = tuple(MODE_TABLE)


def build_parser() -> _Parser:
    parser = _Parser(prog="lincong", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    count, verify, bench = (sub.add_parser(name) for name in ("count", "verify", "bench"))
    sub.add_parser("selftest")
    # each command registers only the flags it reads, so a stray one is a usage error
    for p in (count, verify, bench):
        p.add_argument("--mode", choices=MODES, default="all")
        p.add_argument("--budget", type=int,
                       help="most tuples an oracle histogram may count per case, charged "
                            f"before it is built (default {OracleBudget.max_states}); also bounds "
                            "count's oracle fallback")
    count.add_argument("-n", type=int, help="modulus")
    count.add_argument("-k", type=int, help="number of variables")
    count.add_argument("-a", type=str, help="comma-separated coefficients, e.g. 1,1,3")
    count.add_argument("-b", type=int, help="target residue")
    count.add_argument("--blocks", type=str, help="size:coeff pairs, e.g. 2:2,2:3")
    for p in (verify, bench):
        p.add_argument("--n-max", type=int, help="sweep bound on the modulus")
        p.add_argument("--n-list", type=str,
                       help="explicit comma-separated moduli; wins over --n-max")
        p.add_argument("--k-max", type=int, help="sweep bound on k")
    for p in (count, verify):
        p.add_argument("--format", choices=("json", "csv"), default="json")
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
        (b, count, method, residual, wall_time_s, oracle_count, match)."""
        if self.fmt == "csv":
            # the columns of CSV_COLUMNS in order; fixed has no b
            mode, n, k, a, _, blocks = (_csv_cell(fixed.get(col)) for col in CSV_COLUMNS[:6])
            self._writer().writerows(
                [mode, n, k, a, b, blocks, count, method, residual, dt, oracle, ok, "ok", ""]
                for b, count, method, residual, dt, oracle, ok in rows
            )
            return
        # json.dumps(record) with the shared fields and each method name
        # encoded once.  Counts and b are ints.  The floats are finite, so
        # float.__repr__ is json's own form for them: round_complex_to_int
        # rejects non-finite values, and _Signed's residual is always 0.0.
        head = json.dumps(fixed)[:-1] + ', "b": '
        methods = {method: json.dumps(method) for method in {row[2] for row in rows}}
        self.stream.write("".join(
            f'{head}{b}, "count": {count}, "method": {methods[method]}, '
            f'"residual": {float.__repr__(residual)}, "wall_time_s": {float.__repr__(dt)}, '
            f'"oracle_count": {oracle}, "match": {"true" if ok else "false"}, "status": "ok"}}\n'
            for b, count, method, residual, dt, oracle, ok in rows
        ))

    def summary(self, rec: dict) -> None:
        if self.fmt == "json":
            print(json.dumps(rec), file=self.stream)
        else:
            body = " ".join(f"{key}={value}" for key, value in rec.items())
            print(f"# summary {body}", file=self.stream)


# ----------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    if args.n is None:
        raise UsageError("count requires -n")
    _at_least_one(args, "budget")
    mode = MODE_TABLE[args.mode]
    if args.budget is not None and not mode.count_budget:
        raise UsageError(f"mode {args.mode} takes no --budget")
    t0 = time.perf_counter_ns()
    params = mode.parse(args)
    rec = {"mode": args.mode, "n": args.n, **mode.fields(args.n, params, args.b)}
    if args.k is not None and args.k != rec.get("k"):
        if "k" not in rec:
            raise UsageError(f"mode {args.mode} takes no -k")
        raise UsageError(f"-k {args.k} disagrees with the instance, which has k = {rec['k']}")
    result = mode.count(mode.instance(args.n, params), params, args.b, _budget(args))
    if "blocks" in rec:  # count has always printed the block label after b
        rec["blocks"] = rec.pop("blocks")
    rec.update(count=result.count, method=result.method, residual=result.residual)
    rec["wall_time_s"] = (time.perf_counter_ns() - t0) / 1e9
    Emitter(args.format).record(rec)
    return 0


# ----------------------------------------------------------------------
# verify


def _case_rows(case: tuple) -> tuple[dict, list[tuple] | None]:
    """Run one verify case (mode name, n, params, budget): one oracle
    histogram checks the counter at every target b.  Returns the fields all
    rows share (mode, n, and k, a or blocks) and one tuple (b, count,
    method, residual, wall_time_s, oracle_count, match) per target, as
    Emitter.case takes them; a case over budget returns its skip record and
    None."""
    name, n, params, budget = case
    mode = MODE_TABLE[name]
    fixed = {"mode": name, "n": n, **mode.fields(n, params, 0)}
    del fixed["b"]  # the last field, so the rows' own fields follow the shared ones
    rows = []
    instance = mode.instance(n, params)
    try:
        hist = mode.oracle(instance, params, OracleBudget(budget))
        for b in range(n):
            t0 = time.perf_counter_ns()
            res = mode.count(instance, params, b, budget)
            dt = (time.perf_counter_ns() - t0) / 1e9
            rows.append((b, res.count, res.method, res.residual, dt, hist[b],
                         res.count == hist[b]))
    except BudgetExceededError as exc:
        return {"mode": name, "n": n, "status": "skipped", "detail": str(exc)}, None
    return fixed, rows


def cmd_verify(args) -> int:
    grid = MODE_TABLE[args.mode].verify_grid(args)
    cases = [(args.mode, n, params, _budget(args)) for n, params in grid]
    emitter = Emitter(args.format)
    total_rows = mismatches = skipped = 0
    max_residual = 0.0
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: costly to import
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_case_rows, cases, chunksize=8))
    else:
        outcomes = map(_case_rows, cases)
    for fixed, rows in outcomes:
        if rows is None:
            emitter.record(fixed)
            skipped += 1
            continue
        emitter.case(fixed, rows)
        total_rows += len(rows)
        mismatches += sum(not row[6] for row in rows)
        max_residual = max(max_residual, *(row[3] for row in rows))
    emitter.summary({"cases": total_rows, "mismatches": mismatches, "skipped": skipped,
                     "max_residual": max_residual})
    return 0 if mismatches == 0 else 1


# ----------------------------------------------------------------------
# bench


def _timed(fn, *args) -> float | None:
    """Seconds one call of fn takes, or None when it exceeds its budget."""
    t0 = time.perf_counter()
    try:
        fn(*args)
    except BudgetExceededError:
        return None
    return time.perf_counter() - t0


def _fixed(value: float | None, digits: int) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def cmd_bench(args) -> int:
    mode = MODE_TABLE[args.mode]
    if mode.bench_grid is None:
        raise UsageError(f"mode {args.mode!r} has no benchmark grid")
    grid = mode.bench_grid(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "k", "mode", "t_formula_s", "t_oracle_s", "speedup"])
    budget = _budget(args)
    for n, k, params in grid:
        instance = mode.instance(n, params)
        t_formula = _timed(mode.count, instance, params, 1, budget)
        t_oracle = _timed(mode.oracle, instance, params, OracleBudget(budget))
        speedup = None
        if t_formula is not None and t_oracle is not None:
            speedup = t_oracle / t_formula if t_formula > 0 else math.inf
        times = (_fixed(t_formula, 6), _fixed(t_oracle, 6), _fixed(speedup, 2))
        writer.writerow([n, k, args.mode, *times])
    return 0


# ----------------------------------------------------------------------
# selftest


def _check_golden(mode: _Mode) -> None:
    """The counter and the oracle of ``mode`` give its golden values."""
    for n, params, b, expected in mode.golden:
        instance = mode.instance(n, params)
        values = [mode.count(instance, params, b, OracleBudget.max_states).count,
                  mode.oracle(instance, params, OracleBudget())[b]]
        assert values == [expected] * 2, (n, params, b, values)


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
        assert characters.square_profile(9).square_set == frozenset({0, 1, 4, 7})
        assert characters.square_profile(3).s == 2
        assert characters.square_profile(27).s == 11

    def check_square_witnesses():
        witnesses = oracles.oracle_solutions(CongruenceSpec(27, (1, 1), 1), "square")
        assert set(witnesses) == {(1, 0), (0, 1), (9, 19), (19, 9)}

    return [
        ("epsilon-values", check_epsilon),
        ("gauss-closed-forms", check_gauss_closed),
        ("square-membership-and-profiles", check_square_membership),
        ("square-witnesses", check_square_witnesses),
        *((f"{name}-golden-counts", partial(_check_golden, entry))
          for name, entry in MODE_TABLE.items()),
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
        commands = {"count": cmd_count, "verify": cmd_verify, "bench": cmd_bench}
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
