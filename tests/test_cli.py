"""CLI contract: record formats, exit codes, determinism, sweeps."""

import csv
import functools
import io
import itertools
import json
import subprocess
import sys
from collections import Counter

import pytest

from lincong import arith, cli, formulas, oracles
from lincong.model import CongruenceSpec, OracleBudget


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_count_square_golden(capsys):
    code, out, _ = run_cli(["count", "--mode", "square", "-n", "27", "-a", "1,1", "-b", "1"], capsys)
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["count"] == 4 and rec["method"] == "formula"
    assert rec["residual"] < 1e-6


def test_count_blocks_golden(capsys):
    code, out, _ = run_cli(
        ["count", "--mode", "blocks", "-n", "6", "--blocks", "2:2,2:3", "-b", "5"], capsys
    )
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["count"] == 63


def test_count_strict_golden(capsys):
    code, out, _ = run_cli(
        ["count", "--mode", "strict", "-n", "5", "-k", "2", "-a", "1", "-b", "0"], capsys
    )
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["count"] == 2


def test_count_distinct_and_ramanujan(capsys):
    code, out, _ = run_cli(["count", "--mode", "distinct", "-n", "7", "-a", "1,1", "-b", "1"], capsys)
    assert code == 0 and json_lines(out)[0]["count"] == 6
    code, out, _ = run_cli(["count", "--mode", "ramanujan", "-n", "9", "-b", "3"], capsys)
    assert code == 0 and json_lines(out)[0]["count"] == -3
    # equal coefficients take the divisor sum, subset-sum hypothesis or not
    code, out, _ = run_cli(["count", "--mode", "distinct", "-n", "6", "-a", "2,2", "-b", "0"], capsys)
    assert code == 0 and json_lines(out)[0]["count"] == 10


def test_count_prints_counts_past_the_int_digit_limit(capsys):
    # 141174 digits: more than the 4300 that int <-> str allows by default
    argv = ["count", "--mode", "strict", "-n", "1000003", "-k", "100000", "-a", "1", "-b", "5"]
    expected = formulas.strict_order_count(1000003, 100000, 1, 5).count
    head = expected // 10 ** (141174 - 20)  # the leading 20 digits, without int -> str
    for fmt in ("json", "csv"):
        code, out, err = run_cli(argv + ["--format", fmt], capsys)
        assert (code, err) == (0, ""), fmt
        if fmt == "json":
            digits = out.split('"count": ', 1)[1].split(",", 1)[0]
        else:
            header, row = (line.split(",") for line in out.splitlines())  # no quoted cell
            digits = row[header.index("count")]
        assert len(digits) == 141174 and digits.isdigit(), fmt
        assert digits[:20] == f"{head}" and digits[-20:] == f"{expected % 10**20:020d}", fmt


def test_count_csv_format(capsys):
    code, out, _ = run_cli(
        ["count", "--mode", "all", "-n", "6", "-a", "2,4", "-b", "4", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert rows[1][rows[0].index("count")] == "12"
    assert len(rows) == 2


def test_usage_errors_exit_2(capsys):
    assert run_cli(["count", "--mode", "nope", "-n", "5"], capsys)[0] == 2
    assert run_cli(["count", "--mode", "square", "-n", "27"], capsys)[0] == 2
    assert run_cli(["count", "--mode", "strict", "-n", "5", "-a", "1,2", "-k", "2", "-b", "0"], capsys)[0] == 2
    assert run_cli(["count", "--mode", "blocks", "-n", "6", "--blocks", "2-2", "-b", "1"], capsys)[0] == 2
    # no bench command: verify's summary times formula against oracle
    code, out, err = run_cli(["bench", "--mode", "blocks", "--n-list", "8,12"], capsys)
    assert (code, out) == (2, "") and "invalid choice: 'bench'" in err
    # grid bounds below 1 are refused before any row is printed
    for argv in (
        ["verify", "--mode", "all", "--n-max", "2", "--k-max", "0"],
        ["verify", "--mode", "blocks", "--n-max", "2", "--k-max", "0"],
        ["verify", "--mode", "strict", "--n-max", "3", "--k-max", "-1"],
        ["verify", "--mode", "all", "--n-max", "2", "--jobs", "0"],
        # a budget below 1 would refuse every histogram and skip every case
        ["verify", "--mode", "all", "--n-max", "3", "--budget", "-5"],
        ["verify", "--mode", "square", "--n-list", "9", "--budget", "0"],
        ["count", "--mode", "all", "-n", "6", "-a", "2,4", "-b", "4", "--budget", "0"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and "must be >= 1" in err, argv
    # the ramanujan grid has no k and its oracle charges no budget, so an
    # explicit --k-max or --budget cannot be honoured
    for argv in (
        ["verify", "--mode", "ramanujan", "--n-max", "5", "--k-max", "7"],
        ["verify", "--mode", "ramanujan", "--n-max", "5", "--budget", "1"],
        ["verify", "--mode", "ramanujan", "--n-max", "5", "--budget", str(10**8)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and "mode ramanujan takes no" in err, argv


def test_count_refuses_budget_where_nothing_reads_it(capsys):
    # only square's counter reads --budget: at n = 9, k = 2 it charges its
    # 2**2 * 9 = 36 subset products; the counters of the other modes are
    # exact formulas with nothing to bound
    for mode in cli.MODES:
        count_args, _ = COUNT_IN_VERIFY[mode]
        code, out, err = run_cli(["count", "--mode", mode, *count_args, "--budget", "35"], capsys)
        if mode == "square":
            assert (code, out) == (2, "") and "budget exceeded" in err, mode
            code, out, _ = run_cli(["count", "--mode", mode, *count_args, "--budget", "36"], capsys)
            assert code == 0 and json_lines(out)[0]["count"] == 3, mode
        else:
            assert (code, out) == (2, "") and f"mode {mode} takes no --budget" in err, mode


def test_count_k_must_match_the_instance(capsys):
    assert run_cli(["count", "--mode", "all", "-n", "6", "-a", "2,4", "-k", "3", "-b", "4"], capsys)[0] == 2
    assert run_cli(["count", "--mode", "ramanujan", "-n", "9", "-k", "1", "-b", "3"], capsys)[0] == 2
    # checked before the counter is built, whose DomainError would come first
    code, _, err = run_cli(["count", "--mode", "distinct", "-n", "6", "-a", "2,1", "-k", "3", "-b", "0"],
                           capsys)
    assert code == 2 and "disagrees" in err
    code, out, _ = run_cli(["count", "--mode", "all", "-n", "6", "-a", "2,4", "-k", "2", "-b", "4"], capsys)
    assert code == 0 and json_lines(out)[0]["count"] == 12


def test_domain_error_exit_2(capsys):
    # distinct-mode hypothesis violation is a domain error
    code, _, err = run_cli(["count", "--mode", "distinct", "-n", "6", "-a", "2,1", "-b", "0"], capsys)
    assert code == 2 and "domain error" in err


def test_budget_error_exit_2(capsys):
    # even modulus routes square counting to the oracle, which the tiny budget rejects
    code, _, err = run_cli(
        ["count", "--mode", "square", "-n", "8", "-a", "1,1", "-b", "2", "--budget", "1"], capsys
    )
    assert code == 2 and "budget" in err
    # square's odd-n counter charges 2**25 * 3 subset products, not oracle
    # states: the refusal gives the charge, what is left and the total, in no unit
    ones = ",".join(["1"] * 25)
    code, out, err = run_cli(["count", "--mode", "square", "-n", "3", "-a", ones, "-b", "1"], capsys)
    assert (code, out) == (2, "") and "states" not in err
    assert err == "budget exceeded: charge of 100663296 exceeds the 100000000 left of 100000000\n"


def test_consistency_error_exit_3(capsys, monkeypatch):
    from lincong.errors import ConsistencyError

    def broken(spec):  # a square counter whose every target fails
        def at(b):
            raise ConsistencyError("forced by test")

        return at

    monkeypatch.setattr(formulas, "_square", broken)
    code, _, err = run_cli(["count", "--mode", "square", "-n", "27", "-a", "1,1", "-b", "1"], capsys)
    assert code == 3 and "consistency" in err


def test_verify_strict_sweep(capsys):
    code, out, _ = run_cli(
        ["verify", "--mode", "strict", "--n-max", "6", "--k-max", "3"], capsys
    )
    assert code == 0
    records = json_lines(out)
    summary = records[-1]
    assert summary["mismatches"] == 0 and summary["cases"] > 0
    for rec in records[:-1]:
        assert rec["match"] is True
        assert rec["count"] == rec["oracle_count"]


def test_verify_square_row_schema(capsys):
    # one oracle per mode: a row carries oracle_count and nothing else from an oracle
    code, out, _ = run_cli(["verify", "--mode", "square", "--n-list", "9", "--k-max", "2"], capsys)
    assert code == 0
    *records, summary = json_lines(out)
    assert summary["cases"] == len(records) > 0
    fields = ["mode", "n", "k", "a", "b", "count", "method", "residual", "wall_time_ns",
              "oracle_count", "match", "status"]
    for rec in records:
        assert list(rec) == fields
        assert rec["count"] == rec["oracle_count"] and rec["match"] is True
    assert "oracle_count_alt" not in cli.CSV_COLUMNS


def test_verify_summary_times_formula_and_oracle(capsys):
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(["verify", "--mode", "blocks", "--n-list", "8,12", "--k-max", "2",
                                "--format", fmt], capsys)
        assert code == 0, fmt
        if fmt == "json":
            *rows, summary = json_lines(out)
            walls = [rec["wall_time_ns"] for rec in rows]
        else:
            pairs = out.strip().splitlines()[-1].removeprefix("# summary ").split(" ")
            summary = {key: float(value) for key, value in (p.split("=") for p in pairs)}
            rows = list(csv.DictReader(io.StringIO(out.rsplit("# summary", 1)[0])))
            walls = [int(row["wall_time_ns"]) for row in rows]
        assert summary["mismatches"] == 0 and summary["cases"] == len(rows) > 0, fmt
        assert summary["oracle_s"] > 0 and summary["formula_s"] > 0, fmt
        assert summary["build_s"] > 0, fmt
        assert summary["formula_s"] == sum(walls) / 1e9, fmt


def test_verify_distinct_checks_each_tuple_once(capsys, monkeypatch):
    # the grid walks the multisets by prefix and makes no subset-sum check
    # of its own, so only a case's counter checks its tuple, once, and
    # equal coefficients need no check; the cases printed are exactly the
    # multisets that pass the check, in grid order
    inner = formulas._subset_sum_obstruction.__wrapped__
    calls = Counter()

    def counted(n, coeffs):
        calls[n, coeffs] += 1
        return inner(n, coeffs)

    monkeypatch.setattr(formulas, "_subset_sum_obstruction", functools.lru_cache(2)(counted))
    code, out, _ = run_cli(["verify", "--mode", "distinct", "--n-max", "9", "--k-max", "3"], capsys)
    *rows, summary = json_lines(out)
    assert code == 0 and summary["cases"] == len(rows) > 0
    passing = [(n, coeffs) for n in range(1, 10) for k in (1, 2, 3)
               for coeffs in itertools.combinations_with_replacement(range(n), k)
               if inner(n, coeffs) is None]
    assert list(dict.fromkeys((rec["n"], tuple(rec["a"])) for rec in rows)) == passing
    assert set(calls) == {(n, coeffs) for n, coeffs in passing if len(set(coeffs)) > 1}
    assert set(calls.values()) == {1}


def test_distinct_grid_walk_equals_the_filter_of_every_multiset():
    # the pruned walk gives the multisets that pass the subset-sum check,
    # in the order of the filter it replaces, n = 1 included
    args = cli.build_parser().parse_args(["verify", "--mode", "distinct", "--n-max", "15",
                                          "--k-max", "5"])
    filtered = [(n, (None, coeffs)) for n in range(1, 16) for k in range(1, 6)
                for coeffs in itertools.combinations_with_replacement(range(n), k)
                if formulas.subset_sum_obstruction(n, coeffs) is None]
    assert list(cli.MODE_TABLE["distinct"].verify_grid(args)) == filtered


def test_verify_square_case_builds_each_term_table_once(monkeypatch):
    # the counter of a case builds one table of terms per prime power, 9
    # and 5 at n = 45, not one per target (14 * 45 calls)
    inner = formulas._square_term
    calls = Counter()

    def counted(p, ell, x):
        calls[p**ell] += 1
        return inner(p, ell, x)

    monkeypatch.setattr(formulas, "_square_term", counted)
    rows = cli._case_rows(("square", 45, (None, (1, 2)), OracleBudget.max_states))[1]
    assert len(rows) == 45 and all(row[6] for row in rows)
    assert calls == {9: 9, 5: 5}


def test_verify_square_even_fallback_enumerates_once_per_case(capsys, monkeypatch):
    # an even modulus falls back to the oracle: its counter builds the
    # histogram once, beside the case's own oracle, not once per target;
    # the two calls share one packed build, so the second builds no count
    # vector and no convolution
    inner = oracles.oracle_histogram
    calls, builds = [], Counter()

    def counted(spec, restriction="all", budget=None):
        before = builds.total()
        hist = inner(spec, restriction, budget)
        calls.append((spec.coeffs, restriction, builds.total() - before))
        return hist

    def counting(name, fn):
        def wrapped(*args):
            builds[name] += 1
            return fn(*args)
        return wrapped

    oracles._fold.cache_clear()
    oracles._count_vector.cache_clear()
    for name in ("_count_vector", "_convolve"):
        monkeypatch.setattr(oracles, name, counting(name, getattr(oracles, name)))
    monkeypatch.setattr(oracles, "oracle_histogram", counted)
    code, out, _ = run_cli(["verify", "--mode", "square", "--n-list", "12", "--k-max", "2"], capsys)
    *rows, summary = json_lines(out)
    assert code == 0 and summary["cases"] == len(rows) == 12 * 14
    assert {rec["method"] for rec in rows} == {"oracle-fallback"}
    assert len(calls) == 2 * 14 and set(Counter(call[:2] for call in calls).values()) == {2}
    first, second = calls[::2], calls[1::2]
    assert [call[:2] for call in first] == [call[:2] for call in second]
    assert all(call[2] > 0 for call in first) and all(call[2] == 0 for call in second)


def test_commands_reject_flags_of_other_commands(capsys):
    # each command registers only the flags it reads: a stray one is a usage error
    stray = [
        ["verify", "--mode", "all", "-n", "5", "--n-max", "2", "--k-max", "1"],
        ["verify", "--mode", "blocks", "--blocks", "2:2", "--n-max", "2"],
        ["count", "--mode", "all", "-n", "6", "-a", "2,4", "-b", "4", "--jobs", "4"],
        ["count", "--mode", "all", "-n", "6", "-a", "2,4", "-b", "4", "--n-max", "3"],
    ]
    for argv in stray:
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv


def test_verify_ramanujan(capsys):
    code, out, _ = run_cli(["verify", "--mode", "ramanujan", "--n-max", "40"], capsys)
    assert code == 0
    assert json_lines(out)[-1]["mismatches"] == 0


def test_ramanujan_oracle_is_independent_of_the_counter(capsys, monkeypatch):
    original = arith.ramanujan_sum

    def wrong_once(n, b):
        return original(n, b) + (1 if (n, b) == (12, 5) else 0)

    monkeypatch.setattr(arith, "ramanujan_sum", wrong_once)
    code, out, _ = run_cli(["verify", "--mode", "ramanujan", "--n-max", "12"], capsys)
    assert code == 1
    assert json_lines(out)[-1]["mismatches"] >= 1


def swept_moduli(out):
    return sorted({rec["n"] for rec in json_lines(out)[:-1]})


def test_verify_n_list_wins_over_n_max(capsys):
    argv = ["verify", "--mode", "all", "--n-max", "3", "--k-max", "1", "--n-list", "5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and swept_moduli(out) == [5]


def test_grids_honour_n_max(capsys):
    code, out, _ = run_cli(["verify", "--mode", "square", "--n-max", "4", "--k-max", "1"], capsys)
    assert code == 0 and swept_moduli(out) == [1, 2, 3, 4]
    code, out, _ = run_cli(["verify", "--mode", "blocks", "--n-max", "3", "--k-max", "1"], capsys)
    assert code == 0 and swept_moduli(out) == [1, 2, 3]
    assert run_cli(["verify", "--mode", "all", "--n-list", "0,3"], capsys)[0] == 2


def test_verify_budget_skips(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "--mode", "strict", "--n-max", "8", "--k-max", "3", "--budget", "5"], capsys
    )
    assert code == 0  # skips are not mismatches
    records = json_lines(out)
    summary = records[-1]
    assert summary["skipped"] > 0
    assert any(rec.get("status") == "skipped" for rec in records[:-1])
    # at n = 9 the square counter charges 2**k * 9: the 10 cases at k = 2
    # (36 > 20) are refused when their counter is built, where the oracle's
    # 4**2 = 16 tuples would fit, so only the 4 cases at k = 1 build an oracle
    inner, calls = oracles.oracle_histogram, []
    monkeypatch.setattr(oracles, "oracle_histogram", lambda *args: calls.append(args) or inner(*args))
    argv = ["verify", "--mode", "square", "--n-list", "9", "--k-max", "2", "--budget", "20"]
    code, out, _ = run_cli(argv, capsys)
    *records, summary = json_lines(out)
    assert code == 0 and (summary["cases"], summary["skipped"], summary["mismatches"]) == (36, 10, 0)
    assert len(calls) == 4
    skips = [rec for rec in records if rec.get("status") == "skipped"]
    assert len(skips) == 10 and all(rec["detail"].startswith("charge of 36 ") for rec in skips)


def test_verify_detects_mismatch(capsys, monkeypatch):
    original = formulas._strict

    def off_by_one(n, k, a):
        count_at = original(n, k, a)

        def at(b):
            res = count_at(b)
            return type(res)(res.count + 1, res.method, res.residual)

        return at

    monkeypatch.setattr(formulas, "_strict", off_by_one)
    code, out, _ = run_cli(["verify", "--mode", "strict", "--n-max", "4", "--k-max", "2"], capsys)
    assert code == 1
    assert json_lines(out)[-1]["mismatches"] > 0


TIMINGS = ("wall_time_ns", "formula_s", "oracle_s", "build_s")


def strip_timing(records):
    return [{key: value for key, value in rec.items() if key not in TIMINGS} for rec in records]


# Grid flags small enough for every mode; --budget 20 turns the larger cases
# of some modes into skip rows.
def tiny_verify(mode):
    """verify argv on a tiny grid; the ramanujan grid takes no --k-max or --budget."""
    argv = ["verify", "--mode", mode, "--n-max", "5", "--n-list", "3,8"]
    if mode != "ramanujan":
        argv += ["--k-max", "2", "--budget", "20"]
    return argv


def test_verify_jobs_matches_serial(capsys):
    for mode in cli.MODES:
        argv = tiny_verify(mode)
        serial = run_cli(argv, capsys)
        parallel = run_cli(argv + ["--jobs", "2"], capsys)
        assert serial[0] == parallel[0] == 0, mode
        assert strip_timing(json_lines(serial[1])) == strip_timing(json_lines(parallel[1])), mode


@pytest.mark.parametrize("mode", cli.MODES)
def test_verify_csv_matches_json(mode, capsys):
    argv = tiny_verify(mode)
    _, as_json, _ = run_cli(argv, capsys)
    _, as_csv, _ = run_cli(argv + ["--format", "csv"], capsys)
    *records, summary = json_lines(as_json)
    *rows, summary_line = as_csv.strip().splitlines()
    parsed = list(csv.reader(io.StringIO("\n".join(rows) + "\n")))
    assert parsed[0] == list(cli.CSV_COLUMNS)
    assert list(cli.CSV_COLUMNS) not in parsed[1:]
    assert len(parsed) == len(records) + 1
    timing = cli.CSV_COLUMNS.index("wall_time_ns")
    for rec, row in zip(records, parsed[1:]):
        expected = []
        for col in cli.CSV_COLUMNS:
            val = rec.get(col)
            if val is None:
                expected.append("")
            elif isinstance(val, list):
                expected.append(" ".join(map(str, val)))
            else:
                expected.append(str(val))
        expected[timing] = row[timing]
        assert row == expected
    body = summary_line.removeprefix("# summary ").split(" ")
    assert [pair for pair in body if pair.split("=")[0] not in TIMINGS] == [
        f"{k}={v}" for k, v in summary.items() if k not in TIMINGS]
    assert [pair.split("=")[0] for pair in body] == list(summary)


def test_row_timings_are_integer_nanoseconds(capsys):
    # every wall_time_ns is a perf_counter_ns() difference, written as an int
    timings, cells = [], []
    for mode in cli.MODES:
        argv = tiny_verify(mode)
        _, out, _ = run_cli(argv, capsys)
        timings += [rec["wall_time_ns"] for rec in json_lines(out)[:-1] if rec["status"] == "ok"]
        _, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        rows = list(csv.DictReader(io.StringIO(out.rsplit("# summary", 1)[0])))
        cells += [row["wall_time_ns"] for row in rows if row["status"] == "ok"]
    for count_args in (["--mode", "all", "-n", "6", "-a", "2,4", "-b", "4"],
                       ["--mode", "strict", "-n", "5", "-k", "2", "-a", "1", "-b", "0"]):
        _, out, _ = run_cli(["count", *count_args], capsys)
        timings += [rec["wall_time_ns"] for rec in json_lines(out)]
        _, out, _ = run_cli(["count", *count_args, "--format", "csv"], capsys)
        cells += [row["wall_time_ns"] for row in csv.DictReader(io.StringIO(out))]
    assert len(timings) > 100 and len(cells) > 100
    bad = [x for x in timings if type(x) is not int or x < 0]
    assert not bad, bad[:5]
    assert all(cell.isdigit() for cell in cells), [c for c in cells if not c.isdigit()][:5]


# One small instance per mode, with the verify flags whose grid contains it.
COUNT_IN_VERIFY = {
    "all": (["-n", "6", "-a", "2,4", "-b", "4"], ["--n-max", "6", "--k-max", "2"]),
    "square": (["-n", "9", "-a", "1,2", "-b", "3"], ["--n-list", "9", "--k-max", "2"]),
    "strict": (["-n", "5", "-k", "2", "-a", "1", "-b", "0"], ["--n-max", "5", "--k-max", "2"]),
    "distinct": (["-n", "7", "-a", "1,1", "-b", "1"], ["--n-max", "7", "--k-max", "2"]),
    "blocks": (["-n", "6", "--blocks", "2:2,2:3", "-b", "5"], ["--n-max", "6", "--k-max", "2"]),
    "ramanujan": (["-n", "9", "-b", "3"], ["--n-max", "9"]),
}


@pytest.mark.parametrize("mode", cli.MODES)
def test_count_matches_verify_row(mode, capsys):
    assert set(COUNT_IN_VERIFY) == set(cli.MODES)
    count_args, verify_args = COUNT_IN_VERIFY[mode]
    code, out, _ = run_cli(["count", "--mode", mode, *count_args], capsys)
    assert code == 0
    (rec,) = json_lines(out)
    code, out, _ = run_cli(["verify", "--mode", mode, *verify_args], capsys)
    assert code == 0
    key = ("n", "k", "a", "blocks", "b")
    (row,) = [r for r in json_lines(out)[:-1] if all(r.get(f) == rec.get(f) for f in key)]
    for field in ("count", "method", "residual"):
        assert row[field] == rec[field], field


def test_cli_import_leaves_out_pool_and_dataclasses(cli_env):
    # Against the modules the bare interpreter already holds, so a site
    # that preloads some of them does not count against lincong.
    code = (
        "import sys; bare = set(sys.modules); import lincong.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env, check=True)
    added = set(proc.stdout.split())
    assert "lincong.cli" in added
    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect",
             "fractions", "decimal", "numbers", "csv", "_csv")
    assert not added & set(heavy), sorted(added & set(heavy))


def test_selftest_passes_and_is_deterministic(cli_env):
    proc1 = subprocess.run(
        [sys.executable, "-m", "lincong.cli", "selftest"], capture_output=True, text=True,
        env=cli_env,
    )
    proc2 = subprocess.run(
        [sys.executable, "-m", "lincong.cli", "selftest"], capture_output=True, text=True,
        env=cli_env,
    )
    assert proc1.returncode == 0
    assert proc1.stdout == proc2.stdout
    assert proc1.stdout.endswith("checks passed\n")


def test_selftest_catches_broken_epsilon(capsys, monkeypatch):
    original = arith.epsilon
    monkeypatch.setattr(arith, "epsilon", lambda n: -original(n))
    assert cli.cmd_selftest() == 1
    assert "FAIL" in capsys.readouterr().out


def test_json_records_roundtrip(capsys, monkeypatch):
    # a case's rows are encoded without json.dumps per row: each line must
    # still be exactly what json.dumps gives for its record
    def lines(argv):
        code, out, _ = run_cli(argv, capsys)
        for line in out.splitlines():
            assert line == json.dumps(json.loads(line)), (argv, line)
        return code, json_lines(out)[:-1]

    records = []
    for mode in cli.MODES:
        argv = tiny_verify(mode)
        for jobs in ("1", "2"):
            code, recs = lines(argv + ["--jobs", jobs])
            assert code == 0, (mode, jobs)
            records += recs
    assert any(rec["status"] == "skipped" for rec in records)
    assert any(rec.get("count", 0) < 0 for rec in records)  # ramanujan
    squares = [rec for rec in records if rec["mode"] == "square" and "residual" in rec]
    assert any(rec["residual"] != 0.0 for rec in squares)  # odd n
    for rec in squares:  # every digit of the float survives
        spec = CongruenceSpec(rec["n"], tuple(rec["a"]), rec["b"])
        assert rec["residual"] == formulas.square_count(spec).residual, rec
    original = formulas._strict

    def off_by_one_at_zero(n, k, a):
        count_at = original(n, k, a)

        def at(b):
            res = count_at(b)
            return type(res)(res.count + (b == 0), res.method, res.residual)

        return at

    monkeypatch.setattr(formulas, "_strict", off_by_one_at_zero)
    code, recs = lines(tiny_verify("strict"))
    assert code == 1 and {rec["match"] for rec in recs if "match" in rec} == {True, False}
