"""The benchmark's own checks: references against brute force, failure
accounting, the verify-sweep check, the scaling of times, tracing, and
BENCHMARK.json.

These run in a few seconds; the only slow part is the K3 square instance
(about 1 s per call), run once to pin which operations fail.
"""

import cmath
import itertools
import json
import math
import sys

import references as ref
import run
import tracing
import worker
import workloads

if str(worker.SRC) not in sys.path:
    sys.path.insert(0, str(worker.SRC))


def brute(n, coeffs, keep, domain=None):
    hist = [0] * n
    for tup in itertools.product(range(n) if domain is None else domain, repeat=len(coeffs)):
        if keep(tup):
            hist[sum(a * x for a, x in zip(coeffs, tup)) % n] += 1
    return hist


def decreasing(tup):
    return all(tup[i] > tup[i + 1] for i in range(len(tup) - 1))


def test_histograms_match_brute_force():
    for n in range(1, 7):
        squares = ref.square_set(n)
        for k in (1, 2, 3):
            for coeffs in itertools.product(range(n), repeat=k):
                assert ref.all_hist(n, coeffs) == brute(n, coeffs, lambda t: True)
                assert ref.square_hist(n, coeffs) == brute(n, coeffs, lambda t: True, squares)
                assert ref.strict_hist(n, coeffs) == brute(n, coeffs, decreasing)
                distinct = brute(n, coeffs, lambda t: len(set(t)) == len(t))
                assert ref.distinct_hist(n, coeffs) == distinct
                assert [ref.distinct_count(n, coeffs, b) for b in range(n)] == distinct


def test_equal_coefficient_counts_match_brute_force():
    for n in range(1, 9):
        for k in (1, 2, 3, 4):
            for a in range(n):
                coeffs = (a,) * k
                strict = brute(n, coeffs, decreasing)
                distinct = brute(n, coeffs, lambda t: len(set(t)) == len(t))
                assert [ref.strict_equal_count(n, k, a, b) for b in range(n)] == strict
                assert [ref.distinct_equal_count(n, k, a, b) for b in range(n)] == distinct


def test_blocks_match_brute_force():
    for n in range(1, 6):
        for blocks in (((1, 1),), ((2, 1),), ((2, 2), (1, 3)), ((3, 1), (1, 2)), ((2, 0), (2, 3))):
            coeffs = [a for size, a in blocks for _ in range(size)]
            starts = list(itertools.accumulate(size for size, _ in blocks))

            def weakly_decreasing(tup):
                lo = 0
                for hi in starts:
                    part = tup[lo:hi]
                    if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                        return False
                    lo = hi
                return True

            assert ref.blocks_hist(n, blocks) == brute(n, coeffs, weakly_decreasing)


def test_ramanujan_matches_exponential_sum():
    for n in range(1, 40):
        for b in range(n):
            direct = sum(
                cmath.exp(2j * math.pi * j * b / n) for j in range(1, n + 1) if math.gcd(j, n) == 1
            )
            assert abs(direct - ref.ramanujan(n, b)) < 1e-6


def test_large_modulus_identities():
    # Counts depend on b only through gcd(b, n) (scale the solutions by a
    # unit), so summing over the divisors g of n with weight phi(n/g)
    # covers every target.
    for n, k, a in ((10**6 + 3, 7, 1), (2**6 * 3**4 * 5**2, 12, 10), (720720, 30, 9)):
        divs = ref.divisors_of(n)
        total = sum(ref.totient(n // g) * ref.strict_equal_count(n, k, a, g) for g in divs)
        assert total == math.comb(n, k)
    for n, coeffs in ((1009, (1, 5, 77, 300)), (11 * 997, (3, 8, 20, 41, 2))):
        total = sum(ref.totient(n // g) * ref.distinct_count(n, coeffs, g) for g in ref.divisors_of(n))
        assert total == math.perm(n, len(coeffs))


def test_builds_are_seeded_and_fixed_size():
    for name, (build, _module) in workloads.WORKLOADS.items():
        first = build(1)
        assert build(1) == first
        assert build(2) != first
        for seed in (2, 3, 17):
            other = build(seed)
            assert len(other) == len(first), name
            assert [op for op in other if "fault" in op] == [op for op in first if "fault" in op]


def test_wrong_count_is_a_failed_operation_and_the_round_goes_on():
    ops = [op for op in workloads.build_square(5) if op["n"] < 20][:4]
    exp = workloads.expected(ops)

    def stub(op):
        if op is ops[1]:
            return {"count": exp[1] + 1, "method": "formula"}
        if op is ops[2]:
            raise ArithmeticError("broken counter")
        return {"count": exp[ops.index(op)], "method": "formula"}

    results, _ = worker.execute(ops, {"square": stub})
    assert len(results) == len(ops)
    assert all(r["cal"] > 0 for r in results)
    failed, _ = run.check_round(ops, exp, {"results": results})
    assert [i for i, _ in failed] == [1, 2]


def test_times_scale_to_the_reference_speed():
    ref_s = run.REFERENCE_CAL_S
    rnd = {"setup_s": 0.04, "setup_cal": 2 * ref_s, "wall_s": 1.0,
           "results": [{"t": 0.3, "cal": ref_s}, {"t": 0.6, "cal": 2 * ref_s}]}
    out = run.scaled(rnd)
    assert out["op_s"] == [0.3, 0.3]
    assert math.isclose(out["setup_s"], 0.02)
    assert math.isclose(out["wall_s"], 1.0 * 0.6 / 0.9)


def test_fault_operations_fail_at_this_commit():
    # Pins the program as it was when the benchmark was defined: the K3
    # instances return wrong integers and the n = 168 instance raises.  When
    # a fault is mended, its operations stop failing and this list shrinks.
    ops = [op for w in (workloads.build_square, workloads.build_ordered) for op in w(1) if "fault" in op]
    exp = workloads.expected(ops)
    results, _ = worker.execute(ops, worker.calls())
    failed, _ = run.check_round(ops, exp, {"results": results})
    failing = [ops[i] for i, _ in failed]
    assert [(op["n"], op["b"]) for op in failing if op["kind"] == "square"] == [(27, 4), (49, 1)]
    assert sum(op["n"] == 18 for op in failing) == 9
    assert sum(op["n"] == 30 for op in failing) == 30
    assert [op["b"] for op in failing if op["n"] == 168] == [1]
    assert "ConsistencyError" in dict(failed)[ops.index(failing[-1])]


def test_verify_check_reads_every_row(tmp_path):
    op = {"kind": "verify", "mode": "strict", "n_max": 5, "k_max": 2,
          "argv": ["verify", "--mode", "strict", "--n-max", "5", "--k-max", "2", "--jobs", "1"]}
    rows = workloads.verify_rows(op)
    results, _ = worker.execute([op], worker.calls(tmp_path))
    assert run.check_verify(results[0], rows) == (None, len(rows))
    path = results[0]["out"]
    lines = open(path).read().splitlines()
    bad = json.loads(lines[3])
    bad["count"] += 1
    bad["oracle_count"] += 1
    lines[3] = json.dumps(bad)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    reason, printed = run.check_verify(results[0], rows)
    assert reason and printed == len(rows)


def test_traced_counts_repeat(tmp_path):
    ops = workloads.build_square(3)
    ops = [op for op in ops if op["n"] in (9, 15)][:20] + [op for op in ops if op["n"] in (12, 16)][:20]
    counts = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.bin"
        out = run.run_round("lincong.formulas", ops, True, spans)
        metrics = tracing.layer_metrics(spans)
        assert metrics["formulas.square_count.calls"] == len(ops)
        assert metrics["oracles.states"] > 0 and out["wall_s"] > 0
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
