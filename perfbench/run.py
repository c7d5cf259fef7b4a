"""Benchmark for lincong: three workloads, end-to-end metrics, and a traced
run per layer.

    python3 perfbench/run.py --workload square-formula --seed 1 --seconds 20 --trace 0

Inputs come from --seed (workloads.py) and their expected results from
references computed apart from lincong, before anything is timed.  Each
round runs every operation once in a fresh interpreter (worker.py), so the
program's caches start empty as they do for each `lincong` invocation.
Rounds repeat until --seconds have passed.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 each
round is run twice, untraced and traced, and the object holds the per-layer
metrics read from the spans (tracing.py) and the tracing overhead.

Every time is reported in seconds at a reference host speed: a measured
time t is scaled to t * REFERENCE_CAL_S / c, where c is the time the fixed
calibration loop of worker.py took around it (see scaled).  The host this
was built on drifts by tens of per cent over seconds; the scaling takes the
drift out, and the stderr summary gives the unscaled medians beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# A run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170
# Time of worker.calibrate at the reference speed.  A fixed constant, so
# that runs on any day compare; on the 2-vCPU VM (Python 3.11.7) the
# benchmark was built on, the loop's median over a run was 1.0 to 1.6 ms.
REFERENCE_CAL_S = 0.0016

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
PER_LAYER = (
    ("formulas.self_s", "s"),
    ("formulas.square_count.calls", "count"),
    ("formulas.square_count.self_s", "s"),
    ("formulas.oracle_fallback.calls", "count"),
    ("formulas.order_blocks_count.calls", "count"),
    ("formulas.order_blocks_count.self_s", "s"),
    ("formulas.strict_order_count.self_s", "s"),
    ("formulas.distinct_count_gcd_condition.self_s", "s"),
    ("formulas.distinct_count_equal_coeffs.self_s", "s"),
    ("formulas.lehmer_count.self_s", "s"),
    ("arith.calls", "count"),
    ("arith.self_s", "s"),
    ("arith.ramanujan_sum.calls", "count"),
    ("arith.root_of_unity.calls", "count"),
    ("arith.round_complex_to_int.calls", "count"),
    ("arith.factorize.self_s", "s"),
    ("characters.self_s", "s"),
    ("characters.square_profile.self_s", "s"),
    ("characters.gauss_sum_real_prime_power.calls", "count"),
    ("oracles.self_s", "s"),
    ("oracles.states", "count"),
    ("oracles.states_per_s", "1/s"),
    ("oracles.oracle_histogram.calls", "count"),
    ("oracles.histogram.all.self_s", "s"),
    ("oracles.histogram.square.self_s", "s"),
    ("oracles.histogram.strict-order.self_s", "s"),
    ("oracles.histogram.distinct.self_s", "s"),
    ("oracles.histogram.blocks.self_s", "s"),
    ("oracles.square_convolution_histogram.self_s", "s"),
    ("cli.run.time_s", "s"),
    ("cli.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.rows", "count"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class RoundError(RuntimeError):
    pass


def run_round(
    module: str, ops: list[dict], trace: bool, spans: Path | None = None,
    timeout: float = RUN_LIMIT_S,
) -> dict:
    """One fresh interpreter running every op once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    req = {"module": module, "ops": ops, "trace": trace,
           "spans": str(spans) if spans else None, "out_dir": str(OUT)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(req), capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RoundError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def check_verify(rec: dict, rows_expected: dict) -> tuple[str | None, int]:
    """(None or the reason the sweep failed, number of rows printed)."""
    rows, summary = [], None
    with open(rec["out"]) as fh:
        for line in fh:
            obj = json.loads(line)
            if "cases" in obj:
                summary = obj
            else:
                rows.append(obj)
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}", len(rows)
    if summary is None or summary["mismatches"] or summary["skipped"]:
        return f"summary {summary}", len(rows)
    if summary["cases"] != len(rows_expected) or len(rows) != len(rows_expected):
        return f"{len(rows)} rows, {len(rows_expected)} in the grid", len(rows)
    for row in rows:
        want = rows_expected.get(workloads.row_key(row))
        got = [row.get("count"), row.get("oracle_count")]
        if "oracle_count_alt" in row:
            got.append(row["oracle_count_alt"])
        if row.get("status") != "ok" or any(v != want for v in got):
            return f"row {row} against reference {want}", len(rows)
    return None, len(rows)


def check_round(ops, exp, out) -> tuple[list[tuple[int, str]], int]:
    """Failed ops of one round as (index, reason), and the rows printed."""
    failed, rows = [], 0
    for i, (op, want, rec) in enumerate(zip(ops, exp, out["results"])):
        if "error" in rec:
            failed.append((i, rec["error"]))
        elif op["kind"] == "verify":
            reason, printed = check_verify(rec, want)
            rows += printed
            if reason:
                failed.append((i, reason))
        elif rec["count"] != want:
            failed.append((i, f"count {rec['count']}, reference {want}"))
    return failed, rows


def scaled(rnd: dict) -> dict:
    """A round's times at the reference speed: each operation's by the
    calibration of its segment, the import's by the calibration around it,
    and the loop's wall time by the ratio of the scaled and measured sums of
    its operation times."""
    ops = [r["t"] * REFERENCE_CAL_S / r["cal"] for r in rnd["results"]]
    measured = sum(r["t"] for r in rnd["results"])
    factor = sum(ops) / measured if measured > 0 else 1.0
    return {
        "setup_s": rnd["setup_s"] * REFERENCE_CAL_S / rnd["setup_cal"],
        "wall_s": rnd["wall_s"] * factor,
        "op_s": ops,
        "factor": factor,
    }


def end_to_end(rounds: list[dict]) -> dict:
    """Medians over the rounds of a run, at the reference speed; the
    percentiles are taken over the operations of each round first."""
    rounds = [{**scaled(rnd), "rss_kib": rnd["rss_kib"]} for rnd in rounds]

    def over_rounds(stat):
        return statistics.median(stat(rnd) for rnd in rounds)

    def op_ms(rnd):
        return [t * 1e3 for t in rnd["op_s"]]

    return {
        "setup_s": over_rounds(lambda r: r["setup_s"]),
        "wall_s": over_rounds(lambda r: r["wall_s"]),
        "op_p50_ms": over_rounds(lambda r: statistics.median(op_ms(r))),
        "op_p90_ms": over_rounds(
            lambda r: statistics.quantiles(op_ms(r), n=10, method="inclusive")[8]
        ),
        "peak_rss_mib": over_rounds(lambda r: r["rss_kib"]) / 1024,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds: counts from the first round
    (every round must repeat them exactly), times as medians.  Span times
    are scaled to the reference speed by the factor of their round."""
    problems = []
    out = {}
    for name, unit in PER_LAYER:
        values = [m.get(name, 0) for m in traced]
        if unit == "count":
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
        else:
            power = {"s": 1, "1/s": -1}[unit]
            out[name] = statistics.median(v * m["factor"] ** power for v, m in zip(values, traced))
    out["trace.wall_s"] = statistics.median(m["wall_s"] for m in traced)
    out["trace.untraced_wall_s"] = statistics.median(scaled(r)["wall_s"] for r in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lincong" / "__init__.py").is_file():
        print(f"no lincong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    build, module = workloads.WORKLOADS[args.workload]
    ops = build(args.seed)
    exp = workloads.expected(ops)

    begin = time.monotonic()
    untraced, layer = [], []
    attempted = 0
    failures: list[tuple[int, str]] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        try:
            rounds = [run_round(module, ops, False, timeout=RUN_LIMIT_S - (t0 - begin))]
            if args.trace:
                spans = OUT / f"spans-{args.workload}.bin"
                left = RUN_LIMIT_S - (time.monotonic() - begin)
                rounds.append(run_round(module, ops, True, spans, timeout=left))
        except (RoundError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"round failed: {exc}", file=sys.stderr)
            return 1
        for i, out in enumerate(rounds):
            bad, rows = check_round(ops, exp, out)
            attempted += len(ops)
            failures += bad
            if i == 1:
                metrics = tracing.layer_metrics(spans)
                metrics["cli.rows"] = rows
                times = scaled(out)
                metrics.update(wall_s=times["wall_s"], factor=times["factor"])
                layer.append(metrics)
        untraced.append(rounds[0])
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - begin
        if elapsed >= args.seconds or elapsed + longest > RUN_LIMIT_S:
            break

    unexpected = [(i, why) for i, why in failures if "fault" not in ops[i]]
    for i, why in sorted(set(failures))[:20]:
        tag = ops[i].get("fault", "UNEXPECTED")
        print(f"failed [{tag}] {json.dumps(ops[i])[:160]}: {why[:300]}", file=sys.stderr)
    correct = not unexpected
    if args.trace:
        values, problems = per_layer(layer, untraced)
        for msg in problems:
            print(msg, file=sys.stderr)
        correct = correct and not problems
        table = PER_LAYER
    else:
        values = end_to_end(untraced)
        table = END_TO_END
    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} rounds of {len(ops)} ops, "
        f"{len(failures)} failed ({len(unexpected)} unexpected); unscaled medians: "
        f"wall_s {statistics.median(r['wall_s'] for r in untraced):.4g}, "
        f"setup_s {statistics.median(r['setup_s'] for r in untraced):.4g}, "
        f"calibration {statistics.median(r['results'][0]['cal'] for r in untraced) * 1e3:.4g} ms",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
