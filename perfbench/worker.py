"""One round of a workload in a fresh interpreter.

Reads {"module", "ops", "trace", "spans", "out_dir"} as JSON on stdin,
imports lincong from the checkout's src/ (timed: the set-up time), runs every
operation once (each timed on its own, the whole loop timed as the round's
wall time), and prints one JSON object with the results on stdout.  With
"trace" set, the layer modules are wrapped by tracing.Tracer after the timed
import, and the spans are written to "spans" when the round is over.

The host's speed drifts by tens of per cent over seconds, so the worker also
times a fixed calibration loop (calibrate) before and after the import and
between segments of about SEGMENT_S of operations.  Each timed stretch is
stored with the mean calibration time at its two ends, and run.py scales the
times by it; calibration time is never part of a timed stretch.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def calls(out_dir: Path | None = None) -> dict:
    """Operation kind -> function of the op dict.  Counters are looked up on
    their modules at call time, so traced wrappers are the ones called."""
    from lincong import formulas, model

    def spec(op):
        return model.CongruenceSpec(op["n"], op["coeffs"], op["b"])

    def counted(result):
        return {"count": result.count, "method": result.method}

    def verify(op):
        from lincong import cli

        path = out_dir / f"verify-{op['mode']}.jsonl"
        with open(path, "w") as fh, contextlib.redirect_stdout(fh):
            rc = cli.run(op["argv"])
        return {"rc": rc, "out": str(path)}

    return {
        "square": lambda op: counted(formulas.square_count(spec(op))),
        "blocks": lambda op: counted(
            formulas.order_blocks_count(model.BlockSpec(op["n"], op["blocks"], op["b"]))
        ),
        "strict": lambda op: counted(
            formulas.strict_order_count(op["n"], op["k"], op["a"], op["b"])
        ),
        "distinct_eq": lambda op: counted(
            formulas.distinct_count_equal_coeffs(op["n"], op["k"], op["a"], op["b"])
        ),
        "distinct_gcd": lambda op: counted(formulas.distinct_count_gcd_condition(spec(op))),
        "lehmer": lambda op: counted(formulas.lehmer_count(spec(op))),
        "verify": verify,
    }


# Operations between two calibrations, in seconds of operation time.
SEGMENT_S = 0.2
CALIBRATION_REPS = 5


def _coprime(x: int, m: int) -> bool:
    return math.gcd(x, m) == 1


def _calibration_loop() -> int:
    # What the counters spend their time on: integer arithmetic, dict
    # stores, complex sums, small Python calls inside generators, and
    # math.gcd/cos/sin.  About 1.5 ms on a 2-vCPU VM with Python 3.11.
    table: dict = {}
    acc, z = 0, 0j
    for i in range(4000):
        acc += i * i % 7
        table[i & 63] = acc
        z *= 0.999 + 0.001j
    for i in range(500):
        if all(_coprime(i * c, 210) for c in (1, 11)):
            theta = math.tau * (i % 97) / 97
            z += complex(math.cos(theta), math.sin(theta))
    return acc + len(table) + int(z.real)


def calibrate() -> float:
    """Time of the calibration loop now: the median of a few repetitions,
    so that one preemption does not count as a slow host."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def execute(ops: list[dict], table: dict) -> tuple[list[dict], float]:
    """Run every op once.  An op that raises is recorded with its error and
    the round goes on.  Returns the per-op records and the loop's wall time,
    calibrations left out.  Each record also holds "cal", the mean
    calibration time at the two ends of its segment."""
    results: list[dict] = []
    wall = 0.0
    segment: list[dict] = []
    cal = calibrate()
    seg_start = perf_counter()
    for op in ops:
        fn = table[op["kind"]]
        t0 = perf_counter()
        try:
            rec = fn(op)
        except Exception as exc:  # a failed operation, not a failed round
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = perf_counter()
        rec["t"] = t1 - t0
        results.append(rec)
        segment.append(rec)
        if t1 - seg_start >= SEGMENT_S:
            wall += t1 - seg_start
            cal = _close(segment, cal)
            segment = []
            seg_start = perf_counter()
    wall += perf_counter() - seg_start
    if segment:
        _close(segment, cal)
    return results, wall


def _close(segment: list[dict], cal_before: float) -> float:
    cal_after = calibrate()
    for rec in segment:
        rec["cal"] = (cal_before + cal_after) / 2
    return cal_after


def peak_rss_kib() -> int:
    """High-water resident set of this interpreter.  VmHWM belongs to the
    address space that exec created; ru_maxrss would also count the parent's
    resident set at fork time."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    req = json.load(sys.stdin)
    sys.path.insert(0, str(SRC))
    cal_before = calibrate()
    t0 = perf_counter()
    importlib.import_module(req["module"])
    setup_s = perf_counter() - t0
    setup_cal = (cal_before + calibrate()) / 2
    import lincong

    if not Path(lincong.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"lincong imported from {lincong.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if req["trace"]:
        from lincong import model

        import tracing

        tracer = tracing.Tracer()
        layers = {name: importlib.import_module(f"lincong.{name}") for name in tracing.LAYERS}
        tracer.install(layers, model.OracleBudget)
    table = calls(Path(req["out_dir"]))
    results, wall_s = execute(req["ops"], table)
    rss_kib = peak_rss_kib()
    if tracer is not None:
        tracer.dump(req["spans"])
    json.dump({"setup_s": setup_s, "setup_cal": setup_cal, "wall_s": wall_s,
               "rss_kib": rss_kib, "results": results}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
