"""Benchmark of the semistatic engine: seeded workloads, end-to-end metrics,
and a traced per-layer run.

    python3 bench/run.py --workload verdicts --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 7        # each workload in its own process

Load model: a closed loop with one operation in flight, from one process;
each workload runs in a fresh process.  The engine only sees generated inputs
(see gen.py); its answers are re-checked by workloads.py and, at the
reference seed, compared with reference.json.

With `--trace 0` the run measures for `--seconds` (and at least until the
workload's tail percentile has 10 samples beyond it) and prints the
end-to-end metrics:

    ops_per_s        ops completed per second of busy time, over all but the
                     slowest 5% of the run's ops (those are what
                     latency_tail_ms and the traced run's slowest LP solves
                     report; their cost swings with the seed's data)
    latency_p50_ms   median op latency
    latency_tail_ms  latency at the workload's tail percentile: the highest
                     percentile that its minimum op count leaves at least 10
                     samples beyond (fixed per workload, so runs that finish
                     more ops still compare at the same percentile)
    setup_s          import of the engine (from the start of this script)
                     plus the median of 5 set-ups: generating the first
                     inputs, writing market files (cli), one warm-up op
    peak_rss_mb      peak resident memory of this process (cli: of the
                     largest child process)

and `fail_ratio`.  An op fails when it raises where no typed outcome is
expected, when its answer or certificate does not re-check (`wrong`), or when
a CLI exit code differs from the documented one.  `correct` is false when any
answer or certificate is wrong; a documented-exit-code mismatch is a failure,
not a wrong answer.  The result's `failed` counts every failure except a
workload's known defects (`Workload.known_defects`: the exact mismatch an op
kind shows at this commit, such as the cli's `price` on an arbitrage market
exiting 1 where the README documents 2).  Those are printed by command on
every run as KNOWN DEFECT lines and are included in the printed fail_ratio.

Times are host-speed calibrated.  On a shared host the speed of the same
Python code drifts by up to 1.7x within seconds, so a fixed calibration
kernel (exact integer elimination plus Fraction sums, independent of the
engine) is timed before and after every segment of `cal_ops` ops, and the
segment's times are scaled by CAL_REF_S / (kernel time): they read as
seconds on a host where the kernel takes CAL_REF_S.  Raw figures are
printed beside them.  Per-layer times of the traced run are raw.

With `--trace 1` the run replays a fixed number of ops from the seeded
stream, each segment untraced and then traced (cli commands run in-process,
so their spans are seen), and prints the per-layer metrics, the five slowest
LP solves with the op that issued them, per-kind latencies and the tracing
overhead.  The op set is fixed, so every count repeats exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 20240
WORKLOADS = ("verdicts", "hedging", "pricing-sets", "cli")
SETUP_REPEATS = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TRIM = 0.05  # share of slowest ops left out of ops_per_s
CAL_REF_S = 0.0011  # reference kernel time: calibrated times are seconds at this speed

END_TO_END = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ops_per_s_traced") or name.endswith("ops_per_s_untraced"):
        return "op/s"
    if name.endswith((".s", "_s", "_per_call")):
        return "s"
    if name.endswith("_per_op"):
        return "count/op"
    if name == "lp.cert_bits.max":
        return "bit"
    return "count"


def percentile(xs, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(xs)
    k = max(1, math.ceil(p / 100 * len(xs)))
    return xs[k - 1], len(xs) - k


def tail_percentile(n):
    """The highest listed percentile with at least 10 of n samples beyond."""
    return max([p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10], default=50)


def min_ops(p):
    """Fewest samples that leave 10 beyond percentile p."""
    n = 10
    while n - math.ceil(p / 100 * n) < 10:
        n += 1
    return n


def kernel():
    """Fixed calibration work: fraction-free elimination on a constant
    integer matrix and a Fraction sum, the engine's two kinds of arithmetic."""
    n = 9
    a = [[(7 * i * i + 3 * j + 1) % 23 - 11 + (i == j) * 29 for j in range(n + 1)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        piv, prow = a[k][k], a[k]
        for i in range(k + 1, n):
            f, row = a[i][k], a[i]
            a[i] = [(piv * row[col] - f * prow[col]) // prev for col in range(n + 1)]
        prev = piv
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(a[i % n][n] % 97 + 1, i + 3)
    return s


def kernel_time():
    times = []
    for _ in range(3):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def make_workload(name, ss, seed, in_process):
    import workloads

    if name == "cli":
        return workloads.Cli(ss, ROOT, seed, in_process=in_process)
    cls = {"verdicts": workloads.Verdicts, "hedging": workloads.Hedging,
           "pricing-sets": workloads.PricingSets}[name]
    return cls(ss, ROOT, seed)


def set_up(w):
    """Generate the first inputs (and, for cli, write every market file) and
    run one warm-up op; repeated, returning the median time and the op
    stream of the last repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        if hasattr(w, "write_files"):
            w.write_files()
        stream = w.ops()
        first = list(itertools.islice(stream, w.cal_ops))
        w.warm_up()
        times.append(time.perf_counter() - t)
    return statistics.median(times), itertools.chain(first, stream)


class Tally:
    """Latencies, answers and failures of the ops run so far."""

    def __init__(self, workload, reference, known_defects=None):
        self.workload = workload
        self.reference = reference
        self.known_defects = known_defects or {}
        self.defects = []  # known-defect mismatches seen, not counted in failed
        self.latencies = []  # raw seconds
        self.scaled = []  # host-speed calibrated seconds
        self.kinds = []
        self.wrong = []
        self.failures = []
        self.failed = 0

    def run_segment(self, ops, tracer=None):
        """Run ops between two kernel timings; scale their latencies by the
        host speed measured around them."""
        before = kernel_time()
        start = len(self.latencies)
        for op in ops:
            self.run(op, tracer)
        factor = CAL_REF_S / ((before + kernel_time()) / 2)
        self.scaled += [x * factor for x in self.latencies[start:]]

    def run(self, op, tracer=None):
        t = time.perf_counter()
        if tracer is not None:
            tracer.op = len(self.latencies)
        try:
            out, error = op.call(), None
        except Exception as exc:  # an untyped exception is a failed op
            out, error = None, exc
        finally:
            if tracer is not None:
                tracer.op = None
        dt = time.perf_counter() - t
        pos = len(self.latencies)
        self.latencies.append(dt)
        self.kinds.append(op.kind)
        label = f"{self.workload} #{op.index} {op.kind}"
        if error is not None:
            self.failed += 1
            self.failures.append(f"{label}: raised {type(error).__name__}: {error}")
            return
        answer, wrong, failure = op.check(out)
        if pos < len(self.reference) and answer != self.reference[pos]:
            wrong.append(f"answer {answer!r} differs from reference {self.reference[pos]!r}")
        for msg in wrong:
            self.wrong.append(f"{label}: {msg}")
        if failure and not wrong and self.known_defects.get(op.kind) == failure:
            self.defects.append(f"{label} [{op.meta.get('command', '')}]: {failure}")
            return answer
        if failure:
            self.failures.append(f"{label} [{op.meta.get('command', '')}]: {failure}")
        if wrong or failure:
            self.failed += 1
        return answer


def load_reference(workload, seed):
    if seed != REFERENCE_SEED or not os.path.exists(REFERENCE):
        return []
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["answers"].get(workload, [])


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def print_failures(tally):
    for msg in tally.wrong:
        print(f"  WRONG {msg}")
    for label, msgs in (("FAILED", tally.failures), ("KNOWN DEFECT", tally.defects)):
        for msg in sorted(set(msgs)):
            n = msgs.count(msg)
            print(f"  {label} {msg}" + (f" (x{n})" if n > 1 else ""))


def timed_run(args, w, stream, setup_s, reference):
    tally = Tally(args.workload, reference, w.known_defects)
    need = min_ops(w.tail_pct)
    deadline = time.perf_counter() + args.seconds
    while True:
        done = len(tally.latencies)
        if args.max_ops and done >= args.max_ops:
            break
        if not args.max_ops and done >= need and time.perf_counter() >= deadline:
            break
        size = min(w.cal_ops, args.max_ops - done) if args.max_ops else w.cal_ops
        tally.run_segment(itertools.islice(stream, size))
    lat, raw = tally.scaled, tally.latencies
    n = len(lat)
    kept = sorted(lat)[:n - math.ceil(TRIM * n)] or lat
    ops_per_s = len(kept) / sum(kept)
    p = w.tail_pct if n >= need else tail_percentile(n)
    tail, beyond = percentile(lat, p)
    metrics = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    print(f"workload {args.workload} seed {args.seed}: {n} ops, busy {sum(raw):.3f} s raw, "
          f"{sum(lat):.3f} s calibrated, window {args.seconds} s")
    notes = {
        "ops_per_s": f"fastest {len(kept)} of {n} ops; over all ops "
                     f"{n / sum(lat):.4g} calibrated, {n / sum(raw):.4g} raw",
        "latency_p50_ms": f"raw {1000 * statistics.median(raw):.4g}",
        "latency_tail_ms": f"p{p}, {beyond} samples beyond, n={n}; "
                           f"raw {1000 * percentile(raw, p)[0]:.4g}",
        "setup_s": f"engine import + median of {SETUP_REPEATS} set-ups",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {metrics[name]:12.6g} {unit:<5} {notes.get(name, '')}")
    d = len(tally.defects)
    print(f"  {'fail_ratio':<16} {(tally.failed + d) / n:12.6g} 1     "
          f"{tally.failed + d} of {n} ops, {d} of them known defects")
    print_failures(tally)
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def import_ms(env, repeats=5):
    """Median of (fresh `import semistatic`) - (bare interpreter start)."""
    def once(code):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t

    diffs = [once("import semistatic") - once("pass") for _ in range(repeats)]
    return 1000 * statistics.median(diffs)


def traced_run(args, w, stream, reference):
    import spans as trace

    count = args.max_ops or w.trace_ops
    ops = list(itertools.islice(stream, count))
    # each segment runs untraced and then traced, so that both see the same
    # host speed and their ratio is the tracing overhead
    plain = Tally(args.workload, reference, w.known_defects)
    traced = Tally(args.workload, reference, w.known_defects)
    tracer = trace.Tracer()
    for i in range(0, len(ops), w.cal_ops):
        segment = ops[i:i + w.cal_ops]
        plain.run_segment(segment)
        tracer.install()
        try:
            traced.run_segment(segment, tracer)
        finally:
            tracer.uninstall()
    n = len(ops)
    metrics = trace.layer_metrics(tracer, n)
    metrics["trace.ops_per_s_untraced"] = n / sum(plain.scaled)
    metrics["trace.ops_per_s_traced"] = n / sum(traced.scaled)
    metrics["cli.import_ms"] = import_ms(w.env) if args.workload == "cli" else 0.0

    print(f"traced run {args.workload} seed {args.seed}: the first {n} ops, "
          "untraced then traced")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:14.6g} {layer_unit(name)}")
    overhead = metrics["trace.ops_per_s_untraced"] / metrics["trace.ops_per_s_traced"]
    print(f"  tracing overhead: {metrics['trace.ops_per_s_untraced']:.4g} op/s untraced vs "
          f"{metrics['trace.ops_per_s_traced']:.4g} op/s traced ({overhead:.3f}x busy time)")
    print("  five slowest LP solves:")
    unit = "cycle" if args.workload == "cli" else "market"
    for secs, rows, cols, status, bits, op_id in trace.slowest_solves(tracer):
        op = ops[op_id]
        where = ", ".join(f"{k} {v}" for k, v in op.meta.items())
        print(f"    {secs:9.4f} s  {rows} x {cols}  {status:<10} {bits} bits  "
              f"op: {args.workload} {unit} #{op.index} {op.kind} ({where})")
    print("  latency by op kind (untraced, calibrated):")
    by_kind = defaultdict(list)
    for kind, lat in zip(plain.kinds, plain.scaled):
        by_kind[kind].append(lat)
    for kind, lats in by_kind.items():
        p = tail_percentile(len(lats))
        tail, beyond = percentile(lats, p)
        print(f"    {kind:<20} n={len(lats):<4} latency_p50_ms {1000 * statistics.median(lats):10.4g}"
              f"  latency_tail_ms {1000 * tail:10.4g} (p{p}, {beyond} beyond)")
    print_failures(traced)
    out = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    traced.failed = max(traced.failed, plain.failed)
    traced.wrong += plain.wrong
    return traced, out


def run_all(args):
    """Each workload in its own fresh process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.max_ops:
            cmd += ["--max-ops", str(args.max_ops)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (quick runs; 0 = no limit)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "semistatic")):
        sys.exit(f"no engine source under {src}")
    before = time.perf_counter() - T0
    speed = kernel_time()
    t = time.perf_counter()
    sys.path.insert(0, src)
    import semistatic

    import_s = before + time.perf_counter() - t
    w = make_workload(args.workload, semistatic, args.seed, in_process=bool(args.trace))
    try:
        setup_s, stream = set_up(w)
        setup_s = (import_s + setup_s) * CAL_REF_S / ((speed + kernel_time()) / 2)
        reference = load_reference(args.workload, args.seed)
        if args.trace:
            tally, metrics = traced_run(args, w, stream, reference)
        else:
            tally, metrics = timed_run(args, w, stream, setup_s, reference)
    finally:
        w.close()
    print(json.dumps({"correct": not tally.wrong, "attempted": len(tally.latencies),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
