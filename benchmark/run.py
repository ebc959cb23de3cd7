#!/usr/bin/env python3
"""cpint benchmark: seeded closed-loop workloads, one process, one thread.

    python3 benchmark/run.py --workload build --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; cpint is imported from its src/.  One
caller issues the operations of a workload back to back at the library
default tolerance, in as many whole rounds as come nearest to
--seconds.  Every round repeats the same seeded operations, and each
operation's latency is the median over the rounds.  Times are scaled to
a reference speed of the machine, measured by a fixed loop run before
every operation (see reference_loop).  Every result is checked against
an independent oracle.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, end-to-end ones
with --trace 0 and per-layer ones with --trace 1.  See README.md in
this directory.
"""

import os

# one thread: pin BLAS/OpenMP pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("build", "query", "stieltjes")
SETUP_PROBES = 5

# Seconds that reference_loop takes at the reference speed: its median
# on a 2-core x86-64 sandbox (Python 3.11) in a steady spell.
REFERENCE_S = 1.6e-3
# An operation's time is scaled by the median of the reference loops
# run before it and before the NEAR operations on either side.
NEAR = 4


def reference_loop() -> float:
    """A fixed pure-Python loop that calls no cpint code.  The shared
    machine the benchmark was made on slows down for spells of tens of
    seconds, by up to two thirds; in such a spell this loop slows down
    in step with cpint's operations (their ratio to it varied by 2%
    where their own time varied by 20%).  Every time the benchmark
    reports is multiplied by REFERENCE_S over this loop's median time
    around it."""
    s = 0.0
    for i in range(20000):
        s += math.atan(i * 1e-3)
    return s


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def import_cpint() -> float:
    """Import cpint from this checkout's src/ and return the seconds it
    took; exit with status 2 when the checkout has no cpint sources."""
    if not (SRC / "cpint" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no cpint package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cpint
    dt = time.perf_counter() - t0
    if Path(cpint.__file__).resolve().parent != SRC / "cpint":
        sys.stderr.write(f"benchmark: imported cpint from {cpint.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)
    return dt


def round_rng(workload: str, seed: int):
    import gen
    import workloads
    return gen.Stratified([seed, WORKLOADS.index(workload)], workloads.BLOCKS[workload])


def build_round(workload: str, seed: int, ev):
    import workloads
    return workloads.ROUNDS[workload](ev, round_rng(workload, seed))


def probe_setup(workload: str, seed: int) -> None:
    """In a fresh interpreter: time import cpint, then one round's
    inputs, then the reference loop."""
    import_s = import_cpint()
    import gen
    t0 = time.perf_counter()
    build_round(workload, seed, gen.Evals())
    inputs_s = time.perf_counter() - t0
    scale = REFERENCE_S / statistics.median(time_reference() for _ in range(15))
    print(json.dumps({"import_s": import_s * scale, "inputs_s": inputs_s * scale}))


def measure_setup(workload: str, seed: int) -> dict[str, float]:
    """Medians over SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "inputs_s": statistics.median(s["inputs_s"] for s in samples),
    }


def print_oracles(workload: str, seed: int) -> None:
    """In a fresh interpreter: the expected value of every operation of
    the round, pickled to standard output."""
    import_cpint()
    import gen
    ops = build_round(workload, seed, gen.Evals())
    sys.stdout.buffer.write(pickle.dumps([op.oracle() for op in ops]))


def compute_oracles(workload: str, seed: int) -> list:
    """The oracles, computed in a separate process so that their arrays
    do not count in this process's peak memory."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--oracles",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, timeout=120, check=True)
    return pickle.loads(out.stdout)


class Tally:
    """Outcomes of executed operations.  latency[r][i] is the wall time of
    the i-th operation of round r and reference[r] the times of the
    reference loop in round r; every round has the same operations."""

    def __init__(self) -> None:
        self.latency: list[list[float]] = []
        self.reference: list[list[float]] = []
        self.kinds: list[str] = []
        self.evals = 0
        self.failed: Counter = Counter()
        self.incorrect: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.latency)

    def record(self, op, seconds: float, evals: int, result, expected) -> None:
        if len(self.latency) == 1:
            self.kinds.append(op.kind)
        self.latency[-1].append(seconds)
        self.evals += evals
        msg = op.check(result, expected)
        if msg is None:
            return
        if op.known_fault:
            self.failed[op.kind] += 1
        else:
            self.incorrect.append(f"{op.kind}: {msg}")
            sys.stderr.write(f"{op.kind}: {msg}\n")

    def scale(self, r: int) -> float:
        """Factor that takes round r's times to the reference speed, by
        all of its reference loops."""
        return REFERENCE_S / statistics.median(self.reference[r])

    def scaled(self, r: int, i: int) -> float:
        """Latency of operation i of round r at the reference speed, by
        the reference loops run next to it."""
        near = self.reference[r][max(0, i - NEAR):i + NEAR + 1]
        return self.latency[r][i] * REFERENCE_S / statistics.median(near)

    def op_medians(self, first_round: int = 0) -> list[float]:
        """Per operation, the median over the rounds of its latency at
        the reference speed."""
        return [statistics.median(self.scaled(r, i)
                                  for r in range(first_round, len(self.latency)))
                for i in range(len(self.kinds))]

    def kind_medians(self, medians: list[float]) -> dict[str, float]:
        """Per operation kind, the median of its operations' medians."""
        by_kind: dict[str, list[float]] = {}
        for kind, m in zip(self.kinds, medians):
            by_kind.setdefault(kind, []).append(m)
        return {kind: statistics.median(ms) for kind, ms in by_kind.items()}


def run_rounds(workload, seed, ev, tally, seconds, oracles, tracer=None) -> None:
    """Whole rounds, as many as come nearest to `seconds`, and at least
    two, so that every latency is a median of two or more.  oracles[i]
    is the expected value of the round's i-th operation: every round
    repeats the same inputs."""
    rounds = 0
    start = time.perf_counter()
    while True:
        tally.latency.append([])
        tally.reference.append([])
        for i, op in enumerate(build_round(workload, seed, ev)):
            tally.reference[-1].append(time_reference())
            if tracer:
                tracer.begin_op(op.kind)
            e0 = ev.n
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:   # a raised error is an outcome to check
                result = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            tally.record(op, dt, ev.n - e0, result, oracles[i])
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + 0.5 * elapsed / rounds >= seconds:
            return


def per_layer(tracer, n_ops, scale, overhead, setup) -> dict:
    """Per-layer metrics per traced operation, plus set-up and overhead."""
    import spans
    layers = tracer.summary()
    out = {}
    for layer, fields in spans.LAYERS.items():
        for field in fields:
            value = layers.get(layer, {}).get(field.removeprefix("integrand_"), 0)
            if field in ("s", "self_s"):
                out[f"{layer}.{field}"] = {"value": value * scale / n_ops, "unit": "s/op"}
            else:
                out[f"{layer}.{field}"] = {"value": value / n_ops, "unit": "count/op"}
    out["setup.import_s"] = {"value": setup["import_s"], "unit": "s"}
    out["setup.inputs_s"] = {"value": setup["inputs_s"], "unit": "s"}
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    out["machine.slowdown"] = {"value": 1.0 / scale, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--oracles", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.oracles:
        print_oracles(args.workload, args.seed)
        return 0

    import_cpint()
    setup = measure_setup(args.workload, args.seed)
    oracles = compute_oracles(args.workload, args.seed)
    import gen
    import spans

    ev = gen.Evals()
    tally = Tally()
    if args.trace:
        # untraced then traced rounds of the same operations; the ratio
        # of their summed per-operation medians is the tracing overhead
        run_rounds(args.workload, args.seed, ev, tally, args.seconds / 2, oracles)
        plain = sum(tally.op_medians())
        plain_rounds = len(tally.latency)
        tracer = spans.Tracer(ev)
        tracer.install()
        try:
            run_rounds(args.workload, args.seed, ev, tally, args.seconds / 2,
                       oracles, tracer)
        finally:
            tracer.uninstall()
        overhead = sum(tally.op_medians(plain_rounds)) / plain
        traced_ops = tally.attempted - plain_rounds * len(tally.kinds)
        scale = statistics.median(tally.scale(r)
                                  for r in range(plain_rounds, len(tally.latency)))
        metrics = per_layer(tracer, traced_ops, scale, overhead, setup)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "op", "parent", "start", "end", "evals_start",
                     "evals_end"), s))) + "\n")
    else:
        run_rounds(args.workload, args.seed, ev, tally, args.seconds, oracles)
        medians = tally.op_medians()
        by_kind = tally.kind_medians(medians)
        geomean = math.exp(statistics.fmean(math.log(m) for m in by_kind.values()))
        metrics = {
            "ops_per_s": {"value": len(medians) / sum(medians), "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(by_kind.values()), "unit": "ms"},
            "op_ms_geomean": {"value": 1e3 * geomean, "unit": "ms"},
            "evals_per_op": {"value": tally.evals / tally.attempted, "unit": "count"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
        }

    failed = sum(tally.failed.values())
    rounds = len(tally.latency)
    count = Counter(tally.kinds)
    slowdown = statistics.median(1.0 / tally.scale(r) for r in range(rounds))
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"trace {args.trace}  machine slowdown {slowdown:.3f}")
    print(f"{'operation':40s} {'count':>6s} {'failed':>6s} {'p50 ms':>10s}")
    for kind, m in tally.kind_medians(tally.op_medians()).items():
        print(f"{kind:40s} {count[kind] * rounds:6d} {tally.failed[kind]:6d} "
              f"{1e3 * m:10.3f}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {tally.attempted}  failed {failed}  incorrect {len(tally.incorrect)}")
    print(json.dumps({"correct": not tally.incorrect, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
