#!/usr/bin/env python3
"""fedpart benchmark: run one workload, check every output, print the metrics.

Run from the root of a fedpart checkout:

    python3 bench/run.py --workload gpm-two-size-n18 --seed 0 --seconds 10 --trace 0

``--trace 0`` times whole operations with tracing off and reports the
end-to-end metrics.  ``--trace 1`` reports the per-layer metrics: it runs
every operation twice, untraced and with every public function of the
package wrapped in a span, then a short pass under tracemalloc for peak
bytes.  Either way every output is checked against the benchmark's own
computations (see ``checks.py``) after the timed phase; the operations'
records and outputs wait for the checks on disk, not in memory.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Run records and spans are written under ``bench/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, in this process and in the set-up probes
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Iterable, Iterator, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7        # fresh interpreters timed for setup_s
TAIL_MIN_OPS = 40       # rounds shorter than this report the median as the tail
TAIL_BEYOND = 10        # samples the tail percentile must leave above it


@dataclass
class Record:
    op: Any                 # the workloads.Operation that ran
    seconds: float
    cpu_seconds: float = 0.0
    output: Any = None
    error: str | None = None


class Spool:
    """Every operation's record, output included, written to a file as the
    operation ends and read back in order after the timed phase.  The run
    keeps only a float per operation in memory, so its peak does not grow
    with the number of operations it completes."""

    def __init__(self, path: Path, ops):
        self.path = path
        self.ops = ops
        self.position = {id(op): k for k, op in enumerate(ops)}
        self.count = 0
        self.fh = open(path, "wb")

    def put(self, rec: Record) -> None:
        entry = (self.position[id(rec.op)], rec.seconds, rec.cpu_seconds, rec.output, rec.error)
        pickle.dump(entry, self.fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.count += 1

    def records(self) -> Iterator[Record]:
        self.fh.close()
        with open(self.path, "rb") as fh:
            for _ in range(self.count):
                index, *rest = pickle.load(fh)
                yield Record(self.ops[index], *rest)

    def remove(self) -> None:
        self.fh.close()
        self.path.unlink(missing_ok=True)


def setup(workload_name: str, seed: int):
    """Import the package, build the round's inputs and run one small warm-up."""
    from workloads import WORKLOADS

    sys.path.insert(0, str(SRC))
    import fedpart as fp

    workload = WORKLOADS[workload_name]
    ops = workload.round(fp, seed)
    workload.warm_up(fp, seed).run()
    return ops


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        t1 = time.perf_counter()
        proc.stdout.read()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
    return t1 - t0


def run_op(op, tracer=None) -> Record:
    """One operation, timed; a raised error is kept and counted, not fatal."""
    sid = tracer.open("op", op.label) if tracer else None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rec = Record(op, 0.0, output=op.run())
    except Exception:  # the run goes on; the failure is counted and shown
        rec = Record(op, 0.0, error=traceback.format_exc())
    rec.seconds = time.perf_counter() - t0
    rec.cpu_seconds = time.process_time() - c0
    if tracer:
        tracer.close(sid)
    return rec


def keep_going(elapsed: float, rounds: int, seconds: float) -> bool:
    """Another whole round, unless stopping now ends nearer to ``seconds``."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_rounds(ops, seconds: float, spool: Spool) -> tuple[array, float, int]:
    """Whole rounds for about ``seconds``; each record goes to the spool once
    its clock has stopped.  Returns the operations' wall times."""
    times = array("d")
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            rec = run_op(op)
            spool.put(rec)
            times.append(rec.seconds)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if not keep_going(elapsed, rounds, seconds):
            return times, elapsed, rounds


def check_records(records: Iterable[Record]) -> tuple[int, bool]:
    """Counts failed operations; ``correct`` is false when an output was wrong."""
    import oracle

    cache = oracle.OptimumCache()
    failed, correct = 0, True
    for rec in records:
        if rec.error is not None:
            failed += 1
            print(f"FAILED {rec.op.label}:\n{rec.error}", file=sys.stderr)
            continue
        try:
            problems = rec.op.check(rec.output, cache)
        except Exception:  # a check that cannot read the output rejects it
            problems = [f"check raised:\n{traceback.format_exc()}"]
        if problems:
            failed += 1
            correct = False
            for p in problems:
                print(f"WRONG {rec.op.label}: {p}", file=sys.stderr)
    return failed, correct


def tail(times: Sequence[float], ops_per_round: int) -> float:
    """The highest percentile with TAIL_BEYOND of one round's operations
    above it, read over all rounds; the median where a round is shorter than
    TAIL_MIN_OPS, since no percentile there is a tail."""
    if ops_per_round < TAIL_MIN_OPS:
        return statistics.median(times)
    pct = math.floor(100.0 * (1.0 - TAIL_BEYOND / ops_per_round))
    ordered = sorted(times)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def timed_run(args, ops, spool: Spool):
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    times, elapsed, rounds = run_rounds(ops, args.seconds, spool)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "op_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail(times, len(ops)), "s"),
        "ops_per_s": metric(len(times) / elapsed, "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    extra = {"setup_samples_s": setup_samples, "rounds": rounds, "elapsed_s": elapsed}
    return metrics, extra, None


def traced_run(args, ops, spool: Spool):
    """Each operation runs twice per round, once untraced and once with spans,
    in alternating order, so the pairs give the tracing overhead.  Then the
    first operations of a round run once more under tracemalloc."""
    import tracing

    timed = tracing.Tracer()
    seconds = {False: array("d"), True: array("d")}
    t_start, rounds = time.perf_counter(), 0
    while True:
        for k, op in enumerate(ops):
            for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
                if with_spans:
                    timed.install()
                    try:
                        rec = run_op(op, timed)
                    finally:
                        timed.uninstall()
                else:
                    rec = run_op(op)
                spool.put(rec)
                seconds[with_spans].append(rec.seconds)
        rounds += 1
        if not keep_going(time.perf_counter() - t_start, rounds, args.seconds):
            break
    memory = tracing.Tracer(memory=True)
    memory.install()
    t0 = time.perf_counter()
    try:
        for op in ops:
            spool.put(run_op(op, memory))
            if time.perf_counter() - t0 >= args.seconds / 4.0:
                break
    finally:
        memory.uninstall()
    overhead = statistics.median(seconds[True]) - statistics.median(seconds[False])
    metrics = tracing.per_layer_metrics(tracing.SpanTable(timed), tracing.SpanTable(memory),
                                        overhead)
    extra = {"rounds": rounds, "absent": sorted(timed.absent)}
    return metrics, extra, {"timed": timed.records(), "memory": memory.records()}


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def write_out(args, records: Iterable[Record], metrics, extra, spans) -> None:
    name = stem(args)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "blas_threads": BLAS_THREADS, "metrics": metrics, **extra,
           "operations": [{"label": r.op.label, "seconds": r.seconds,
                           "cpu_seconds": r.cpu_seconds, "error": r.error}
                          for r in records]}
    (OUT / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        with open(OUT / f"{name}.spans.jsonl", "w", encoding="utf-8") as fh:
            for phase, rows in spans.items():
                for row in rows:
                    fh.write(json.dumps({"phase": phase, **row}) + "\n")


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedpart" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'fedpart'}; run from the root of a fedpart "
              "checkout", file=sys.stderr)
        return 2
    ops = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    run = traced_run if args.trace else timed_run
    OUT.mkdir(exist_ok=True)
    spool = Spool(OUT / f"{stem(args)}.spool.pickle", ops)
    try:
        metrics, extra, spans = run(args, ops, spool)
        failed, correct = check_records(spool.records())
        write_out(args, spool.records(), metrics, extra, spans)
    finally:
        spool.remove()
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": spool.count, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
