"""Child process of the benchmark: the only process that imports spinrep.

    worker.py calls SEED GROUPS CHECK
        Run the in-process call groups (comma separated) once, untraced;
        CHECK 1 also checks their results.
    worker.py traced WORKLOAD SEED SECONDS WORKDIR
        Run the whole workload in this process, CLI commands included:
        rounds untraced and traced in turn, spans recorded in the traced ones.

Either way the last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from statistics import median

import inproc
import pace
import tracing
import workloads
from workloads import Context, Result


class InprocExecutor:
    """Runs operations inside this process.  Module caches are emptied
    before each operation, as a fresh process would find them.  Times are
    at the reference pace (see ``pace``)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pacer = pace.Pacer()
        self.caches = inproc.module_caches()
        self.tracer: tracing.Tracer | None = None

    def cli(self, args: list[str]) -> Result:
        inproc.clear_caches(self.caches, self.tracer)
        start = self.pacer.start()
        if self.tracer is None:
            code, out = inproc.run_cli(args)
        else:
            with self.tracer.span(f"cli.{args[0]}"):
                code, out = inproc.run_cli(args)
        return Result(code, out, self.pacer.stop(start))

    def calls(self, groups: list[str], check: bool) -> Result:
        res = Result(0, "", 0.0)
        for group in groups:
            inproc.clear_caches(self.caches, self.tracer)
            times, results, errors, calls = inproc.GROUPS[group](self.seed, check, self.pacer)
            res.calls += calls
            res.times.update(times)
            res.results[group] = results
            res.errors += errors
        res.seconds = sum(res.times.values())
        return res

    def run(self, op, check: bool, measured: bool = True) -> Result:
        # ``measured`` matters only to the cold executor, which reads peak RSS.
        return self.cli(op.cli) if op.cli else self.calls(op.groups, check)


def traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    """Untraced and traced rounds in turn; per-layer metrics are the mean
    over the traced rounds, overhead compares the two kinds of round."""
    workload = workloads.WORKLOADS[name]
    executor = InprocExecutor(seed)
    ctx = Context(seed, work, executor)
    errors = workload.prepare(ctx)
    ops = workload.ops(ctx)
    errors += workloads.checked_pass(workload, ctx, ops)
    plain: list[float] = []
    spans: list[float] = []
    sums: dict[str, float] = {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for with_trace in (False, True):
            tracer = tracing.Tracer() if with_trace else None
            # Empty the caches uncounted, so that a traced round counts only its own hits.
            inproc.clear_caches(executor.caches, None)
            patches = inproc.install(tracer) if with_trace else None
            executor.tracer = tracer
            try:
                times, n, bad, errs = workloads.run_round(workload, ctx, ops)
            finally:
                executor.tracer = None
                if patches is not None:
                    patches.undo()
            attempted += n
            failed += bad
            errors += errs
            total = workloads.round_seconds(times)
            if with_trace:
                inproc.clear_caches(executor.caches, tracer)
                for key, value in tracer.metrics().items():
                    sums[key] = sums.get(key, 0.0) + value
                spans.append(total)
            else:
                plain.append(total)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    errors += workload.finish(ctx, len(plain) + len(spans))
    metrics = {key: value / len(spans) for key, value in sums.items()}
    untraced, traced_s = median(plain), median(spans)
    metrics.update({
        "trace.untraced_s": untraced,
        "trace.traced_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced) / untraced,
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
            "rounds": len(spans), "detail": workload.detail(ctx)}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "calls":
        res = InprocExecutor(int(argv[1])).calls(argv[2].split(","), argv[3] == "1")
        out = {"times": res.times, "results": res.results, "errors": res.errors,
               "calls": res.calls}
    elif mode == "traced":
        out = traced(argv[1], int(argv[2]), float(argv[3]), Path(argv[4]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
