"""spinrep benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a spinrep checkout; spinrep is run from ``src/`` there.
With ``--trace 0`` the CLI commands run as cold processes and the in-process
calls in a child process of their own, one process at a time; the last line
of standard output holds the end-to-end metrics.  With ``--trace 1`` one
child process runs the whole workload in-process, with spans around the calls
into each layer, and the last line holds the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from workloads import Context, Result  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_BEFORE = 4  # cold starts timed before the rounds
SETUP_PER_ROUND = 4  # cold starts timed in each round, spread between its operations
CHILD_LIMIT_S = 150.0  # a child still running after this is killed and counted failed


class ColdExecutor:
    """Runs each operation in a fresh process and keeps the highest peak RSS
    of any of them, read per child with wait4.  Each child is bracketed by
    pace probes (see ``pace``), and its times are reported at the reference
    pace."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.peak_rss_kb = 0
        self.pacer = pace.Pacer()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, argv: list[str], measured: bool = True) -> tuple[int, str, float]:
        """Run one child; returns its exit code, standard output and wall
        seconds at the reference pace."""
        out_path, err_path = WORK / "child.out", WORK / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = self.pacer.start()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = self.pacer.stop(start)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if measured:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"), seconds

    def cli(self, args: list[str]) -> Result:
        code, out, seconds = self.spawn([sys.executable, "-m", "spinrep.cli", *args])
        return Result(code, out, seconds)

    def run(self, op, check: bool, measured: bool = True) -> Result:
        if op.cli:
            return self.cli(op.cli)
        # The worker times each call itself, at the reference pace.
        code, out, seconds = self.spawn([sys.executable, str(HERE / "worker.py"), "calls",
                                         str(self.seed), ",".join(op.groups), "1" if check else "0"],
                                        measured)
        if code != 0:
            return Result(code, out, seconds)
        reply = json.loads(out.strip().splitlines()[-1])
        return Result(0, out, seconds, reply["times"], reply["results"], reply["errors"],
                      reply["calls"])


def cold_starts(executor: ColdExecutor, count: int, samples: list[float]) -> list[str]:
    """Time ``count`` cold starts of ``spinrep --help`` (interpreter, import
    of spinrep, click) into ``samples``."""
    errors = []
    for _ in range(count):
        res = executor.cli(["--help"])
        if res.code != 0 or "generate" not in res.stdout:
            errors.append(f"spinrep --help exited {res.code}")
        samples.append(res.seconds)
    return errors


def setup_slots(n_ops: int) -> list[int]:
    """How many of a round's SETUP_PER_ROUND cold starts follow each of its
    ``n_ops`` operations, spread as evenly as the operations allow."""
    slots = [0] * n_ops
    for k in range(SETUP_PER_ROUND):
        slots[k * n_ops // SETUP_PER_ROUND] += 1
    return slots


def environment() -> dict:
    src = sorted((ROOT / "src" / "spinrep").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One CPU for this process and every child, so that the pace probes run
    # where the timed children run (see ``pace``).  Only one of them runs at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "spinrep" / "cli.py").is_file():
        print(f"error: no spinrep sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    errors = [f"checker self-test: {e}" for e in checks.self_test()]
    executor = ColdExecutor(args.seed)
    errors += cold_starts(executor, 1, [])  # fills the bytecode cache, untimed
    detail: dict = {"workload": args.workload, "seed": args.seed, "env": environment()}

    if args.trace:
        code, out, _ = executor.spawn([sys.executable, str(HERE / "worker.py"), "traced",
                                       args.workload, str(args.seed), str(args.seconds),
                                       str(WORK)])
        if code != 0:
            print((WORK / "child.err").read_text(encoding="utf-8", errors="replace"), file=sys.stderr)
            print(f"error: traced worker exited {code}", file=sys.stderr)
            return 1
        reply = json.loads(out.strip().splitlines()[-1])
        attempted, failed = reply["attempted"], reply["failed"]
        errors += reply["errors"]
        detail.update(reply["detail"], rounds=reply["rounds"])
        values = reply["metrics"]
        wanted = spec["per_layer"]
    else:
        starts: list[float] = []
        errors += cold_starts(executor, SETUP_BEFORE, starts)
        workload = workloads.WORKLOADS[args.workload]
        ctx = Context(args.seed, WORK, executor)

        def after_op(i: int, n_ops: int) -> None:
            errors.extend(cold_starts(executor, setup_slots(n_ops)[i], starts))

        rounds, attempted, failed, errs = workloads.run_rounds(workload, ctx, args.seconds, after_op)
        errors += errs
        per_op = workloads.median_round(rounds)
        for (metric, _), value in per_op.items():
            detail[metric] = detail.get(metric, 0.0) + value
        detail.update(workload.detail(ctx), rounds=len(rounds), setup_samples=len(starts),
                      probe_ms=1e3 * median(executor.pacer.probes))
        values = {
            "setup_s": median(starts),
            "round_s": workloads.round_seconds(per_op),
            "peak_rss_mb": executor.peak_rss_kb / 1024.0,
        }
        wanted = spec["end_to_end"]

    for line in errors:
        print(f"CHECK FAILED: {line}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
