"""The four workloads: their inputs, the operations of one round, and the
checks on every output.

A round is the same list of operations every time.  An operation is either
a ``spinrep`` CLI command or a group of in-process calls (see ``inproc``).
Both executors (cold processes, or everything in one traced process) run
the same operations and feed the same checks.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checks
import inputs


@dataclass
class Op:
    metric: str  # end-to-end breakdown the time adds to
    label: str
    cli: list[str] | None = None
    groups: list[str] | None = None  # in-process call groups
    expect_exit: int = 0
    out: Path | None = None
    signature: tuple[int, int] | None = None


@dataclass
class Result:
    code: int
    stdout: str
    seconds: float  # CLI: process wall time; calls: see ``times``
    times: dict = field(default_factory=dict)  # calls: {"metric/call": seconds}
    results: dict = field(default_factory=dict)  # calls: results per group
    errors: list = field(default_factory=list)  # calls: errors found in the worker
    calls: int = 0  # calls: number of spinrep calls made


class Context:
    """One run: the seed, the work directory and what the workload keeps
    between its operations."""

    def __init__(self, seed: int, work: Path, executor) -> None:
        self.seed = seed
        self.work = work
        self.executor = executor
        self.data: dict = {}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Hooks of one workload; each returns the errors its checks found."""

    name = ""

    def prepare(self, ctx: Context) -> list[str]:
        """Make the inputs (untimed)."""
        return []

    def ops(self, ctx: Context) -> list[Op]:
        raise NotImplementedError

    def check(self, ctx: Context, op: Op, res: Result) -> list[str]:
        raise NotImplementedError

    def finish(self, ctx: Context, rounds: int) -> list[str]:
        """Checks after the last round (untimed)."""
        return []

    def detail(self, ctx: Context) -> dict:
        """Extra figures for the ``detail:`` line."""
        return {}


def repeated_results(ctx: Context, res: Result) -> list[str] | None:
    """None the first time (the checked pass); afterwards, an error when the
    in-process results differ from that pass's (the inputs are the same)."""
    if "results" not in ctx.data:
        ctx.data["results"] = res.results
        return None
    return [] if res.results == ctx.data["results"] else ["results differ between rounds"]


# ---------------------------------------------------------------------------
# gamma-files
# ---------------------------------------------------------------------------

# Cl(0,15) (d=128, 2.5 MB) is the large file.  Cl(0,16) (d=256, 10.6 MB)
# takes about 9 s to generate and verify, so only one or two rounds would fit
# in a run and the run-to-run spread reached the bound.
GAMMA_MODULES = (
    ("recipe", 0, 15, "plus"),
    ("recipe", 3, 9, "plus"),
    ("recipe", 5, 5, "plus"),
    ("recipe", 0, 7, "minus"),
    ("octonion", 0, 8, "plus"),
    ("sqrt-space", 0, 4, "plus"),
)
DENSE_SOURCE = (0, 8)  # recipe module rewritten in a non-monomial basis
CORRUPT_SOURCE = (5, 5)  # recipe module whose copy gets one negated entry


def _generate_args(family: str, r: int, s: int, variant: str, out: Path) -> list[str]:
    args = ["generate", "--sig", f"{r},{s}", "--family", family]
    if variant != "plus":
        args += ["--variant", variant]
    return args + ["--out", str(out)]


def _gamma_file_errors(path: Path, r: int, s: int) -> list[str]:
    """Independent audit of a gamma file: shape from the mod-8 table, every
    anticommutator, metric adjointness, commutant basis."""
    g = checks.read_gamma(path.read_text(encoding="utf-8"))
    name = path.name
    errors = []
    if (g["r"], g["s"]) != (r, s):
        errors.append(f"{name}: signature {g['r']},{g['s']}")
    if len(g["generators"]) != r + s:
        errors.append(f"{name}: {len(g['generators'])} generators, expected {r + s}")
    if g["d"] != checks.module_dim(r, s):
        errors.append(f"{name}: real_dim {g['d']}, table says {checks.module_dim(r, s)}")
    if errors:
        return errors
    bad = checks.anticommutator_violations(g["generators"], r)
    if bad:
        errors.append(f"{name}: anticommutators fail for {bad[:4]}")
    bad = checks.metric_violations(g["generators"], g["metric"], r)
    if bad:
        errors.append(f"{name}: metric adjointness fails for {bad[:4]}")
    bad = checks.commutation_violations(g["commutant_basis"], g["generators"])
    if bad:
        errors.append(f"{name}: commutant basis fails to commute {bad[:4]}")
    return errors


_PAIR = re.compile(r"\((\d+),\s*(\d+)\)")
_GEN = re.compile(r"e_(\d+)")


def names_generator(text: str, k: int) -> bool:
    """True when some reported pair, or some e_k, contains generator k."""
    for line in text.splitlines():
        if not line.startswith("FAIL"):
            continue
        if any(k in (int(a), int(b)) for a, b in _PAIR.findall(line)):
            return True
        if any(int(x) == k for x in _GEN.findall(line)):
            return True
    return False


class GammaFiles(Workload):
    name = "gamma-files"

    def prepare(self, ctx: Context) -> list[str]:
        errors = []
        sources = {}
        for r, s in (DENSE_SOURCE, CORRUPT_SOURCE):
            out = ctx.work / f"source_{r}_{s}.json"
            res = ctx.executor.cli(_generate_args("recipe", r, s, "plus", out))
            if res.code != 0:
                raise RuntimeError(f"cannot make inputs: generate {r},{s} exited {res.code}")
            sources[(r, s)] = out.read_text(encoding="utf-8")
        dense = ctx.work / "dense_0_8.json"
        dense.write_text(inputs.dense_gamma_text(sources[DENSE_SOURCE], ctx.seed), encoding="utf-8")
        errors += _gamma_file_errors(dense, *DENSE_SOURCE)
        cells = checks.read_gamma(dense.read_text(encoding="utf-8"))["generators"]
        if all(v in (1, -1) for m in cells for row in m for v in row.values()):
            errors.append("dense file is still monomial")
        text, k = inputs.corrupt_gamma_text(sources[CORRUPT_SOURCE], ctx.seed)
        corrupt = ctx.work / "corrupt_5_5.json"
        corrupt.write_text(text, encoding="utf-8")
        ctx.data.update(dense=dense, corrupt=corrupt, corrupt_k=k, hashes={})
        return errors

    def ops(self, ctx: Context) -> list[Op]:
        ops = []
        for family, r, s, variant in GAMMA_MODULES:
            out = ctx.work / f"gen_{family}_{r}_{s}_{variant}.json"
            ops.append(Op("generate_s", f"generate {family} {r},{s} {variant}",
                          cli=_generate_args(family, r, s, variant, out), out=out,
                          signature=(r, s)))
        for op in list(ops):
            ops.append(Op("verify_s", f"verify {op.out.name}", cli=["verify", str(op.out)],
                          out=op.out))
        ops.append(Op("verify_s", "verify dense", cli=["verify", str(ctx.data["dense"])]))
        ops.append(Op("verify_s", "verify corrupted", cli=["verify", str(ctx.data["corrupt"])],
                      expect_exit=1))
        return ops

    def check(self, ctx: Context, op: Op, res: Result) -> list[str]:
        if op.cli[0] == "generate":
            digest = sha256(op.out)
            seen = ctx.data["hashes"].setdefault(op.label, digest)
            if seen != digest:
                return [f"{op.label}: bytes differ between two generations"]
            return []
        if op.label == "verify corrupted" and not names_generator(res.stdout, ctx.data["corrupt_k"]):
            return [f"verify of the corrupted file names no pair with e_{ctx.data['corrupt_k']}"]
        return []

    def finish(self, ctx: Context, rounds: int) -> list[str]:
        """Audit every generated file (all rounds wrote the same bytes).
        After a single round, generate every module once more and compare."""
        errors = []
        generated = [op for op in self.ops(ctx) if op.cli[0] == "generate"]
        for op in generated:
            if not op.out.is_file():
                errors.append(f"{op.label}: no file written")
                continue
            ctx.data["bytes"] = ctx.data.get("bytes", 0) + op.out.stat().st_size
            errors += _gamma_file_errors(op.out, *op.signature)
        if rounds > 1:
            return errors
        for op in generated:
            again = op.out.with_name("again_" + op.out.name)
            res = ctx.executor.cli([str(again) if a == str(op.out) else a for a in op.cli])
            if res.code != 0 or sha256(again) != ctx.data["hashes"][op.label]:
                errors.append(f"{op.label}: a second generation gives other bytes")
        return errors

    def detail(self, ctx: Context) -> dict:
        return {"gamma_bytes": ctx.data.get("bytes", 0)}


# ---------------------------------------------------------------------------
# commutants
# ---------------------------------------------------------------------------

# classify is one cold process, and a cold process is the noisiest thing the
# benchmark times: at --max-n 15 (about 3 s) only two or three rounds fit in
# a run and its time spread +-9% between runs; at 13 (about 1.6 s) +-6%,
# with a round more.  n = 16 alone takes about 1.8 s.
CLASSIFY_MAX_N = 13


def classify_rows(text: str) -> list[list[str]]:
    rows = [line.split() for line in text.splitlines()]
    return [t for t in rows if t and t[0].isdigit()]


class Commutants(Workload):
    name = "commutants"

    def ops(self, ctx: Context) -> list[Op]:
        return [
            Op("classify_s", "classify", cli=["classify", "--max-n", str(CLASSIFY_MAX_N)]),
            Op("calls", "intertwiners sweep and dense commutants", groups=["sweep", "dense"]),
        ]

    def check(self, ctx: Context, op: Op, res: Result) -> list[str]:
        if op.cli:
            rows = classify_rows(res.stdout)
            want = [(n, v) for n in range(1, CLASSIFY_MAX_N + 1)
                    for v in (("plus", "minus") if n % 4 == 3 else ("plus",))]
            if [(int(t[0]), t[1]) for t in rows] != want:
                return [f"classify printed rows {[(t[0], t[1]) for t in rows]}"]
            return [e for t in rows for e in checks.classify_row_errors(t)]
        repeated = repeated_results(ctx, res)
        return res.errors + (self._table_errors(res.results) if repeated is None else repeated)

    @staticmethod
    def _table_errors(results: dict) -> list[str]:
        errors = []
        full = {}
        for r, s, variant, dim, k_dim, k_tag, k0_dim, k0_tag in results["sweep"]:
            full[(r, s, variant)] = (k_dim, k_tag)
            if dim != checks.module_dim(r, s):
                errors.append(f"Cl({r},{s}): module dim {dim}")
            if (k_dim, k_tag) != checks.commutant_expected(r, s):
                errors.append(f"Cl({r},{s}) {variant}: commutant {k_dim} {k_tag}")
            e_dim, e_tag = checks.even_commutant_expected(r, s)
            if k0_dim != e_dim or (e_tag is not None and k0_tag != e_tag):
                errors.append(f"Cl({r},{s}) {variant}: even commutant {k0_dim} {k0_tag}")
        for name, dim, tag in results["dense"]:
            r, s = (int(x) for x in name.split()[-1].split(","))
            want = checks.commutant_expected(r, s) if name.startswith("sqrt") else full[(r, s, "plus")]
            if (dim, tag) != tuple(want):
                errors.append(f"{name}: commutant {dim} {tag}, expected {want}")
        return errors


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

# 2000 steps keep a round short enough for four rounds in a run; at 4000
# the run held two or three and round_s spread twice as wide.
TRANSPORT_STEPS = 2000
SPHERE_EXPR = "x=sin(u)*cos(v); y=sin(v); z=cos(u)*cos(v)"
SADDLE_EXPR = "x=u; y=v; z=u*v"
# Holonomy tolerances at 2000 steps: over the latitudes of seeds 1-24 and a
# grid of phi in [0.3, 0.7], RK4 with analytic partials reaches at most
# 5.3e-13 and finite-difference partials at most 3.8e-9.
HOLONOMY_TOL = {"analytic": 1e-11, "expression": 1e-8}
LOOP_TOL = 1e-9  # |q(1) + q(0)| on the great circle


class Transport(Workload):
    name = "transport"

    def prepare(self, ctx: Context) -> list[str]:
        ctx.data.update(inputs.transport_inputs(ctx.seed))
        return []

    def ops(self, ctx: Context) -> list[Op]:
        d = ctx.data
        latitude = f"u=2*pi*t; v={d['phi']}"
        loop = f"u={d['radius']}*cos(2*pi*t); v={d['radius']}*sin(2*pi*t)"
        runs = (
            ("transport_analytic_s", "great circle", "unit-sphere", "great-circle"),
            ("transport_analytic_s", "latitude", "unit-sphere", latitude),
            ("transport_expr_s", "latitude expression", SPHERE_EXPR, latitude),
            ("transport_expr_s", "saddle loop", SADDLE_EXPR, loop),
        )
        ops = []
        for metric, label, surface, curve in runs:
            out = ctx.work / f"transport_{label.replace(' ', '_')}.csv"
            ops.append(Op(metric, label, out=out, cli=[
                "transport", "--surface", surface, "--curve", curve, "--q0", d["q0"],
                "--steps", str(TRANSPORT_STEPS), "--out", str(out)]))
        return ops

    def check(self, ctx: Context, op: Op, res: Result) -> list[str]:
        rows = checks.read_csv(op.out.read_text(encoding="utf-8"))
        errors = [f"{op.label}: {e}" for e in checks.transport_errors(rows, TRANSPORT_STEPS)]
        if errors:
            return errors
        if op.label == "great circle":
            gap = max(abs(a + b) for a, b in zip(checks.spinor(rows[0]), checks.spinor(rows[-1])))
            if not gap <= LOOP_TOL:
                errors.append(f"great circle: q(1) != -q(0), gap {gap:.3g}")
        if op.label.startswith("latitude"):
            kind = "expression" if "expression" in op.label else "analytic"
            err = checks.holonomy_error(rows, ctx.data["phi"])
            ctx.data[f"holonomy_error_{kind}"] = err
            if not err <= HOLONOMY_TOL[kind]:
                errors.append(f"{op.label}: holonomy off by {err:.3g}")
        return errors

    def detail(self, ctx: Context) -> dict:
        return {k: v for k, v in ctx.data.items() if k.startswith("holonomy_error")}


# ---------------------------------------------------------------------------
# spin-lifts
# ---------------------------------------------------------------------------


class SpinLifts(Workload):
    name = "spin-lifts"

    def ops(self, ctx: Context) -> list[Op]:
        return [Op("calls", "spin lifts and double covers", groups=["spin"])]

    def check(self, ctx: Context, op: Op, res: Result) -> list[str]:
        return res.errors + (repeated_results(ctx, res) or [])


WORKLOADS = {w.name: w for w in (GammaFiles(), Commutants(), Transport(), SpinLifts())}


def checked_pass(workload, ctx: Context, ops: list[Op]) -> list[str]:
    """Run each call group once more with the checks inside the worker, before
    the timed rounds (untimed, its peak RSS not counted).  The rounds then
    run unchecked and must give the same results as this pass."""
    errors = []
    for op in ops:
        if not op.groups:
            continue
        res = ctx.executor.run(op, check=True, measured=False)
        if res.code != op.expect_exit:
            errors.append(f"{op.label} (checked pass): exit {res.code}, expected {op.expect_exit}")
        else:
            errors += workload.check(ctx, op, res)
    return errors


def run_round(workload, ctx: Context, ops: list[Op], after_op=None):
    """One round: every operation, timed, then checked untimed; ``after_op(i,
    len(ops))`` runs after operation i.  Returns ({(breakdown metric, operation):
    seconds}, attempted, failed, errors).  A CLI command is one operation; a
    call group is timed call by call and counts each spinrep call it makes
    as attempted."""
    times: dict = {}
    attempted = failed = 0
    errors: list[str] = []
    for i, op in enumerate(ops):
        res = ctx.executor.run(op, check=False)
        attempted += res.calls or 1
        if res.code != op.expect_exit:
            failed += res.calls or 1
            errors.append(f"{op.label}: exit {res.code}, expected {op.expect_exit}")
        else:
            if op.groups:
                times.update({tuple(key.split("/", 1)): value for key, value in res.times.items()})
            else:
                times[(op.metric, op.label)] = res.seconds
            errors += workload.check(ctx, op, res)
        if after_op is not None:
            after_op(i, len(ops))
    return times, attempted, failed, errors


def run_rounds(workload, ctx: Context, seconds: float, after_op=None):
    """Whole rounds until another would overrun ``seconds`` (at least one),
    judged by the wall time of the last round.  Returns (per-round
    breakdowns, attempted, failed, errors)."""
    errors = workload.prepare(ctx)
    ops = workload.ops(ctx)
    errors += checked_pass(workload, ctx, ops)
    rounds: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        times, n, bad, errs = run_round(workload, ctx, ops, after_op)
        rounds.append(times)
        attempted += n
        failed += bad
        errors += errs
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    errors += workload.finish(ctx, len(rounds))
    return rounds, attempted, failed, errors


def round_seconds(times: dict) -> float:
    return sum(times.values())


def median_round(rounds: list[dict]) -> dict:
    """Each operation's median time over the rounds, so that a slow spell
    during one round moves only the operations it overlapped."""
    keys = {key for times in rounds for key in times}
    return {key: median([t[key] for t in rounds if key in t]) for key in keys}
