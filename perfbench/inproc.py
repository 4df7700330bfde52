"""In-process work: the calls into spinrep's public functions that the
commutant and spin-lift workloads time, and the traced layer wrappers.

Only the worker process imports this module, because it imports spinrep.
"""

from __future__ import annotations

import contextlib
import io
import json

import checks
import inputs
import pace
import spinrep
import tracing
from spinrep import QMat, cli
from spinrep import modules as sp_modules

SWEEP_MAX_N = 9
DENSE_SIGNATURES = ((0, 8), (0, 5), (1, 5))
SPIN_DIMS = range(3, 9)
COVER_MAX_N = 7  # one double_cover_check at n = 8 takes 5-8 s, a third of a run


def _sparse(m: QMat) -> list[dict]:
    rows: list[dict] = [{} for _ in range(m.nrows)]
    for i, j, v in m.entries():
        rows[i][j] = v
    return rows


def _qmat(rows: list[dict]) -> QMat:
    d = len(rows)
    return QMat.from_entries(d, d, {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})


def sweep_signatures():
    for n in range(1, SWEEP_MAX_N + 1):
        for r in range(n + 1):
            s = n - r
            for variant in ("plus", "minus") if (s - r) % 4 == 3 else ("plus",):
                yield r, s, variant


# ---------------------------------------------------------------------------
# Call groups: each returns ({"metric/call": seconds}, results, check errors,
# number of calls).  Each call is timed on its own, at the reference pace
# (see ``pace``), so that the per-operation medians over the rounds work
# call by call.
# They call through the ``spinrep`` namespace so that traced runs see the
# wrapped functions.
# ---------------------------------------------------------------------------


def group_sweep(seed: int, check: bool, pacer: pace.Pacer):
    """assemble_signature, intertwiners(m) and intertwiners(m, even_only=True)
    for every signature with r+s <= SWEEP_MAX_N."""
    results, errors = [], []
    times = {}
    for r, s, variant in sweep_signatures():
        start = pacer.start()
        module = spinrep.assemble_signature(r, s, variant)
        full = spinrep.intertwiners(module)
        even = spinrep.intertwiners(module, even_only=True)
        times[f"intertwiners_s/Cl({r},{s}) {variant}"] = pacer.stop(start)
        results.append([r, s, variant, module.real_dim, full.real_dimension, full.division_algebra,
                        even.real_dimension, even.division_algebra])
        if check:
            gens = [_sparse(g) for g in module.generators]
            bad = checks.commutation_violations([_sparse(b) for b in full.basis], gens)
            bad += checks.commutation_violations(
                [_sparse(b) for b in even.basis], checks.even_generators(gens))
            if bad:
                errors.append(f"Cl({r},{s}) {variant}: commutant element fails to commute {bad[:3]}")
    return times, results, errors, 2 * len(results)


def dense_inputs(seed: int):
    """(name, generators, size) for every RREF-path commutant input."""
    out = []
    m = spinrep.sqrt_space_module(4)
    out.append(("sqrt-space 0,4", list(m.generators), m.real_dim))
    for r, s in DENSE_SIGNATURES:
        m = spinrep.assemble_signature(r, s)
        p = inputs.basis_change(m.real_dim, m.real_grading(), inputs.rng_for(seed, f"dense-{r},{s}"))
        gens = [_qmat(checks.conjugate(p, _sparse(g))) for g in m.generators]
        out.append((f"dense {r},{s}", gens, m.real_dim))
    return out


def group_dense(seed: int, check: bool, pacer: pace.Pacer):
    """commutant(...) on inputs that are not signed permutations."""
    prepared = dense_inputs(seed)
    results, errors = [], []
    times = {}
    for name, gens, size in prepared:
        start = pacer.start()
        c = spinrep.commutant(gens, size)
        times[f"dense_commutant_s/{name}"] = pacer.stop(start)
        results.append([name, c.real_dimension, c.division_algebra])
        if check:
            if all(checks.is_signed_permutation(_sparse(g)) for g in gens):
                errors.append(f"{name}: input is monomial, so the RREF path is not exercised")
            bad = checks.commutation_violations([_sparse(b) for b in c.basis],
                                                [_sparse(g) for g in gens])
            if bad:
                errors.append(f"{name}: commutant element fails to commute {bad[:3]}")
    return times, results, errors, len(results)


def _terms(g) -> dict:
    return dict(g.value.terms)


def group_spin(seed: int, check: bool, pacer: pace.Pacer):
    """spin_lift of R1, R2 and R1 R2 for n = 3..8; up to COVER_MAX_N the
    lifts of R1 and R2 are followed by double_cover_check(g,
    assemble_euclidean(n)).  Those two lifts are full even versors on every
    seed; the lift of R1 R2 has a seed-dependent number of terms (25 to 59
    of 64 at n = 7), so its cost would vary with the seed."""
    pairs = inputs.rotation_pairs(seed, SPIN_DIMS)
    times = {}
    results, errors = [], []
    calls = 0
    for n, (r1, r2) in pairs.items():
        module = spinrep.assemble_euclidean(n)
        rotations = {"R1": r1, "R2": r2, "R1R2": inputs.matmul(r1, r2)}
        lifts = {}
        for label, rot in rotations.items():
            start = pacer.start()
            lifts[label] = spinrep.spin_lift(rot)
            times[f"spin_lift_s/n={n} {label}"] = pacer.stop(start)
            calls += 1
            if n > COVER_MAX_N or label == "R1R2":
                continue
            start = pacer.start()
            report = spinrep.double_cover_check(lifts[label], module)
            times[f"double_cover_s/n={n} {label}"] = pacer.stop(start)
            calls += 1
            if not report.ok:
                errors.append(f"n={n} {label}: double_cover_check not ok")
        results.append([n] + [len(g.value.terms) for g in lifts.values()])
        if check:
            for label, rot in rotations.items():
                errors += [f"n={n} {label}: {e}" for e in checks.rotation_errors(rot)]
                errors += [f"n={n} {label}: {e}"
                           for e in checks.lift_errors(_terms(lifts[label]), rot, n)]
            product = checks.mv_mul(_terms(lifts["R1"]), _terms(lifts["R2"]), (1 << n) - 1)
            if not checks.projectively_equal(_terms(lifts["R1R2"]), product, n):
                errors.append(f"n={n}: spin_lift(R1 R2) is not a multiple of spin_lift(R1) spin_lift(R2)")
    return times, results, errors, calls


GROUPS = {"sweep": group_sweep, "dense": group_dense, "spin": group_spin}


# ---------------------------------------------------------------------------
# CLI commands run in this process (traced runs)
# ---------------------------------------------------------------------------


def run_cli(args: list[str]) -> tuple[int, str]:
    """``spinrep <args>`` in this process: exit code and standard output."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, buf.getvalue()


def module_caches() -> list:
    return [f for f in vars(sp_modules).values() if hasattr(f, "cache_info") and hasattr(f, "cache_clear")]


def clear_caches(caches, tracer: tracing.Tracer | None) -> None:
    """Empty the module builders' caches, as a fresh process would have
    them, adding their hit and miss counts to the tracer first."""
    for f in caches:
        if tracer is not None:
            info = f.cache_info()
            tracer.counts["modules.cache_hits"] += info.hits
            tracer.counts["modules.cache_misses"] += info.misses
        f.cache_clear()


def _count_cells(args, kwargs):
    payload = args[0] if args else kwargs.get("payload")
    cells = 0
    try:
        mats = list(payload.get("generators", [])) + list(payload.get("commutant_basis", []))
        if "spin_metric" in payload:
            mats.append(payload["spin_metric"])
        cells = sum(len(m) * len(m[0]) for m in mats if m and isinstance(m[0], list))
    except (AttributeError, TypeError, KeyError, IndexError):
        pass
    return cells


class _JsonProxy:
    """Stands in for the ``json`` module inside ``spinrep.cli`` so that the
    parse of a gamma file gets its own span."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        self._tracer = tracer

    def loads(self, *args, **kwargs):
        with self._tracer.span("files.json_loads"):
            return json.loads(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer: tracing.Tracer) -> tracing.Patches:
    """Wrap each layer's public functions in spans and counters."""
    p = tracing.Patches()
    w = p.wrap
    for name in ("assemble_signature", "assemble_euclidean", "assemble_positive",
                 "split_signature_module", "sqrt_space_module", "octonion_module"):
        w(tracer, "spinrep.modules", name, "modules.assemble")
    w(tracer, "spinrep.modules", "verify_module", "modules.verify_module")
    w(tracer, "spinrep.modules", "spin_metric_verify", "modules.spin_metric_verify")
    w(tracer, "spinrep.modules", "intertwiners", "modules.intertwiners")
    w(tracer, "spinrep.kmatrix", "verify_clifford_condition", "kmatrix.clifford_check")
    w(tracer, "spinrep.kmatrix", "commutant", "kmatrix.commutant")
    w(tracer, "spinrep.kmatrix", "classify_commutant", "kmatrix.classify_commutant")
    w(tracer, "spinrep.linalg", "intertwiner_space", "linalg.intertwiner_space")

    def path_taken(args, kwargs, result):
        tracer.counts["linalg.fast_path" if result is not None else "linalg.rref_path"] += 1

    w(tracer, "spinrep.linalg", "signed_perm_intertwiners", "linalg.signed_perm", after=path_taken)
    w(tracer, "spinrep.files", "self_verify_module", "files.self_verify")
    w(tracer, "spinrep.files", "module_to_payload", "files.payload")
    w(tracer, "spinrep.files", "dump_gamma_json", "files.dumps")

    def cells(args, kwargs):
        tracer.counts["files.entries_parsed"] += _count_cells(args, kwargs)
        return args, kwargs

    w(tracer, "spinrep.files", "payload_to_gamma", "files.payload_to_gamma", before=cells)
    w(tracer, "spinrep.files", "verify_gamma", "files.verify_gamma")

    def csv_bytes(args, kwargs, result):
        tracer.counts["files.csv_bytes"] += len(result)

    w(tracer, "spinrep.files", "trace_to_csv", "files.csv", after=csv_bytes)

    def count_evals(args, kwargs):
        args = list(args)
        surface = args[0] if args else kwargs["surface"]
        try:
            surface.chart = tracing.timed_callable(tracer, surface.chart, "surfaces.chart_evals",
                                                   "surfaces.chart_eval_s")
        except AttributeError:  # a surface type that cannot be rebound goes uncounted
            pass
        curve = args[1] if len(args) > 1 else kwargs["curve"]
        curve = tracing.timed_callable(tracer, curve, "surfaces.curve_evals", "surfaces.curve_eval_s")
        if len(args) > 1:
            args[1] = curve
        else:
            kwargs["curve"] = curve
        return tuple(args), kwargs

    w(tracer, "spinrep.surfaces", "spin_parallel_transport", "surfaces.spin_transport",
      before=count_evals)
    w(tracer, "spinrep.surfaces", "parallel_transport_frame", "surfaces.frame_transport")
    w(tracer, "spinrep.spin", "quaternion_lift_path", "spin.path_lift")
    w(tracer, "spinrep.spin", "spin_lift", "spin.lift")
    w(tracer, "spinrep.spin", "double_cover_check", "spin.double_cover")
    w(tracer, "spinrep.spin", "twisted_adjoint_matrix", "spin.twisted_adjoint")
    w(tracer, "spinrep.spin", "spin_action", "spin.action")

    def count_product(args, kwargs, result):
        tracer.counts["clifford.products"] += 1

    w(tracer, "spinrep.clifford", "Multivector.__mul__", "clifford.product", after=count_product)
    if hasattr(cli, "json"):
        p.set(cli, "json", _JsonProxy(tracer))
    return p
