"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is stated inline; the algebraic criteria use exact
rational equality.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import random_rational_rotation, run_cli

from spinrep import algebras as alg
from spinrep.clifford import euclidean
from spinrep.kmatrix import joint_intertwiners
from spinrep.linalg import QMat
from spinrep.modules import (
    assemble_euclidean,
    assemble_signature,
    grading_from_volume,
    intertwiners,
    octonion_module,
    spinor_square,
    split_signature_module,
    sqrt_space_module,
)
from spinrep.spin import double_cover_check, spin_action, spin_lift, twisted_adjoint_matrix
from spinrep.structure import expected_irreducible_dim, verify_clifford_condition
from spinrep.surfaces import spin_parallel_transport, unit_sphere


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def test_criterion_1_clifford_condition_sweep():
    """Exact Clifford condition for all r+s <= 10 and Euclidean n <= 16."""
    start = time.monotonic()
    failures = []
    for total in range(1, 11):
        for r in range(total + 1):
            s = total - r
            for variant in ("plus", "minus") if (s - r) % 4 == 3 else ("plus",):
                m = assemble_signature(r, s, variant)
                if not verify_clifford_condition(list(m.generators), m.signature).ok:
                    failures.append((r, s, variant))
    for n in range(11, 17):
        m = assemble_euclidean(n)
        if not verify_clifford_condition(list(m.generators), m.signature).ok:
            failures.append((0, n, "plus"))
    elapsed = time.monotonic() - start
    _report(
        1,
        "clifford-condition sweep",
        not failures and elapsed <= 300.0,
        f"{elapsed:.1f}s, failures={failures}",
    )


K_DIMS = [2, 4, 4, 4, 2, 1, 1, 1]
K0_DIMS = [4, 8, 4, 4, 4, 2, 1, 1]


def test_criterion_2_classification_tables():
    """Module dims and both intertwiner tables for n = 1..8; Bott factor 16
    on the dims for n = 9..16."""
    bad = []
    dims = {}
    for n in range(1, 17):
        m = assemble_euclidean(n)
        dims[n] = m.real_dim
        if m.real_dim != expected_irreducible_dim(0, n):
            bad.append(f"dim n={n}")
        if n <= 8:
            idx = (n - 1) % 8
            if intertwiners(m).real_dimension != K_DIMS[idx]:
                bad.append(f"K n={n}")
            if intertwiners(m, even_only=True).real_dimension != K0_DIMS[idx]:
                bad.append(f"K0 n={n}")
    for n in range(9, 17):
        if dims[n] != 16 * dims[n - 8]:
            bad.append(f"bott n={n}")
    _report(2, "classification tables", not bad, ", ".join(bad))


def test_criterion_3_volume_grading():
    bad = []
    for n in (4, 8, 12):
        m = assemble_euclidean(n)
        vol = m.volume_operator()
        if vol * vol != QMat.identity(m.real_dim):
            bad.append(f"nu^2 n={n}")
            continue
        g = grading_from_volume(m)
        if g.plus_count() != g.minus_count():
            bad.append(f"ranks n={n}")
        eps = QMat.diag(g.grading)
        if not all(eps * gen == (gen * eps).scale(-1) for gen in m.generators):
            bad.append(f"oddness n={n}")
    _report(3, "volume element and grading", not bad, ", ".join(bad))


def test_criterion_4_plus_minus_distinctness():
    plus = assemble_euclidean(3)
    minus = assemble_euclidean(3, "minus")
    ident = QMat.identity(4)
    ok = plus.volume_operator() == ident.scale(-1)
    ok &= minus.volume_operator() == ident
    joint = joint_intertwiners(list(plus.generators), list(minus.generators))
    ok &= len(joint) == 0
    _report(4, "plus/minus S3 distinctness", ok, f"joint dim {len(joint)}")


def test_criterion_5_double_cover():
    bad = []
    for n in range(1, 7):
        rng = random.Random(1000 + n)
        module = assemble_euclidean(n)
        for trial in range(20):
            rot = (
                [[Fraction(1)]]
                if n == 1
                else random_rational_rotation(n, rng, factors=rng.randint(1, 4))
            )
            g = spin_lift(rot)
            if twisted_adjoint_matrix(g.value) != rot:
                bad.append(f"lift n={n} #{trial}")
                break
            if twisted_adjoint_matrix((-g).value) != rot:
                bad.append(f"Ad(-g) n={n} #{trial}")
                break
            if spin_action(module, g) == spin_action(module, -g):
                bad.append(f"pi(g) n={n} #{trial}")
                break
            if not double_cover_check(g, module).ok:
                bad.append(f"report n={n} #{trial}")
                break
    _report(5, "double cover (exact lifts)", not bad, ", ".join(bad))


def test_criterion_6_sphere_example():
    start = time.monotonic()
    sph = unit_sphere()

    def curve(t):
        return (2 * math.pi * t, 0.0)

    def velocity(t):
        return (2 * math.pi, 0.0)

    trace = spin_parallel_transport(sph, curve, (0.0, 1.0, 0.0, 0.0), steps=10000, velocity=velocity)
    worst_r = worst_g = worst_q = 0.0
    for t, e1, e2, nu, g, q in zip(trace.times, trace.e1, trace.e2, trace.normals, trace.lifts, trace.spinors):
        c, s = math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)
        expect_r = [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]
        cols = (e1, e2, nu)  # R(t) has the columns (e1, e2, normal)
        worst_r = max(
            worst_r,
            max(abs(cols[j][i] - expect_r[i][j]) for i in range(3) for j in range(3)),
        )
        expect_g = (math.cos(math.pi * t), 0.0, math.sin(math.pi * t), 0.0)
        worst_g = max(worst_g, max(abs(a - b) for a, b in zip(g, expect_g)))
        expect_q = (0.0, math.cos(math.pi * t), 0.0, -math.sin(math.pi * t))
        worst_q = max(worst_q, max(abs(a - b) for a, b in zip(q, expect_q)))
    anti = max(abs(a + b) for a, b in zip(trace.spinors[-1], trace.spinors[0]))
    frame_periodic = max(
        abs(a - b)
        for x, y in ((trace.e1[0], trace.e1[-1]), (trace.e2[0], trace.e2[-1]))
        for a, b in zip(x, y)
    )
    elapsed = time.monotonic() - start
    ok = (
        worst_r <= 1e-8
        and worst_g <= 1e-6
        and worst_q <= 1e-6
        and anti <= 1e-6
        and frame_periodic <= 1e-8
        and elapsed <= 5.0
    )
    _report(
        6,
        "sphere spin transport",
        ok,
        f"R {worst_r:.2e}, g {worst_g:.2e}, q {worst_q:.2e}, "
        f"anti {anti:.2e}, frame {frame_periodic:.2e}, {elapsed:.2f}s",
    )


def test_criterion_7_alternative_families():
    bad = []
    for n in range(1, 5):
        m = sqrt_space_module(n)
        if not verify_clifford_condition(list(m.generators), m.signature).ok:
            bad.append(f"sqrt n={n}")
    for k in range(4, 9):
        m = octonion_module(k)
        if not verify_clifford_condition(list(m.generators), m.signature).ok:
            bad.append(f"octonion k={k}")
    m8 = octonion_module(8)
    rng = random.Random(88)
    for _ in range(10):
        coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
        op = QMat.zeros(16, 16)
        for i, c in enumerate(coords):
            op = op + m8.generators[i].scale(c)
        if op * op != QMat.identity(16).scale(-sum(c * c for c in coords)):
            bad.append("c8 square")
            break
    _report(7, "sqrt-space and octonion families", not bad, ", ".join(bad))


def test_criterion_8_split_signature():
    bad = []
    for i in range(1, 5):
        m = split_signature_module(i)
        if not verify_clifford_condition(list(m.generators), m.signature).ok:
            bad.append(f"clifford i={i}")
        if intertwiners(m).real_dimension != 1:
            bad.append(f"commutant i={i}")
    _report(8, "split signature (g/2 normalization)", not bad, ", ".join(bad))


def test_criterion_9_spinor_square():
    bad = 0
    rng = random.Random(99)
    for n in (2, 3, 4):
        m = assemble_euclidean(n)
        d = m.real_dim
        k_dim = alg.ALGEBRA_DIM[m.field]
        for _ in range(50):
            s1 = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            s2 = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            omega = spinor_square(m, s1, s2)
            op = m.operator(omega)
            s1_im = [s1] + [u.apply(s1) for u in m.right_units]
            s2_im = [s2] + [u.apply(s2) for u in m.right_units]
            rows = [m.spin_metric.apply(img) for img in s2_im]
            entries = {}
            for t in range(d):
                for a in range(k_dim):
                    coef = rows[a][t]
                    if coef:
                        for i_row in range(d):
                            if s1_im[a][i_row]:
                                key = (i_row, t)
                                entries[key] = entries.get(key, Fraction(0)) + coef * s1_im[a][i_row]
            rank_one = QMat.from_entries(d, d, {k: v for k, v in entries.items() if v})
            if op != rank_one:
                bad += 1
    _report(9, "spinor squaring (zero residual)", bad == 0, f"{bad} failures")


def test_criterion_10_cli_round_trip(tmp_path):
    bad = []
    # generate -> verify across the sweep, every family in range, both variants
    jobs = []
    for total in range(1, 11):
        for r in range(total + 1):
            s = total - r
            variants = ("plus", "minus") if (s - r) % 4 == 3 else ("plus",)
            for variant in variants:
                jobs.append((r, s, "recipe", variant))
    for n in range(1, 5):
        jobs.append((0, n, "sqrt-space", "plus"))
    for k in range(4, 9):
        jobs.append((0, k, "octonion", "plus"))
    for idx, (r, s, family, variant) in enumerate(jobs):
        out = tmp_path / f"sweep_{idx}.json"
        res = run_cli(["generate", "--sig", f"{r},{s}", "--family", family,
                       "--variant", variant, "--out", str(out)])
        if res.exit_code != 0:
            bad.append(f"generate {r},{s} {family} {variant} -> {res.exit_code}")
            continue
        ver = run_cli(["verify", str(out)])
        if ver.exit_code != 0:
            bad.append(f"verify {r},{s} {family} {variant} -> {ver.exit_code}")

    res = run_cli(["classify", "--max-n", "16"])
    if res.exit_code != 0 or "MISMATCH" in res.output:
        bad.append("classify")

    t1, t2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    for out in (t1, t2):
        res = run_cli(["transport", "--steps", "500", "--out", str(out)])
        if res.exit_code != 0:
            bad.append("transport")
    if t1.read_bytes() != t2.read_bytes():
        bad.append("transport determinism")
    _report(10, "CLI round trips", not bad, "; ".join(bad[:4]))
