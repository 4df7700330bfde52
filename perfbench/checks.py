"""Checkers that judge spinrep's outputs without using spinrep.

Every check here is computed from the mathematics, never from a stored copy
of the program's output:

* a reader for gamma JSON files whose matrix cells are ``"p/q"`` strings;
* a sparse exact matrix product for anticommutators, metric adjointness and
  commutation;
* the mod-8 table of ``Cl(r,s)``: irreducible module dimension, commutant and
  even commutant;
* an exact bitmask blade product for ``g v rev(g) = norm2 * R v``;
* quaternion-to-rotation and frame holonomy for transport CSV rows.

``python3 perfbench/checks.py`` runs the self-tests, which show that each
checker accepts a good input and rejects a deliberately broken one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# Gamma files
# ---------------------------------------------------------------------------


def parse_cell(cell):
    """An exact rational from a ``"p/q"`` or ``"p"`` string."""
    if not isinstance(cell, str):
        raise ValueError(f"matrix cell {cell!r} is not a string")
    if "/" in cell:
        num, den = cell.split("/")
        return Fraction(int(num), int(den))
    return int(cell)


def read_matrix(rows, d: int) -> list[dict]:
    """Sparse rows ``[{col: value}]`` of a d x d matrix of cells."""
    if len(rows) != d or any(len(row) != d for row in rows):
        raise ValueError("matrix has the wrong shape")
    out = []
    for row in rows:
        sparse = {}
        for j, cell in enumerate(row):
            if cell != "0":
                value = parse_cell(cell)
                if value:
                    sparse[j] = value
        out.append(sparse)
    return out


def read_gamma(text: str) -> dict:
    """The parts of a gamma JSON file that the checks need."""
    payload = json.loads(text)
    r, s = (int(x) for x in payload["signature"])
    d = int(payload["real_dim"])
    return {
        "r": r,
        "s": s,
        "d": d,
        "generators": [read_matrix(g, d) for g in payload["generators"]],
        "metric": read_matrix(payload["spin_metric"], d),
        "commutant_basis": [read_matrix(b, d) for b in payload["commutant_basis"]],
    }


def format_cell(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_cells(m: list[dict], d: int) -> list[list[str]]:
    return [[format_cell(row.get(j, 0)) for j in range(d)] for row in m]


# ---------------------------------------------------------------------------
# Sparse exact matrices: a list of {col: value} rows
# ---------------------------------------------------------------------------


def identity(d: int, c=1) -> list[dict]:
    return [{i: c} for i in range(d)]


def mat_mul(a: list[dict], b: list[dict]) -> list[dict]:
    out = []
    for row in a:
        acc: dict = {}
        for k, v in row.items():
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: x for j, x in acc.items() if x})
    return out


def mat_add(a: list[dict], b: list[dict], c=1) -> list[dict]:
    """a + c * b."""
    out = []
    for ra, rb in zip(a, b):
        acc = dict(ra)
        for j, w in rb.items():
            acc[j] = acc.get(j, 0) + c * w
        out.append({j: x for j, x in acc.items() if x})
    return out


def transpose(a: list[dict]) -> list[dict]:
    out: list[dict] = [{} for _ in a]
    for i, row in enumerate(a):
        for j, v in row.items():
            out[j][i] = v
    return out


def conjugate(p: list[dict], m: list[dict]) -> list[dict]:
    """P M P^T; equals P M P^-1 for the orthogonal P used here."""
    return mat_mul(mat_mul(p, m), transpose(p))


def gen_square(r: int, i: int) -> int:
    """e_{i+1}^2 under the convention e_i e_j + e_j e_i = -2 g_ij,
    g = diag(-1 x r, +1 x s)."""
    return 1 if i < r else -1


def anticommutator_violations(gens: list[dict], r: int) -> list[tuple[int, int]]:
    """1-based pairs (i, j), i <= j, where G_i G_j + G_j G_i != 2 e_i^2 delta_ij I."""
    d = len(gens[0])
    bad = []
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            anti = mat_add(mat_mul(gens[i], gens[j]), mat_mul(gens[j], gens[i]))
            want = identity(d, 2 * gen_square(r, i)) if i == j else [{} for _ in range(d)]
            if anti != want:
                bad.append((i + 1, j + 1))
    return bad


def metric_violations(gens: list[dict], metric: list[dict], r: int) -> list[int]:
    """1-based generators that are not self-adjoint (square +1) or
    skew-adjoint (square -1) for the metric; 0 when the metric is not
    symmetric."""
    bad = [0] if transpose(metric) != metric else []
    for i, g in enumerate(gens):
        lhs = mat_mul(transpose(g), metric)
        rhs = mat_mul(metric, g)
        if gen_square(r, i) == -1:
            rhs = [{j: -v for j, v in row.items()} for row in rhs]
        if lhs != rhs:
            bad.append(i + 1)
    return bad


def commutation_violations(basis: list[dict], gens: list[dict]) -> list[tuple[int, int]]:
    """(basis index, 1-based generator) pairs that do not commute."""
    bad = []
    for t, b in enumerate(basis):
        for i, g in enumerate(gens):
            if mat_mul(b, g) != mat_mul(g, b):
                bad.append((t, i + 1))
    return bad


def is_signed_permutation(m: list[dict]) -> bool:
    """One entry +-1 in every row, in distinct columns."""
    cols = set()
    for row in m:
        if len(row) != 1:
            return False
        (j, v), = row.items()
        if v not in (1, -1):
            return False
        cols.add(j)
    return len(cols) == len(m)


def restrict(m: list[dict], idxs: list[int]) -> list[dict]:
    pos = {v: t for t, v in enumerate(idxs)}
    return [{pos[j]: v for j, v in m[i].items() if j in pos} for i in idxs]


def even_generators(gens: list[dict]) -> list[dict]:
    """Generators e_1 e_j of the even subalgebra, restricted to the +1
    eigenspace of the volume element when it is even, squares to +1 and is
    diagonal (the summand on which the even commutant is classified)."""
    d = len(gens[0])
    even = [mat_mul(gens[0], g) for g in gens[1:]] or [identity(d)]
    if len(gens) % 2 == 0:
        vol = gens[0]
        for g in gens[1:]:
            vol = mat_mul(vol, g)
        if mat_mul(vol, vol) == identity(d) and all(set(row) == {i} for i, row in enumerate(vol)):
            plus = [i for i in range(d) if vol[i][i] == 1]
            even = [restrict(g, plus) for g in even]
    return even


# ---------------------------------------------------------------------------
# The mod-8 table of Cl(p,q): p generators square to +1, q to -1
# ---------------------------------------------------------------------------

FIELD_DIM = {"R": 1, "C": 2, "H": 4}
_NAMED = {("R", 1): "R", ("C", 1): "C", ("H", 1): "H", ("R", 2): "M2(R)", ("C", 2): "M2(C)"}


def algebra_type(p: int, q: int) -> tuple[int, str, bool]:
    """Cl(p,q) = M_m(F) or M_m(F) + M_m(F): returns (m, F, doubled)."""
    n = p + q
    if n == 0:
        return 1, "R", False
    k = (p - q) % 8
    if k in (0, 2):
        return 2 ** (n // 2), "R", False
    if k == 1:
        return 2 ** ((n - 1) // 2), "R", True
    if k in (3, 7):
        return 2 ** ((n - 1) // 2), "C", False
    if k in (4, 6):
        return 2 ** ((n - 2) // 2), "H", False
    return 2 ** ((n - 3) // 2), "H", True


def module_dim(p: int, q: int) -> int:
    m, field, _ = algebra_type(p, q)
    return m * FIELD_DIM[field]


def commutant_expected(p: int, q: int) -> tuple[int, str]:
    """(real dimension, name) of the commutant of the irreducible module."""
    _, field, _ = algebra_type(p, q)
    return FIELD_DIM[field], field


def even_commutant_expected(p: int, q: int) -> tuple[int, str | None]:
    """(real dimension, name or None) of the even commutant.

    Cl^0(p,q) is Cl(p,q-1) (or Cl(q,p-1) when q = 0).  When it is a sum of
    two simple algebras the volume element splits the module into halves and
    the commutant is taken on one of them.  With k copies of the irreducible
    Cl^0-module of type F the commutant is M_k(F); None means a k for which
    no short name is checked.
    """
    d = module_dim(p, q)
    ap, aq = (p, q - 1) if q >= 1 else (q, p - 1)
    m, field, doubled = algebra_type(ap, aq)
    if doubled:
        d //= 2
    k, rem = divmod(d, m * FIELD_DIM[field])
    if rem:
        raise ValueError("irreducible even module does not divide the module")
    return k * k * FIELD_DIM[field], _NAMED.get((field, k))


def classify_row_errors(tokens: list[str]) -> list[str]:
    """Check one ``spinrep classify`` row: n, variant, dim, K, K0."""
    n, dim, k_tag, k0_tag = int(tokens[0]), int(tokens[2]), tokens[3], tokens[4]
    errors = []
    if dim != module_dim(0, n):
        errors.append(f"n={n}: dim {dim} != {module_dim(0, n)}")
    if k_tag != commutant_expected(0, n)[1]:
        errors.append(f"n={n}: K {k_tag} != {commutant_expected(0, n)[1]}")
    k0_name = even_commutant_expected(0, n)[1]
    if k0_name is not None and k0_tag != k0_name:
        errors.append(f"n={n}: K0 {k0_tag} != {k0_name}")
    return errors


# ---------------------------------------------------------------------------
# Exact blade product (Euclidean Cl(0,n): every generator squares to -1)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def blade_sign(a: int, b: int, neg_mask: int) -> int:
    """Sign of e_a e_b = sign * e_(a xor b) for bitmask blades."""
    swaps = 0
    x = a >> 1
    while x:
        swaps += bin(x & b).count("1")
        x >>= 1
    sign = -1 if swaps & 1 else 1
    return -sign if bin(a & b & neg_mask).count("1") & 1 else sign


def mv_mul(x: dict, y: dict, neg_mask: int) -> dict:
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            m = a ^ b
            out[m] = out.get(m, 0) + blade_sign(a, b, neg_mask) * ca * cb
    return {m: c for m, c in out.items() if c}


def mv_reverse(x: dict) -> dict:
    return {m: (-c if (bin(m).count("1") // 2) % 2 else c) for m, c in x.items()}


def integral(x: dict) -> dict:
    """x scaled by a positive integer so that every coefficient is an int.
    Both identities checked below are homogeneous in g, so scaling leaves
    them unchanged and keeps the arithmetic in integers."""
    scale = math.lcm(*(Fraction(c).denominator for c in x.values()))
    return {m: int(Fraction(c) * scale) for m, c in x.items()}


def lift_errors(g: dict, rotation: list[list], n: int) -> list[str]:
    """Check that the even versor g covers the rotation: g is even,
    g rev(g) is a positive scalar norm2, and g e_k rev(g) = norm2 R e_k."""
    neg = (1 << n) - 1
    g = integral(g)
    errors = []
    if any(bin(m).count("1") % 2 for m in g):
        errors.append("lift is not even")
    rev = mv_reverse(g)
    norm = mv_mul(g, rev, neg)
    if set(norm) != {0} or norm[0] <= 0:
        return errors + ["g rev(g) is not a positive scalar"]
    for k in range(n):
        image = mv_mul(mv_mul(g, {1 << k: 1}, neg), rev, neg)
        want = {1 << i: norm[0] * rotation[i][k] for i in range(n) if rotation[i][k]}
        if image != want:
            errors.append(f"g e_{k + 1} rev(g) != norm2 R e_{k + 1}")
    return errors


def projectively_equal(x: dict, y: dict, n: int) -> bool:
    """x = c y for a nonzero scalar c, for versors x and y."""
    cross = mv_mul(integral(x), mv_reverse(integral(y)), (1 << n) - 1)
    return set(cross) == {0}


def rotation_errors(rot: list[list]) -> list[str]:
    """R^T R = I and det R = 1, exactly."""
    n = len(rot)
    errors = []
    for i in range(n):
        for j in range(n):
            if sum(rot[k][i] * rot[k][j] for k in range(n)) != (1 if i == j else 0):
                errors.append("R^T R != I")
                return errors
    if determinant(rot) != 1:
        errors.append("det R != 1")
    return errors


def determinant(rows: list[list]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# ---------------------------------------------------------------------------
# Transport CSV rows
# ---------------------------------------------------------------------------

FRAME_TOL = 1e-8


def quat_to_rotation(w, x, y, z) -> list[list[float]]:
    """Rotation matrix of the unit quaternion (w, x, y, z): v -> q v conj(q)."""
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def read_csv(text: str) -> list[dict]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _vec(row: dict, name: str) -> tuple[float, float, float]:
    return row[f"{name}_x"], row[f"{name}_y"], row[f"{name}_z"]


def transport_errors(rows: list[dict], steps: int) -> list[str]:
    """Row count, ok flags, frame covered by g, continuity of the lift."""
    errors = []
    if len(rows) != steps + 1:
        errors.append(f"{len(rows)} rows, expected {steps + 1}")
    prev = None
    for idx, row in enumerate(rows):
        if row["ok"] != 1:
            errors.append(f"row {idx}: ok=0")
            break
        g = (row["g_w"], row["g_x"], row["g_y"], row["g_z"])
        rot = quat_to_rotation(*g)
        frame = (_vec(row, "e1"), _vec(row, "e2"), _vec(row, "nu"))
        worst = max(abs(rot[i][k] - frame[k][i]) for i in range(3) for k in range(3))
        if not worst <= FRAME_TOL:
            errors.append(f"row {idx}: g misses the frame by {worst:.3g}")
            break
        if prev is not None and sum(a * b for a, b in zip(prev, g)) <= 0:
            errors.append(f"row {idx}: lift flips sign")
            break
        prev = g
    return errors


def spinor(row: dict) -> tuple[float, float, float, float]:
    return row["q_w"], row["q_x"], row["q_y"], row["q_z"]


def holonomy_error(rows: list[dict], phi: float) -> float:
    """Distance (mod 2 pi) between the frame rotation after one latitude loop
    and the enclosed-area angle 2 pi (1 - sin phi)."""
    e1_0, e2_0, e1_1 = _vec(rows[0], "e1"), _vec(rows[0], "e2"), _vec(rows[-1], "e1")
    angle = math.atan2(
        sum(a * b for a, b in zip(e1_1, e2_0)), sum(a * b for a, b in zip(e1_1, e1_0))
    )
    diff = (angle - 2 * math.pi * (1 - math.sin(phi))) % (2 * math.pi)
    return min(diff, 2 * math.pi - diff)


# ---------------------------------------------------------------------------
# Self-tests
# ---------------------------------------------------------------------------


def _quaternion_units() -> list[list[dict]]:
    """Left multiplication by i, j on H = R^4: a Cl(0,2) module."""
    def left(u):
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        cols = [_qmul(u, b) for b in basis]
        return [{j: cols[j][i] for j in range(4) if cols[j][i]} for i in range(4)]
    return [left((0, 1, 0, 0)), left((0, 0, 1, 0))]


def _qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def self_test() -> list[str]:
    """Each checker accepts a good input and rejects a broken one.  Returns
    the failures (empty when every checker behaves)."""
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    # gamma reader
    expect(parse_cell("-3/4") == Fraction(-3, 4) and parse_cell("5") == 5, "reader: good cells")
    for bad in ("1/0", "x", 1.5, 2, None):
        try:
            parse_cell(bad)
            failures.append(f"reader accepted {bad!r}")
        except (ValueError, ZeroDivisionError):
            pass
    try:
        read_matrix([["1", "0"]], 2)
        failures.append("reader accepted a ragged matrix")
    except ValueError:
        pass

    # anticommutators, metric, commutation on the quaternion Cl(0,2) module
    gens = _quaternion_units()
    expect(anticommutator_violations(gens, 0) == [], "anticommutator: good module")
    expect(metric_violations(gens, identity(4), 0) == [], "metric: good module")
    broken = [dict(row) for row in gens[1]]
    col = next(iter(broken[0]))
    broken[0][col] = -broken[0][col]
    expect(anticommutator_violations([gens[0], broken], 0) != [], "anticommutator: broken entry")
    expect(metric_violations([gens[0], broken], identity(4), 0) == [2], "metric: broken entry")
    expect(is_signed_permutation(gens[0]), "signed permutation: quaternion unit")
    expect(not is_signed_permutation(broken[:3] + [{0: 1}]), "signed permutation: repeated column")
    expect(not is_signed_permutation([{0: Fraction(3, 5), 1: Fraction(4, 5)}, {1: 1}]),
           "signed permutation: rotation accepted")
    expect(commutation_violations([identity(4)], gens) == [], "commutation: identity")
    expect(commutation_violations([gens[0]], gens) == [(0, 2)], "commutation: i vs j")

    # mod-8 table against textbook values and one wrong classify row
    expect([module_dim(0, n) for n in range(1, 9)] == [2, 4, 4, 8, 8, 8, 8, 16], "table: Cl(0,n)")
    expect([module_dim(n, 0) for n in range(1, 9)] == [1, 2, 4, 8, 8, 16, 16, 16], "table: Cl(n,0)")
    expect(
        [even_commutant_expected(0, n) for n in (1, 2, 3, 8)]
        == [(4, "M2(R)"), (8, "M2(C)"), (4, "H"), (1, "R")],
        "table: even commutants",
    )
    expect(classify_row_errors("3 plus 4 H H".split()) == [], "table: good classify row")
    expect(classify_row_errors("3 plus 8 H H".split()) != [], "table: wrong dim accepted")
    expect(classify_row_errors("6 plus 8 R C".split()) == [], "table: good K0 row")
    expect(classify_row_errors("6 plus 8 R R".split()) != [], "table: wrong K0 accepted")

    # blade product: 1 + e1 e2 covers the quarter turn e1 -> e2 in Cl(0,2)
    quarter = [[0, -1], [1, 0]]
    expect(lift_errors({0: 1, 3: 1}, quarter, 2) == [], "blade product: good lift")
    expect(lift_errors({0: 1, 3: 2}, quarter, 2) != [], "blade product: wrong lift")
    expect(lift_errors({0: 1, 1: 1}, quarter, 2) != [], "blade product: odd lift")
    expect(projectively_equal({0: 2, 3: 2}, {0: 1, 3: 1}, 2), "projective: scaled")
    expect(not projectively_equal({0: 1, 3: 1}, {0: 1, 3: -1}, 2), "projective: different")
    expect(rotation_errors(quarter) == [], "rotation: good")
    expect(rotation_errors([[0, 1], [1, 0]]) != [], "rotation: reflection accepted")

    # quaternion rows: the identity frame, then a perturbed lift
    row = {"ok": 1.0, "g_w": 1.0, "g_x": 0.0, "g_y": 0.0, "g_z": 0.0}
    for name, vec in (("e1", (1, 0, 0)), ("e2", (0, 1, 0)), ("nu", (0, 0, 1))):
        row.update({f"{name}_x": vec[0], f"{name}_y": vec[1], f"{name}_z": vec[2]})
    expect(transport_errors([row, dict(row)], 1) == [], "transport: good rows")
    tilted = dict(row, g_w=math.cos(1e-6), g_z=math.sin(1e-6))
    expect(transport_errors([row, tilted], 1) != [], "transport: wrong lift accepted")
    expect(transport_errors([row, dict(row, ok=0.0)], 1) != [], "transport: ok=0 accepted")
    flipped = dict(row, g_w=-1.0)
    expect(transport_errors([row, flipped], 1) != [], "transport: sign flip accepted")
    expect(transport_errors([row], 1) != [], "transport: short file accepted")
    loop = [dict(row), dict(row)]
    expect(holonomy_error(loop, math.pi / 2) < 1e-12, "holonomy: pole")
    expect(holonomy_error(loop, 0.5) > 1.0, "holonomy: wrong angle accepted")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("checker self-tests:", "ok" if not problems else f"{len(problems)} failed")
    raise SystemExit(1 if problems else 0)
