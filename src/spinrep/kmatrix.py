"""Matrices over R/C/H with side-tagged linearity, graded tensor products and
commutant (intertwiner) computation.

Side convention.  A module over K comes in a right-module and a left-module
flavour, and operators on the two realify differently:

* ``side="right"``: the operator acts on a right K-module, coordinates carry
  the K-scalar on the right of the basis vector, matrix entries multiply
  coordinates from the left.  Realification turns each entry into the matrix
  of *left* multiplication.
* ``side="left"``: the operator acts on a left K-module, entries multiply
  coordinates from the right, and realification uses *right* multiplication
  matrices.  Composition of two left-side operators multiplies entries in
  reversed order, which is exactly what makes realify a homomorphism on both
  sides.

Realified modules keep their K-block layout: the real basis is grouped in
runs of dim(K) vectors forming one K-orbit per slot, with the K-coordinate
fastest-varying.  All tensor constructions below preserve this layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random

from . import algebras as alg
from .algebras import ALGEBRA_DIM, KElement
from .clifford import Signature
from .errors import InputError
from .linalg import QMat, Rref, intertwiner_space, sparse_solve

ZERO = Fraction(0)


@dataclass(frozen=True)
class KMatrix:
    """Rectangular matrix over R, C or H with a declared linearity side."""

    field: str
    rows: int
    cols: int
    entries: tuple[KElement, ...]  # row-major
    side: str = "right"

    def __post_init__(self):
        if self.field not in ("R", "C", "H"):
            raise InputError(f"KMatrix field must be R, C or H, got {self.field!r}")
        if self.side not in ("right", "left"):
            raise InputError("side must be 'right' (right-module map) or 'left'")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match shape")
        for e in self.entries:
            if e.algebra != self.field:
                raise InputError("entry algebra differs from matrix field")

    def entry(self, i: int, j: int) -> KElement:
        return self.entries[i * self.cols + j]

    @staticmethod
    def from_rows(field: str, rows: list[list[KElement]], side: str = "right") -> "KMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = tuple(e for row in rows for e in row)
        return KMatrix(field, r, c, flat, side)

    @staticmethod
    def identity(field: str, n: int, side: str = "right") -> "KMatrix":
        one = alg.one(field)
        zero = alg.zero(field)
        flat = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return KMatrix(field, n, n, flat, side)

    def __mul__(self, other: "KMatrix") -> "KMatrix":
        """Operator composition self after other (matrix product)."""
        if self.field != other.field or self.side != other.side:
            raise InputError("KMatrix product needs matching field and side")
        if self.cols != other.rows:
            raise InputError("shape mismatch")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = alg.zero(self.field)
                for k in range(self.cols):
                    a = self.entry(i, k)
                    b = other.entry(k, j)
                    term = alg.mul(a, b) if self.side == "right" else alg.mul(b, a)
                    acc = alg.add(acc, term)
                out.append(acc)
        return KMatrix(self.field, self.rows, other.cols, tuple(out), self.side)

    def realify(self) -> QMat:
        """Real matrix in the K-blocked basis, respecting the linearity side."""
        k = ALGEBRA_DIM[self.field]
        entries: dict[tuple[int, int], Fraction] = {}
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entry(i, j)
                if e.is_zero():
                    continue
                block = alg.lmul_matrix(e) if self.side == "right" else alg.rmul_matrix(e)
                for bi, bj, v in block.entries():
                    entries[(i * k + bi, j * k + bj)] = v
        return QMat.from_entries(self.rows * k, self.cols * k, entries)


@dataclass(frozen=True)
class GradedSpace:
    """Module over ``field`` with an optional basis-aligned Z2-grading.

    ``dim`` counts K-basis slots; the realified dimension is
    ``dim * dim_R(field)``.  When present, ``grading`` assigns +1 or -1 to
    each slot (grading is constant along a K-orbit).
    """

    field: str
    dim: int
    grading: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.field not in ("R", "C", "H"):
            raise InputError("GradedSpace field must be R, C or H")
        if self.grading is not None:
            if len(self.grading) != self.dim:
                raise InputError("grading length must equal dim")
            if any(g not in (1, -1) for g in self.grading):
                raise InputError("grading entries must be +1 or -1")

    @property
    def real_dim(self) -> int:
        return self.dim * ALGEBRA_DIM[self.field]

    def plus_count(self) -> int:
        return sum(1 for g in self.grading or () if g == 1)

    def minus_count(self) -> int:
        return sum(1 for g in self.grading or () if g == -1)

    def real_grading(self) -> tuple[int, ...] | None:
        """Grading expanded to the realified basis (constant on K-orbits)."""
        if self.grading is None:
            return None
        k = ALGEBRA_DIM[self.field]
        return tuple(g for g in self.grading for _ in range(k))


def tensor_module(m: GradedSpace, n: GradedSpace, over: str, graded: bool) -> GradedSpace:
    """Tensor product space M (x)_K N described over the real numbers.

    M is read as a right K-module and N as a left K-module over the common
    field ``over``; both inputs must already be expressed over that field.
    The result is reported as a real space (field "R"); the parity grading is
    attached when ``graded`` is set, which requires both factors graded.
    """
    if m.field != over or n.field != over:
        raise InputError(f"both factors must be expressed over {over}")
    k = ALGEBRA_DIM[over]
    slots = m.dim * n.dim
    grading = None
    if graded:
        if m.grading is None or n.grading is None:
            raise InputError("graded tensor requires graded factors")
        pair = tuple(gm * gn for gm in m.grading for gn in n.grading)
        grading = tuple(g for g in pair for _ in range(k))
    return GradedSpace("R", slots * k, grading)


# ---------------------------------------------------------------------------
# One-slot operators on realified tensor products
# ---------------------------------------------------------------------------


def _blocks_of(t: QMat, k: int) -> dict[tuple[int, int], list[tuple[int, int, Fraction]]]:
    blocks: dict[tuple[int, int], list[tuple[int, int, Fraction]]] = {}
    for i, j, v in t.entries():
        key = (i // k, j // k)
        blocks.setdefault(key, []).append((i % k, j % k, v))
    return blocks


def tensor_op_left(t: QMat, m: GradedSpace, n: GradedSpace) -> QMat:
    """Realified ``T (x) I`` on M (x)_K N for a right-K-linear T given by its
    realified matrix on M (K-blocked basis)."""
    if m.field != n.field:
        raise InputError("factors are over different fields")
    k = ALGEBRA_DIM[m.field]
    b = n.dim
    if t.nrows != m.real_dim or t.ncols != m.real_dim:
        raise InputError("operator size does not match left factor")
    entries: dict[tuple[int, int], Fraction] = {}
    for (u, p), items in _blocks_of(t, k).items():
        for q in range(b):
            ro = (u * b + q) * k
            co = (p * b + q) * k
            for bi, bj, v in items:
                entries[(ro + bi, co + bj)] = v
    dim = k * m.dim * b
    return QMat.from_entries(dim, dim, entries)


def tensor_op_right(s, m: GradedSpace, n: GradedSpace, odd: bool = True) -> QMat:
    """Realified ``I (x)^ S`` on M (x)_K N with the graded sign rule.

    ``S`` is a left-module KMatrix over the common field (or a plain QMat
    when the field is R).  When M carries a grading and ``odd`` is set, slot
    p of M contributes the sign (-1)^(deg m_p); this is the sign rule
    (T (x)^ S)(m (x) n) = (-1)^(deg S * deg m) T m (x) S n  for one slot.
    """
    if m.field != n.field:
        raise InputError("factors are over different fields")
    k = ALGEBRA_DIM[m.field]
    a, b = m.dim, n.dim
    if isinstance(s, KMatrix):
        if s.field != m.field or s.side != "left":
            raise InputError("right-slot operator must be a left-module map over the field")
        if s.rows != b or s.cols != b:
            raise InputError("operator size does not match right factor")
        sblocks = {}
        for v_idx in range(b):
            for q in range(b):
                e = s.entry(v_idx, q)
                if not e.is_zero():
                    sblocks[(v_idx, q)] = list(alg.rmul_matrix(e).entries())
    else:
        if m.field != "R":
            raise InputError("plain-matrix right slot only valid over R")
        if s.nrows != b or s.ncols != b:
            raise InputError("operator size does not match right factor")
        sblocks = {(i, j): [(0, 0, v)] for i, j, v in s.entries()}

    entries: dict[tuple[int, int], Fraction] = {}
    for p in range(a):
        sgn = 1
        if odd and m.grading is not None and m.grading[p] == -1:
            sgn = -1
        for (v_idx, q), items in sblocks.items():
            ro = (p * b + v_idx) * k
            co = (p * b + q) * k
            for bi, bj, v in items:
                entries[(ro + bi, co + bj)] = sgn * v
    dim = k * a * b
    return QMat.from_entries(dim, dim, entries)


def graded_tensor_operator(t: QMat, s, m: GradedSpace, n: GradedSpace, deg_s: int = 1) -> QMat:
    """Realified ``T (x)^ S`` with the sign (-1)^(deg S * deg m).

    Mixed-degree right-slot operators must be split by the caller (extend
    bilinearly); Clifford generators are always treated as odd.
    """
    left = tensor_op_left(t, m, n)
    right = tensor_op_right(s, m, n, odd=bool(deg_s % 2))
    return left * right


# ---------------------------------------------------------------------------
# Clifford-condition verification
# ---------------------------------------------------------------------------


@dataclass
class CliffordReport:
    ok: bool
    dimension: int
    violations: list[tuple[int, int]]

    def __bool__(self):
        return self.ok


def verify_clifford_condition(generators: list[QMat], sig: Signature) -> CliffordReport:
    """Check G_i G_j + G_j G_i = -2 g_ij I exactly; violations are reported,
    not raised."""
    if len(generators) != sig.n:
        raise InputError(f"{sig} needs {sig.n} generators, got {len(generators)}")
    d = generators[0].nrows
    for g in generators:
        if g.nrows != d or g.ncols != d:
            raise InputError("generators must be square and of equal size")
    ident = QMat.identity(d)
    violations = []
    for i in range(sig.n):
        for j in range(i, sig.n):
            anti = generators[i].anticommutator(generators[j])
            expected = ident.scale(-2 * sig.form(i)) if i == j else QMat.zeros(d, d)
            if anti != expected:
                violations.append((i + 1, j + 1))
    return CliffordReport(not violations, d, violations)


# ---------------------------------------------------------------------------
# Commutants
# ---------------------------------------------------------------------------


@dataclass
class Commutant:
    """Intertwiner algebra of a generator set: exact basis plus a structure tag."""

    real_dimension: int
    division_algebra: str
    basis: list[QMat]


def _coords_in_basis(x: QMat, basis: list[QMat]) -> list[Fraction] | None:
    """Exact coordinates of x in the span of ``basis`` or None."""
    cols = []
    for b in basis:
        cols.append({(i, j): v for i, j, v in b.entries()})
    keys: set[tuple[int, int]] = set()
    for c in cols:
        keys.update(c)
    keys.update((i, j) for i, j, _ in x.entries())
    key_list = sorted(keys)
    rows = []
    rhs = []
    for key in key_list:
        row = {t: c[key] for t, c in enumerate(cols) if key in c}
        rows.append(row)
        rhs.append(x.get(*key))
    sol, _ = sparse_solve(rows, rhs, len(basis))
    if sol is None:
        return None
    return [sol.get(t, ZERO) for t in range(len(basis))]


def _left_mult_table(basis: list[QMat]) -> list[list[list[Fraction]]] | None:
    """table[i][j] = coordinates of basis[i]*basis[j] in ``basis``."""
    table = []
    for bi in basis:
        row = []
        for bj in basis:
            coords = _coords_in_basis(bi * bj, basis)
            if coords is None:
                return None
            row.append(coords)
        table.append(row)
    return table


def _division_test(basis: list[QMat], table) -> bool:
    """Deterministic invertibility probe: 2^k signed basis sums, one dense
    rational combination, and 32 seeded random samples must all act
    invertibly by left multiplication."""
    k = len(basis)

    def left_mult_matrix(coords: list[Fraction]) -> QMat:
        entries = {}
        for i, ci in enumerate(coords):
            if not ci:
                continue
            for j in range(k):
                for t, v in enumerate(table[i][j]):
                    if v:
                        entries[(t, j)] = entries.get((t, j), ZERO) + ci * v
        return QMat.from_entries(k, k, entries)

    def invertible(coords) -> bool:
        lm = left_mult_matrix([Fraction(c) for c in coords])
        rr = Rref()
        for row in lm.rows:
            rr.add_row(dict(row))
        return rr.rank == k

    samples = []
    for signs in range(1 << k):
        samples.append([(-1 if signs >> i & 1 else 1) for i in range(k)])
    samples.append([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)][:k])
    rng = random.Random(20240809)
    for _ in range(32):
        samples.append([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)])
    for coords in samples:
        if all(c == 0 for c in coords):
            continue
        if not invertible(coords):
            return False
    return True


def _center_dimension(basis: list[QMat]) -> int:
    """Dimension of {x in span(basis) : x commutes with every basis element}."""
    k = len(basis)
    rows: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for j, bj in enumerate(basis):
        for t, bt in enumerate(basis):
            comm = bt.commutator(bj)
            for i, jj, v in comm.entries():
                rows.setdefault((j, i, jj), {})[t] = v
    rr = Rref()
    for row in rows.values():
        rr.add_row(row)
    return k - rr.rank


def classify_commutant(basis: list[QMat]) -> str:
    dim = len(basis)
    if dim == 1:
        return "R"
    table = _left_mult_table(basis)
    if table is None:
        return f"A({dim})"
    division = _division_test(basis, table) if dim <= 4 else False
    if dim == 2:
        return "C" if division else "R+R"
    if dim == 4:
        return "H" if division else "M2(R)"
    if dim == 8 and _center_dimension(basis) == 2:
        return "M2(C)"
    return f"A({dim})"


def commutant(generators: list[QMat], size: int) -> Commutant:
    """Exact basis and classification of {X : X G = G X for all generators}.

    The classification follows the dimension: 1 is R, 2 is C (after a
    division probe), 4 is H when the division probe passes and M2(R)
    otherwise, larger dimensions are tagged as matrix algebras.  The probe is
    deterministic-plus-seeded sampling: a pass is strong evidence, not proof.
    """
    if not generators:
        raise InputError("commutant of an empty generator list is undefined")
    for g in generators:
        if g.nrows != size or g.ncols != size:
            raise InputError("generator size mismatch")
    basis = intertwiner_space([(g, g) for g in generators], size, size)
    tag = classify_commutant(basis) if basis else "0"
    return Commutant(len(basis), tag, basis)


def joint_intertwiners(gens_a: list[QMat], gens_b: list[QMat]) -> list[QMat]:
    """Basis of {X : X a_i = b_i X} between two generator lists."""
    if len(gens_a) != len(gens_b):
        raise InputError("generator lists must pair up")
    d_in = gens_a[0].nrows
    d_out = gens_b[0].nrows
    return intertwiner_space(list(zip(gens_a, gens_b)), d_in, d_out)
