"""``QMat``, ``inertia`` and the RREF branch of ``intertwiner_space`` against
frozen copies of the implementations they replaced: a ``QMat`` that stores
rows of ``Fraction``s, an inertia by symmetric elimination over ``Fraction``s,
and an intertwiner solve that adds the commutation constraints generator by
generator."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_rational_rotation

from spinrep.errors import InputError
from spinrep.linalg import QMat, Rref, SignedPerm, inertia, intertwiner_space
from spinrep.recipe import assemble_signature

ZERO = Fraction(0)


class FrozenQMat:
    """Rows are dicts mapping column index to a nonzero Fraction."""

    def __init__(self, nrows, ncols, rows):
        self.nrows, self.ncols, self.rows = nrows, ncols, rows

    @staticmethod
    def from_entries(nrows, ncols, entries):
        rows = [dict() for _ in range(nrows)]
        for (i, j), v in entries.items():
            if Fraction(v):
                rows[i][j] = Fraction(v)
        return FrozenQMat(nrows, ncols, rows)

    def _integer_rows(self):
        den = lcm(*{v.denominator for r in self.rows for v in r.values()})
        return den, [{j: v.numerator * (den // v.denominator) for j, v in r.items()} for r in self.rows]

    def trace(self):
        return sum((r[i] for i, r in enumerate(self.rows) if i in r), ZERO)

    def __eq__(self, other):
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __add__(self, other):
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra)
            for j, v in rb.items():
                s = row.get(j, ZERO) + v
                if s:
                    row[j] = s
                elif j in row:
                    del row[j]
            rows.append(row)
        return FrozenQMat(self.nrows, self.ncols, rows)

    def __neg__(self):
        return FrozenQMat(self.nrows, self.ncols, [{j: -v for j, v in r.items()} for r in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return FrozenQMat(self.nrows, self.ncols, [dict() for _ in range(self.nrows)])
        return FrozenQMat(self.nrows, self.ncols, [{j: c * v for j, v in r.items()} for r in self.rows])

    def __mul__(self, other):
        den_a, rows_a = self._integer_rows()
        den_b, rows_b = other._integer_rows()
        den = den_a * den_b
        rows = []
        for ra in rows_a:
            acc = {}
            for k, a in ra.items():
                for j, b in rows_b[k].items():
                    s = acc.get(j, 0) + a * b
                    if s:
                        acc[j] = s
                    elif j in acc:
                        del acc[j]
            rows.append({j: Fraction(v, den) for j, v in acc.items()})
        return FrozenQMat(self.nrows, other.ncols, rows)

    def transpose(self):
        rows = [dict() for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return FrozenQMat(self.ncols, self.nrows, rows)


def frozen_inertia(gram):
    g = [[Fraction(v) for v in row] for row in gram]
    live = list(range(len(g)))
    pos = neg = 0
    while live:
        piv = next((i for i in live if g[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in live for j in live if g[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            for t in live:
                g[piv][t] += g[j][t]
            for t in live:
                g[t][piv] += g[t][j]
        d = g[piv][piv]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        live.remove(piv)
        for a in live:
            f = g[a][piv] / d
            if f:
                for b in live:
                    g[a][b] -= f * g[piv][b]
    return pos, neg, len(live)


def frozen_intertwiner_space(pairs, d_in, d_out):
    """The RREF branch with the constraint rows of each pair added together,
    pair after pair."""
    rr = Rref()
    for a, b in pairs:
        den = lcm(*(v.denominator for m in (a, b) for _, _, v in m.entries()))
        acols = [dict() for _ in range(d_in)]
        brows = [dict() for _ in range(d_out)]
        for i, j, v in a.entries():
            acols[j][i] = v.numerator * (den // v.denominator)
        for i, k, v in b.entries():
            brows[i][k] = v.numerator * (den // v.denominator)
        for i in range(d_out):
            for j in range(d_in):
                row = {i * d_in + k: v for k, v in acols[j].items()}
                for k, v in brows[i].items():
                    key = k * d_in + j
                    s = row.get(key, 0) - v
                    if s:
                        row[key] = s
                    elif key in row:
                        del row[key]
                if row:
                    rr.add_row(row)
    return [QMat.from_entries(d_out, d_in, {divmod(k, d_in): Fraction(v, den) for k, v in vec.items()})
            for den, vec in rr.nullspace(d_out * d_in)]


# ---------------------------------------------------------------------------
# QMat against the Fraction-row QMat
# ---------------------------------------------------------------------------

VALUES = [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 6), Fraction(7, 4),
          Fraction(1, 9973)]


def _entries(rng, nrows, ncols, density, values):
    return {(i, j): rng.choice(values) for i in range(nrows) for j in range(ncols) if rng.random() < density}


@st.composite
def matrix_pairs(draw):
    """Two pairs (QMat, FrozenQMat) of equal matrices: the first m x k, the
    second k x n, or m x k as well for sums; entries drawn from a few values
    so that sums and products cancel."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    same_shape = draw(st.booleans())
    values = draw(st.sampled_from([VALUES[:4], VALUES]))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    out = []
    for nrows, ncols in ((m, k), (m, k) if same_shape else (k, n)):
        entries = _entries(rng, nrows, ncols, density, values)
        out.append((QMat.from_entries(nrows, ncols, entries), FrozenQMat.from_entries(nrows, ncols, entries)))
    return out


def _same(got: QMat, want: FrozenQMat):
    """Equal entries, the same key order in every row, Fraction read-outs."""
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want.rows]
    assert all(type(v) is Fraction and v for r in got.rows for v in r.values())
    assert list(got.entries()) == [(i, j, v) for i, r in enumerate(want.rows) for j, v in r.items()]


@settings(max_examples=300, deadline=None)
@given(matrix_pairs(), st.sampled_from([0, 1, -1, 2, Fraction(-3, 4), Fraction(5, 9)]))
def test_qmat_matches_the_fraction_rows(pairs, c):
    (a, fa), (b, fb) = pairs
    _same(a, fa)
    _same(-a, -fa)
    _same(a.transpose(), fa.transpose())
    _same(a.scale(c), fa.scale(c))
    assert a.trace() == fa.trace()
    if (a.nrows, a.ncols) == (b.nrows, b.ncols):
        _same(a + b, fa + fb)
        _same(a - b, fa - fb)
        assert (a == b) == (fa == fb) and (a + b == b + a)
    else:
        _same(a * b, fa * fb)
        _same(a.transpose() * a, fa.transpose() * fa)
    assert a.den > 0 and all(type(v) is int and v for r in a.num for v in r.values())
    assert lcm(*(v.denominator for r in fa.rows for v in r.values())) == a.den


@pytest.mark.parametrize("combine", [
    lambda: QMat.identity(2) * QMat.identity(3),
    lambda: QMat.identity(2) * QMat.zeros(3, 2),
    lambda: QMat.identity(2) + QMat.identity(3),
    lambda: QMat.zeros(2, 3) - QMat.zeros(3, 2),
    lambda: SignedPerm.identity(2) * SignedPerm.identity(3),
], ids=["qmat-product", "qmat-product-chain", "qmat-sum", "qmat-difference", "signed-perm-product"])
def test_shape_mismatch_raises_input_error(combine):
    with pytest.raises(InputError, match="size mismatch"):
        combine()


# ---------------------------------------------------------------------------
# inertia against the Fraction elimination
# ---------------------------------------------------------------------------


@st.composite
def symmetric_forms(draw):
    """Symmetric rational forms up to 6 x 6; about half have a zero diagonal,
    so that the elimination must pair two indices to find a pivot, and some
    are rank-deficient sums of squares of a few rows."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["dense", "zero-diagonal", "low-rank"]))
    if kind == "low-rank":
        vecs = [[rng.choice(VALUES + [0, 0]) for _ in range(n)] for _ in range(rng.randint(0, n))]
        signs = [rng.choice([1, -1]) for _ in vecs]
        return [[sum(s * v[i] * v[j] for s, v in zip(signs, vecs)) for j in range(n)] for i in range(n)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and kind == "zero-diagonal":
                continue
            g[i][j] = g[j][i] = rng.choice(VALUES + [0])
    return g


@settings(max_examples=400, deadline=None)
@example([[0, 1], [1, 0]])
@example([[0, Fraction(1, 3), 0], [Fraction(1, 3), 0, 2], [0, 2, 0]])
@example([[Fraction(1, 2), 0], [0, -4]])
@given(symmetric_forms())
def test_inertia_matches_the_fraction_elimination(gram):
    assert inertia(gram) == frozen_inertia(gram)
    assert inertia([[Fraction(v) for v in row] for row in gram]) == frozen_inertia(gram)


# ---------------------------------------------------------------------------
# entry-ordered intertwiner_space against the generator-major order
# ---------------------------------------------------------------------------


def _conjugate(gens, rot):
    """``P G P^T`` for each generator, P the rational rotation ``rot``."""
    d = len(rot)
    p = QMat.from_entries(d, d, {(i, j): v for i, r in enumerate(rot) for j, v in enumerate(r)})
    pt = p.transpose()
    return [p * g * pt for g in gens]


SIGNATURES = [(r, s) for n in range(1, 5) for r in range(n + 1) for s in [n - r]]


@st.composite
def dense_pairs(draw):
    """(pairs, d): the generators of a recipe module conjugated by one seeded
    rational rotation on the A side and by another (or the same) on the B
    side, so that no pair is a signed permutation."""
    r, s = draw(st.sampled_from(SIGNATURES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gens = list(assemble_signature(r, s).generators)
    d = gens[0].nrows
    if d == 1:
        gens = [g.scale(Fraction(3, 2)) for g in gens]
        return [(g, g) for g in gens], d
    a_side = _conjugate(gens, random_rational_rotation(d, rng, factors=rng.randint(1, 2 * d)))
    b_side = a_side if draw(st.booleans()) else _conjugate(
        gens, random_rational_rotation(d, rng, factors=rng.randint(1, 2 * d)))
    return list(zip(a_side, b_side)), d


@settings(max_examples=60, deadline=None)
@given(dense_pairs())
def test_entry_ordered_solve_matches_the_generator_major_solve(case):
    pairs, d = case
    assume(any(SignedPerm.of(m) is None for pair in pairs for m in pair))  # the RREF branch
    got = intertwiner_space(pairs, d, d)
    assert got == frozen_intertwiner_space(pairs, d, d)
    for x in got:
        for a, b in pairs:
            assert x * a == b * x
