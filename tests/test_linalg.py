"""The exact elimination kernel: ``Rref``, ``nullspace``, ``sparse_solve`` and
everything that reads them (dense commutants, ``_invert``, the echelon
rebasing of ``classify_commutant``).

The pinned hashes and solutions were recorded with an earlier elimination over
Fractions; any kernel must reproduce them exactly.
"""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinrep.kmatrix import classify_commutant, commutant
from spinrep.linalg import QMat, Rref, sparse_solve
from spinrep.modules import _invert, sqrt_space_module
from spinrep.recipe import assemble_signature

# ---------------------------------------------------------------------------
# Pinned outputs of the RREF path
# ---------------------------------------------------------------------------


def _givens_layer(d: int, grading, shift: int) -> QMat:
    """Rotations by (3/5, 4/5) on consecutive index pairs inside each grading
    block, the pairing offset by ``shift``."""
    blocks: dict[int, list[int]] = {}
    for i in range(d):
        blocks.setdefault(grading[i] if grading else 1, []).append(i)
    entries = {}
    c, s = Fraction(3, 5), Fraction(4, 5)
    for idxs in blocks.values():
        idxs = idxs[shift:] + idxs[:shift]
        for k in range(0, len(idxs) - 1, 2):
            i, j = idxs[k], idxs[k + 1]
            entries.update({(i, i): c, (i, j): -s, (j, i): s, (j, j): c})
        if len(idxs) % 2:
            entries[idxs[-1], idxs[-1]] = Fraction(1)
    return QMat.from_entries(d, d, entries)


def _dense_generators(r: int, s: int) -> tuple[list[QMat], int]:
    """The generators of ``assemble_signature(r, s)`` conjugated by a fixed
    grading-preserving rational orthogonal matrix."""
    m = assemble_signature(r, s)
    d = m.real_dim
    p = _givens_layer(d, m.real_grading(), 1) * _givens_layer(d, m.real_grading(), 0)
    pt = p.transpose()
    return [p * g * pt for g in m.generators], d


def _basis_sha(basis) -> str:
    text = ";".join(",".join(f"{i}:{j}:{v}" for i, j, v in sorted(b.entries())) for b in basis)
    return hashlib.sha256(text.encode()).hexdigest()


def _sqrt_space_4():
    m = sqrt_space_module(4)
    return list(m.generators), m.real_dim


RREF_PINS = {
    "sqrt-space 0,4": (_sqrt_space_4,
        "H", "e6c16f0ada89fc82fdf69acbcf4b3c26bb1e8ba275e491033e9394a545ce42ca"),
    "dense 0,5": (lambda: _dense_generators(0, 5),
        "C", "580c9d37989115f794dd97b27a26f147fbc6cb8c37201ccbfdacc885e3b2e602"),
    "dense 1,5": (lambda: _dense_generators(1, 5),
        "H", "6ddbf3260a29ed429b395f567bb22ddb4edeb6f7033256e35e562f2917656bf4"),
    "dense 0,8": (lambda: _dense_generators(0, 8),
        "R", "2d4a2ab9f7a6551ed16c450ca3f86a23904d68bba8632ba3e9becd662348168e"),
}


@pytest.mark.parametrize("name", sorted(RREF_PINS))
def test_rref_path_commutant_is_pinned(name):
    build, label, sha = RREF_PINS[name]
    gens, d = build()
    com = commutant(gens, d)
    assert (com.division_algebra, _basis_sha(com.basis)) == (label, sha)
    # the same algebra in a basis where no entry belongs to the first element
    # alone, so that classify_commutant rebases it through an echelon form
    if len(com.basis) > 1:
        b0, b1 = com.basis[0], com.basis[1].scale(Fraction(2, 3))
        mixed = [b0 + b1, b0 - b1] + com.basis[2:]
        owned = {(i, j) for i, j, _ in mixed[0].entries()}
        for other in mixed[1:]:
            owned -= {(i, j) for i, j, _ in other.entries()}
        assert not owned
        assert classify_commutant(mixed) == label


F = Fraction

# (rows, rhs, ncols) -> sparse_solve's answer; denominators are not powers of two
SOLVE_PINS = [
    (([{0: F(1, 3), 1: F(2, 7)}, {0: F(5, 11), 2: F(-1, 13)}, {1: F(3, 17), 2: F(9, 19)}],
      [F(1, 5), F(-2, 3), F(7, 23)], 3),
     ({0: F(-3207017, 2119105), 1: F(3134936, 1271463), 2: F(-350987, 1271463)}, True)),
    (([{0: F(2, 9), 1: F(1, 21)}, {0: F(4, 9), 1: F(2, 21)}], [F(1, 15), F(2, 15)], 3),
     ({0: F(3, 10)}, False)),
    (([{0: F(2, 9), 1: F(1, 21)}, {0: F(4, 9), 1: F(2, 21)}], [F(1, 15), F(1, 7)], 2),
     (None, False)),
    (([{1: 3, 3: F(5, 6)}, {0: F(7, 10), 2: F(-1, 14)}, {3: F(11, 12)}], [1, F(3, 35), F(-1, 30)], 4),
     ({0: F(6, 49), 1: F(34, 99), 3: F(-2, 55)}, False)),
]


@pytest.mark.parametrize("case", range(len(SOLVE_PINS)))
def test_sparse_solve_is_pinned(case):
    (rows, rhs, ncols), want = SOLVE_PINS[case]
    sol, unique = sparse_solve(rows, rhs, ncols)
    assert (sol, unique) == want
    if sol is not None:
        assert all(type(v) is Fraction for v in sol.values())


INVERT_PINS = [
    ([[F(1, 3), F(2, 5), 0], [F(-1, 7), F(1, 9), F(3, 11)], [0, F(5, 13), F(1, 15)]],
     [[F(98805, 29074), F(27027, 29074), F(-110565, 29074)],
      [F(-19305, 58148), F(-45045, 58148), F(184275, 58148)],
      [F(111375, 58148), F(259875, 58148), F(-190905, 58148)]]),
    ([[0, F(3, 7), F(1, 3)], [F(5, 6), 0, 0], [F(2, 3), F(1, 7), F(-4, 9)]],
     [[0, F(6, 5), 0], [F(28, 15), F(-28, 25), F(7, 5)], [F(3, 5), F(36, 25), F(-9, 5)]]),
]


@pytest.mark.parametrize("case", range(len(INVERT_PINS)))
def test_invert_is_pinned(case):
    m, want = (QMat.from_entries(3, 3, {(i, j): v for i, r in enumerate(x) for j, v in enumerate(r)})
               for x in INVERT_PINS[case])
    inv = _invert(m)
    assert inv == want and m * inv == QMat.identity(3)
    assert all(type(v) is Fraction for _, _, v in inv.entries())


# ---------------------------------------------------------------------------
# Properties against a dense Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def _dense_rank(rows: list[list[Fraction]]) -> int:
    """Rank by textbook Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _dense(row: dict, ncols: int) -> list:
    return [row.get(j, 0) for j in range(ncols)]


# small ints, and Fractions with large coprime denominators
entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.sampled_from([1, 3, 7, 101, 9973, 10007, 999983, 2**31 - 1])),
)


@st.composite
def sparse_systems(draw):
    """(rows, rhs, ncols): sparse rows with zero rows and (scaled) duplicates
    mixed in, and a right-hand side that often makes the system inconsistent."""
    ncols = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            copy = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from([1, -1, Fraction(2, 3), 7]))
            rows.append({j: scale * v for j, v in copy.items()})
    rows.insert(draw(st.integers(0, len(rows))), {})
    rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_rref_matches_dense_elimination(system):
    rows, _rhs, ncols = system
    rr = Rref()
    seen = []
    for row in rows:
        before = _dense_rank(seen)
        seen.append(_dense(row, ncols))
        piv = rr.add_row(row)
        assert (piv is None) == (_dense_rank(seen) == before)
    assert rr.rank == _dense_rank(seen)
    null = rr.nullspace(ncols)
    assert len(null) == ncols - rr.rank
    for den, vec in null:
        assert den > 0 and all(type(v) is int for v in vec.values())
        for row in rows:
            assert sum(v * vec.get(j, 0) for j, v in row.items()) == 0
    reduced = rr.reduced()
    for p, row in reduced.items():
        assert row[p] > 0 and all(type(v) is int and v for v in row.values()) and gcd(*row.values()) == 1
        assert not (set(row) - {p}) & set(reduced)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 6), st.integers(-6, 6), max_size=7), max_size=8))
def test_integer_rows_reduce_as_their_fractions_do(rows):
    # add_row takes rows of ints as they are, zeros included, and rows of
    # Fractions over their common denominator
    as_ints, as_fractions = Rref(), Rref()
    for row in rows:
        assert as_ints.add_row(row) == as_fractions.add_row({j: Fraction(v) for j, v in row.items()})
    assert as_ints.reduced() == as_fractions.reduced()


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_sparse_solve_matches_dense_elimination(system):
    rows, rhs, ncols = system
    coeffs = [_dense(r, ncols) for r in rows]
    rank = _dense_rank(coeffs)
    consistent = rank == _dense_rank([c + [b] for c, b in zip(coeffs, rhs)])
    sol, unique = sparse_solve(rows, rhs, ncols)
    if not consistent:
        assert (sol, unique) == (None, False)
        return
    assert sol is not None and unique == (rank == ncols)
    assert all(type(v) is Fraction and v for v in sol.values())
    for row, b in zip(rows, rhs):
        assert sum(v * sol.get(j, 0) for j, v in row.items()) == b


# ---------------------------------------------------------------------------
# QMat.__mul__ over the integers against the Fraction loop it replaced
# ---------------------------------------------------------------------------


def _fraction_product(a: QMat, b: QMat) -> QMat:
    """The product as accumulated over Fractions, inserting an entry when it
    becomes nonzero and deleting it when it cancels."""
    rows = []
    for ra in a.rows:
        acc = {}
        for k, x in ra.items():
            for j, y in b.rows[k].items():
                s = acc.get(j, Fraction(0)) + x * y
                if s:
                    acc[j] = s
                elif j in acc:
                    del acc[j]
        rows.append(acc)
    return QMat(a.nrows, b.ncols, rows)


@st.composite
def sparse_products(draw):
    """(a, b): a seeded pair of sparse rational matrices of chaining shapes,
    square or not.  Entries come from a few values of one magnitude class, so
    that many output entries cancel; ``integral`` pairs hold only ints."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m, k, n = (draw(st.integers(1, 7)) for _ in range(3))
    integral = draw(st.booleans())
    values = [1, -1, 2, -2, 3] if integral else [1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 4),
                                                 Fraction(2, 3), 5]
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))

    def matrix(nrows, ncols):
        return QMat.from_entries(nrows, ncols, {(i, j): rng.choice(values)
                                                for i in range(nrows) for j in range(ncols)
                                                if rng.random() < density})
    return matrix(m, k), matrix(k, n)


# the entry of column 0 appears, cancels and comes back after column 1's
CANCEL_AND_REINSERT = (QMat(1, 3, [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]),
                       QMat(3, 2, [{0: Fraction(1), 1: Fraction(1, 2)}, {0: Fraction(-1)}, {0: Fraction(3)}]))


@settings(max_examples=300, deadline=None)
@example(CANCEL_AND_REINSERT)
@given(sparse_products())
def test_integer_product_matches_the_fraction_loop(pair):
    a, b = pair
    got, want = a * b, _fraction_product(a, b)
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert got.rows == want.rows
    assert [list(r) for r in got.rows] == [list(r) for r in want.rows]  # same key order
    assert all(type(v) is Fraction and v for r in got.rows for v in r.values())
