"""The integer-over-denominator kernel of ``spinrep.linalg``: ``_integers``
takes rows of ``int`` and ``Fraction`` values to integers over one
denominator, and ``_lowest`` brings integer rows over a denominator to lowest
terms.

Two sites that built their matrices from ``Fraction`` entries now build them
from integers: ``recipe._submatrix`` and ``modules._sqrt_gens``.  Each is
pinned against a frozen copy of its ``Fraction``-built version, matrix for
matrix and in the key order of every numerator row.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinrep import modules, recipe
from spinrep.linalg import QMat, SignedPerm, _integers, _lowest
from spinrep.spin import spin_action, spin_lift
from spinrep.structure import _monomial

VALUES = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**30),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)
ROWS = st.lists(st.dictionaries(st.integers(0, 9), VALUES, max_size=7), max_size=6)


@settings(max_examples=300, deadline=None)
@given(ROWS)
@example([])
@example([{}, {3: 0}])
@example([{0: Fraction(1, 6), 2: Fraction(-5, 4), 1: 0}, {5: 7}])
def test_integers_put_the_rows_over_one_lowest_denominator(rows):
    den, num = _integers(rows)
    assert type(den) is int and den > 0 and len(num) == len(rows)
    for row, ints in zip(rows, num):
        # zeros dropped, the other keys in their order, each entry its Fraction
        assert list(ints) == [j for j, v in row.items() if v]
        assert all(type(v) is int and v and Fraction(v, den) == row[j] for j, v in ints.items())
    # lowest terms already
    assert _lowest(den, num) == (den, num)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**20),
       st.lists(st.dictionaries(st.integers(0, 9), st.integers(-10**20, 10**20).filter(bool), max_size=7),
                max_size=6),
       st.integers(1, 10**6))
@example(1, [], 1)
@example(4, [{}, {0: 6}], 1)
@example(3, [{2: 9, 0: -6}], 5)
def test_lowest_divides_out_every_common_factor(den, rows, common):
    # a common factor of the denominator and every entry, most of the time
    den, rows = den * common, [{j: v * common for j, v in r.items()} for r in rows]
    low, low_rows = _lowest(den, rows)
    assert low > 0 and gcd(low, *(v for r in low_rows for v in r.values())) == 1
    assert [list(r) for r in low_rows] == [list(r) for r in rows]
    for row, low_row in zip(rows, low_rows):
        assert all(type(v) is int and Fraction(v, low) == Fraction(row[j], den) for j, v in low_row.items())


# ---------------------------------------------------------------------------
# Pins against the Fraction-built versions
# ---------------------------------------------------------------------------


def _same(got, want) -> bool:
    """Equal matrices; for QMats also the same key order in every row."""
    if type(got) is not type(want) or got != want:
        return False
    return not isinstance(got, QMat) or [list(r) for r in got.num] == [list(r) for r in want.num]


def frozen_submatrix(m, idxs):
    """``recipe._submatrix`` as it read a QMat's entries out as Fractions."""
    pos = {v: t for t, v in enumerate(idxs)}
    if isinstance(m, SignedPerm):
        return SignedPerm([pos[m.perm[j]] for j in idxs], [m.signs[j] for j in idxs])
    entries = {}
    for i, j, v in m.entries():
        if i in pos and j in pos:
            entries[(pos[i], pos[j])] = v
    return QMat.from_entries(len(idxs), len(idxs), entries)


def _dense(d: int, rng: random.Random, denominators) -> QMat:
    rows = [{j: Fraction(rng.randint(-9, 9), rng.choice(denominators)) for j in rng.sample(range(d), d - 1)}
            for _ in range(d)]
    return QMat(d, d, rows)


@pytest.mark.parametrize("seed", range(8))
def test_submatrix_matches_its_fraction_built_version(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 9)
    m = _dense(d, rng, [1, 2, 3, 4, 7, 12, 10**15])
    for idxs in (sorted(rng.sample(range(d), rng.randint(1, d))), rng.sample(range(d), d), []):
        assert _same(recipe._submatrix(m, idxs), frozen_submatrix(m, idxs))


def test_submatrix_drops_the_denominator_of_the_dropped_entries():
    # only row and column 2 carry thirds: the block on 0, 1, 3 is over 1
    m = QMat(4, 4, [{0: 2, 2: Fraction(1, 3), 3: -1}, {1: 5, 3: 4}, {0: Fraction(2, 3), 2: 1}, {3: 6, 2: 7}])
    assert m.den == 3
    block = recipe._submatrix(m, [0, 1, 3])
    assert block.den == 1 and block.num == [{0: 2, 2: -1}, {1: 5, 2: 4}, {2: 6}]
    assert _same(block, frozen_submatrix(m, [0, 1, 3]))


@pytest.mark.parametrize("n", [4, 8])
def test_submatrix_of_a_spin_action_matches_its_fraction_built_version(n):
    # the dense phi of verify_spin_coordinate_system, on its +1 volume summand
    module = recipe.assemble_euclidean(n)
    plus = recipe.even_summand(module)
    assert plus is not None
    rot = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rot[0][0], rot[0][1], rot[1][0], rot[1][1] = Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5)
    rot[2][2], rot[2][3], rot[3][2], rot[3][3] = Fraction(5, 13), Fraction(12, 13), Fraction(-12, 13), Fraction(5, 13)
    phi = spin_action(module, spin_lift(rot))
    assert phi.den > 1
    assert _same(recipe._submatrix(phi, plus), frozen_submatrix(phi, plus))


def frozen_sqrt_gens(n: int):
    """``modules._sqrt_gens`` as it built ``span`` and ``read`` from Fraction
    entries."""
    acts = [recipe._exterior_action(n, j, -1) for j in range(n)]
    vol = (1 << n) - 1
    if modules._volume_partner(acts, vol)[0] < 0:
        return acts
    eps = -1 if n % 2 else 1
    key = sorted(
        (x for x in range(vol + 1) if 2 * x.bit_count() < n or 2 * x.bit_count() == n and x & 1),
        key=lambda x: (x.bit_count(), x),
    )
    span, read = {}, {}
    for k, x in enumerate(key):
        weight = Fraction(1) if 2 * x.bit_count() == n else Fraction(1, 2)
        sign, partner = modules._volume_partner(acts, x)
        span[(x, k)], span[(partner, k)] = weight, eps * sign * weight
        read[(k, x)] = 1 / weight
    span = QMat.from_entries(vol + 1, len(key), span)
    read = QMat.from_entries(len(key), vol + 1, read)
    halves = [read * (a.to_qmat() * span) for a in acts]
    return _monomial(halves, len(key)) or halves


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sqrt_gens_match_their_fraction_built_version(n):
    got, want = modules._sqrt_gens(n), frozen_sqrt_gens(n)
    assert len(got) == len(want) == n
    assert all(_same(g, w) for g, w in zip(got, want))
