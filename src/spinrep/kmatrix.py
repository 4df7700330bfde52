"""Commutant (intertwiner) algebras: their exact bases and their names.

A matrix over K is stored realified, as a ``QMat`` or ``SignedPerm`` over
the rationals in the K-blocked layout of ``spinrep.recipe.GradedSpace``; the
one-slot tensor operators on that layout live in ``spinrep.recipe``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import InputError
from .linalg import QMat, Rref, _integers, inertia, intertwiner_space
from .structure import FIELD_DIM


class Commutant:
    """Intertwiner algebra of a generator set: exact basis plus its name."""

    __slots__ = ("real_dimension", "division_algebra", "basis")

    def __init__(self, real_dimension: int, division_algebra: str, basis: list[QMat]):
        self.real_dimension = real_dimension
        self.division_algebra = division_algebra
        self.basis = basis


def _simple_label(k: int, pos: int, neg: int) -> tuple[int, int, str] | None:
    """(k, field rank, name) of the M_n(D) with real dimension k whose trace
    form tr(XY) has inertia (pos, neg), or None when there is none."""
    for rank, (field, dim) in enumerate(FIELD_DIM.items()):
        n = isqrt(k // dim)
        want = {"R": n * (n + 1) // 2, "C": n * n, "H": n * (2 * n - 1)}[field]
        if dim * n * n == k and (pos, neg) == (want, k - want):
            return k, rank, field if n == 1 else f"M{n}({field})"
    return None


def classify_commutant(basis: list[QMat]) -> str:
    """Exact name of the real algebra spanned by ``basis`` (closed under
    products and holding the identity, as a commutant is).

    The name follows from three exact facts.  The trace form tr(XY) is
    nondegenerate exactly when the algebra is semisimple.  Its center is then
    R (one simple summand), C (one ``Mn(C)``) or R+R, which the central
    idempotents (1 +- z)/2 split into two simple summands.  A simple summand
    M_n(D) of real dimension k = n^2 dim D is fixed by the inertia of the
    trace form: (n(n+1)/2, n(n-1)/2) for R, (n^2, n^2) for C and
    (n(2n-1), n(2n+1)) for H.  Anything else, or a split that needs an
    irrational idempotent, is named ``A(k)``.

    It runs over the integers, on the numerators N_t of the basis, which
    span the same algebra.  Coordinates are read, not solved: each N_t gets
    an entry at which no other element is nonzero (the first entry of an
    element of the signed-permutation solve, the free variable of a
    nullspace vector); other bases are brought to reduced echelon form
    first.  With L the lcm of those entries, L times the structure constants
    are integers, and so are the forms built on them, each a positive
    multiple of its rational counterpart, with the same inertia.
    """
    k = len(basis)
    undecided = f"A({k})"
    mats = [b.num for b in basis]
    at: dict[tuple[int, int], list[tuple[int, int]]] = {}  # entry -> [(element, value)]
    for t, b in enumerate(mats):
        for i, row in enumerate(b):
            for j, v in row.items():
                at.setdefault((i, j), []).append((t, v))
    keys = [next(((i, j) for i, row in enumerate(b) for j in row if len(at[i, j]) == 1), None) for b in mats]
    if None in keys:
        rr = Rref()
        nrows, ncols = basis[0].nrows, basis[0].ncols
        for b in mats:
            rr.add_row({i * ncols + j: v for i, row in enumerate(b) for j, v in row.items()})
        return classify_commutant([QMat.from_vector(nrows, ncols, row, row[p]) for p, row in rr.reduced().items()])
    scale = lcm(*(at[key][0][1] for key in keys))
    # mult[i][j]: the coordinates {t: value} of scale N_i N_j, read at keys[t]
    mult: list[list[dict[int, int]]] = [[{} for _ in range(k)] for _ in range(k)]
    for t, (r, c) in enumerate(keys):
        f = scale // at[r, c][0][1]
        for i, bi in enumerate(mats):
            prods = mult[i]
            for m, x in bi[r].items():
                xf = x * f
                for j, y in at.get((m, c), ()):
                    prods[j][t] = prods[j].get(t, 0) + xf * y
    traces = [sum(row.get(i, 0) for i, row in enumerate(b)) for b in mats]

    def gram(w: list[int]) -> list[list[int]]:
        """The form (x, y) -> w(scale xy) on basis pairs, for a linear functional w."""
        return [[sum(v * w[t] for t, v in mult[i][j].items()) for j in range(k)] for i in range(k)]

    form = gram(traces)
    pos, neg, zero = inertia(form)
    if zero:
        return undecided
    rows: dict[tuple[int, int], dict[int, int]] = {}  # x central: sum_t x_t [N_t, N_j] = 0
    for t in range(k):
        for j in range(k):
            for u in mult[t][j].keys() | mult[j][t].keys():
                v = mult[t][j].get(u, 0) - mult[j][t].get(u, 0)
                if v:
                    rows.setdefault((j, u), {})[t] = v
    rr = Rref()
    for row in rows.values():
        rr.add_row(row)
    center = rr.nullspace(k)
    simple = _simple_label(k, pos, neg)
    if len(center) == 1:
        return simple[2] if simple else undecided
    if len(center) != 2:
        return undecided
    # one: the coordinates of scale I; w: a central element with trace 0, a
    # positive multiple of z - (tr z / tr 1) 1, and w^2 = alpha + beta w
    one = [scale // at[i, j][0][1] if i == j else 0 for i, j in keys]
    tau = sum(a * b for a, b in zip(one, traces))
    for _, vec in center:
        z = [vec.get(t, 0) for t in range(k)]
        tz = sum(a * b for a, b in zip(z, traces))
        w = [tau * a - tz * b for a, b in zip(z, one)]
        if any(w):
            break
    w2 = [0] * k  # the coordinates of scale w^2
    for i, j in ((i, j) for i in range(k) for j in range(k) if w[i] and w[j]):
        for t, v in mult[i][j].items():
            w2[t] += w[i] * w[j] * v
    # scale w^2 = alpha one + scale beta w, with tr(scale w^2) = alpha tau
    alpha = Fraction(sum(a * b for a, b in zip(w2, traces)), tau)
    t = next(t for t in range(k) if w[t])
    beta = (w2[t] - alpha * one[t]) / (w[t] * scale)
    disc = beta * beta + 4 * alpha
    if disc < 0:  # center C
        return simple[2] if simple else undecided
    root = Fraction(isqrt(disc.numerator), isqrt(disc.denominator))
    if not root or root * root != disc:  # not semisimple, or the idempotents are irrational
        return undecided
    # e = (w - lambda_-) / (lambda_+ - lambda_-), a central idempotent; its summand
    # carries the trace form x, y -> tr(e x y), a positive multiple of (e' form)(xy)
    # for e' = scale w - lambda_- one, scale (lambda_+ - lambda_-) e
    low = (beta - root) / 2
    _, (e,) = _integers([{i: scale * a - low * b for i, (a, b) in enumerate(zip(w, one))}])
    pos1, neg1, _ = inertia(gram([sum(v * form[i][s] for i, v in e.items()) for s in range(k)]))
    parts = [_simple_label(pos1 + neg1, pos1, neg1), _simple_label(k - pos1 - neg1, pos - pos1, neg - neg1)]
    if None in parts:
        return undecided
    return "+".join(name for _, _, name in sorted(parts))


def commutant(generators: list[QMat], size: int) -> Commutant:
    """Exact basis and name of {X : X G = G X for all generators}.

    The name is decided exactly by ``classify_commutant`` from the
    dimension, the center and the inertia of the trace form: ``R``, ``C``,
    ``H``, ``Mn(D)`` or a ``+``-sum of these, and ``A(k)`` for an algebra it
    cannot name (not semisimple, or not split over the rationals).
    """
    if not generators:
        raise InputError("commutant of an empty generator list is undefined")
    for g in generators:
        if g.nrows != size or g.ncols != size:
            raise InputError("generator size mismatch")
    basis = intertwiner_space([(g, g) for g in generators], size, size)
    tag = classify_commutant(basis) if basis else "0"
    return Commutant(len(basis), tag, basis)
