"""Exact sparse linear algebra over the rationals, with a separate exact
type for signed permutation matrices.

The algebraic layer of this package makes exact statements: module
dimensions, commutant dimensions and Clifford-condition checks are never
floating-point estimates.  Exact data are integers over one positive
denominator: rationals enter that form through ``_integers`` (over the lcm
of their denominators) and reach lowest terms through ``_lowest``, and
``Fraction``s are built only when an entry is read out.  General matrices
are ``QMat``s, their integer rows stored sparsely (one dict per row) because
nearly every operator we build is a signed permutation matrix or close to
one; their products, sums and transposes run over the integers.  A matrix
with one entry +1 or -1 in every row and column is exactly a ``SignedPerm``:
products, transposes and comparisons of those are index lookups and integer
sign products, so the structural audit and the even commutant run on them
whenever every operand is monomial.

Two solvers live here, both over the integers:

* an incremental reduced-row-echelon form for nullspaces and exact linear
  solves, eliminating fraction-free with its own one-row gcd division
  (``_primitive``, the inner loop), and
* a solve over F2 for intertwiner spaces ``{X : X A_k = B_k X}`` when every
  ``A_k`` and ``B_k`` is a signed permutation of Clifford type (squares to
  +-1; any two commute or anticommute), as every operator built here is:
  modulo signs they generate F2^m, and the solve works in that group.

``inertia`` counts the signs of a symmetric form by fraction-free symmetric
elimination, on a dense integer copy that keeps its zeros in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)


def _exact(c) -> Fraction:
    """``Fraction(c)``, with what ``Fraction`` refuses (a bad string, a NaN,
    an infinity, a zero denominator) raised as an ``InputError``."""
    if isinstance(c, Fraction):
        return c
    try:
        return Fraction(c)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"{c!r} is not an exact rational number") from exc


def _integers(rows: list[dict]) -> tuple[int, list[dict[int, int]]]:
    """``(den, num)``: sparse rows of ``int`` or ``Fraction`` values as nonzero
    integers over the lcm of their denominators, zero entries dropped; in
    lowest terms, as no prime of the lcm divides every numerator."""
    den = lcm(*(v.denominator for r in rows for v in r.values()))
    return den, [{j: v.numerator * (den // v.denominator) for j, v in r.items() if v} for r in rows]


def _lowest(den: int, rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Integer rows ``rows`` over a positive ``den``, both divided by the gcd
    of ``den`` and every entry."""
    g = den
    for r in rows:
        if g == 1:
            return den, rows
        g = gcd(g, *r.values())
    return (den, rows) if g == 1 else (den // g, [{j: v // g for j, v in r.items()} for r in rows])


class QMat:
    """Sparse matrix with exact rational entries.

    Stored as integer numerators over one positive denominator in lowest
    terms: ``num`` holds one dict per row mapping column index to a nonzero
    ``int``, and entry (i, j) is ``num[i][j] / den``.  ``get``, ``entries``
    and ``rows`` read entries out as ``Fraction``s.  Instances are treated as
    immutable by every consumer; methods return new matrices.
    """

    __slots__ = ("nrows", "ncols", "den", "num")

    def __init__(self, nrows: int, ncols: int, rows: list[dict] | None = None):
        """From ``nrows`` rows ``{column: rational}``; zero entries are dropped.
        Dimensions that are not non-negative ``int``s, a row count other than
        ``nrows`` and a column that is not an ``int`` in range raise ``InputError``."""
        if type(nrows) is not int or type(ncols) is not int or nrows < 0 or ncols < 0:
            raise InputError(f"matrix dimensions must be non-negative ints, not {nrows!r} x {ncols!r}")
        rows = [{}] * nrows if rows is None else rows
        if len(rows) != nrows:
            raise InputError(f"{len(rows)} rows given for a {nrows}-row matrix")
        if any(type(j) is not int or not 0 <= j < ncols for r in rows for j in r):
            raise InputError(f"column index out of range for {ncols} columns")
        self.nrows, self.ncols = nrows, ncols
        self.den, self.num = _integers([{j: _exact(v) for j, v in r.items()} for r in rows])

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_numerators(nrows: int, ncols: int, num: list[dict[int, int]], den: int = 1) -> "QMat":
        """The matrix ``num / den`` for nonzero integer rows ``num`` and a
        positive ``den``, brought to lowest terms; ``num`` becomes the
        matrix's own."""
        m = QMat.__new__(QMat)
        m.nrows, m.ncols, (m.den, m.num) = nrows, ncols, _lowest(den, num)
        return m

    @staticmethod
    def from_vector(nrows: int, ncols: int, vec: dict[int, int], den: int = 1) -> "QMat":
        """``from_numerators`` of the rows of a flat integer vector: entry
        (i, j) is ``vec[i * ncols + j] / den``."""
        rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
        for k, v in vec.items():
            i, j = divmod(k, ncols)
            rows[i][j] = v
        return QMat.from_numerators(nrows, ncols, rows, den)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "QMat":
        return QMat(nrows, ncols)

    @staticmethod
    def identity(n: int) -> "QMat":
        return QMat.from_numerators(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def diag(values: Iterable) -> "QMat":
        vals = list(values)
        return QMat(len(vals), len(vals), [{i: v} for i, v in enumerate(vals)])

    @staticmethod
    def from_entries(nrows: int, ncols: int, entries: dict[tuple[int, int], Fraction]) -> "QMat":
        rows: list[dict[int, Fraction]] = [dict() for _ in range(nrows)]
        for (i, j), v in entries.items():
            if type(i) is not int or not 0 <= i < nrows:
                raise InputError(f"row index {i!r} out of range for {nrows} rows")
            rows[i][j] = v
        return QMat(nrows, ncols, rows)

    # -- basic queries -----------------------------------------------------
    @property
    def rows(self) -> list[dict[int, Fraction]]:
        """The rows as ``{column: Fraction}``, keys in stored order."""
        den = self.den
        return [{j: Fraction(v, den) for j, v in r.items()} for r in self.num]

    def get(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i].get(j, 0), self.den)

    def nnz(self) -> int:
        return sum(len(r) for r in self.num)

    def entries(self):
        den = self.den
        for i, r in enumerate(self.num):
            for j, v in r.items():
                yield i, j, Fraction(v, den)

    def trace(self) -> Fraction:
        return Fraction(sum(r.get(i, 0) for i, r in enumerate(self.num)), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMat):
            return NotImplemented
        return ((self.nrows, self.ncols, self.den) == (other.nrows, other.ncols, other.den)
                and self.num == other.num)

    def __repr__(self):
        return f"QMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "QMat") -> "QMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InputError("matrix size mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        rows = []
        for ra, rb in zip(self.num, other.num):
            row = {j: fa * v for j, v in ra.items()}
            for j, v in rb.items():
                s = row.get(j, 0) + v * fb
                if s:
                    row[j] = s
                elif j in row:
                    del row[j]
            rows.append(row)
        return QMat.from_numerators(self.nrows, self.ncols, rows, den)

    def __sub__(self, other: "QMat") -> "QMat":
        return self + (-other)

    def __neg__(self) -> "QMat":
        return QMat.from_numerators(self.nrows, self.ncols, [{j: -v for j, v in r.items()} for r in self.num],
                                    self.den)

    def scale(self, c) -> "QMat":
        c = _exact(c)
        if not c:
            return QMat.zeros(self.nrows, self.ncols)
        p = c.numerator
        return QMat.from_numerators(self.nrows, self.ncols, [{j: p * v for j, v in r.items()} for r in self.num],
                                    self.den * c.denominator)

    def __mul__(self, other):
        """Matrix product over the integers, or ``scale`` by a scalar.  An
        entry that cancels leaves its row's keys and comes back at the end,
        as in a ``Fraction`` accumulation."""
        if isinstance(other, QMat):
            if self.ncols != other.nrows:
                raise InputError("matrix size mismatch")
            rows_b = other.num
            rows = []
            for ra in self.num:
                acc: dict[int, int] = {}
                for k, a in ra.items():
                    for j, b in rows_b[k].items():
                        s = acc.get(j, 0) + a * b
                        if s:
                            acc[j] = s
                        elif j in acc:
                            del acc[j]
                rows.append(acc)
            return QMat.from_numerators(self.nrows, other.ncols, rows, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self) -> "QMat":
        rows: list[dict[int, int]] = [dict() for _ in range(self.ncols)]
        for i, r in enumerate(self.num):
            for j, v in r.items():
                rows[j][i] = v
        return QMat.from_numerators(self.ncols, self.nrows, rows, self.den)

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        return [sum((v * vec[j] for j, v in r.items()), ZERO) / self.den for r in self.num]


class SignedPerm:
    """Exact signed permutation matrix: column j holds ``signs[j]`` (+1 or
    -1) in row ``perm[j]``, so basis vector j goes to ``signs[j] e_perm[j]``.

    It equals the ``QMat`` it was made from (``of``) entry for entry, and its
    operations give the same results as ``QMat``'s on equal inputs: a product
    is one index lookup and one sign product per column.  Instances are
    immutable, like ``QMat``s.
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm: list[int], signs: list[int]):
        self.perm = perm
        self.signs = signs

    @property
    def nrows(self) -> int:
        return len(self.perm)

    ncols = nrows

    def entries(self):
        """(row, column, sign) for each entry, in column order."""
        return ((i, j, s) for j, (i, s) in enumerate(zip(self.perm, self.signs)))

    @staticmethod
    def of(m) -> "SignedPerm | None":
        """``m`` as a signed permutation, or None unless ``m`` is square with
        exactly one entry, +1 or -1, in every row and column."""
        if isinstance(m, SignedPerm):
            return m
        if m.nrows != m.ncols or m.den != 1:
            return None
        perm = [-1] * m.ncols
        signs = [0] * m.ncols
        for i, r in enumerate(m.num):
            if len(r) != 1:
                return None
            ((j, v),) = r.items()
            if perm[j] != -1 or (v != 1 and v != -1):
                return None
            perm[j], signs[j] = i, v
        # n rows with one entry each in distinct columns cover all n columns
        return SignedPerm(perm, signs)

    @staticmethod
    def from_entries(nrows: int, ncols: int, entries: dict[tuple[int, int], int]) -> "SignedPerm":
        """``QMat.from_entries`` for entries {(row, column): +1 or -1}, one per column."""
        perm, signs = [0] * ncols, [0] * ncols
        for (i, j), s in entries.items():
            perm[j], signs[j] = i, s
        return SignedPerm(perm, signs)

    def to_qmat(self) -> QMat:
        rows: list[dict[int, int]] = [{} for _ in self.perm]
        for i, j, s in self.entries():
            rows[i][j] = s
        return QMat.from_numerators(len(rows), len(rows), rows)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(list(range(n)), [1] * n)

    @staticmethod
    def diag(values: Iterable) -> "SignedPerm":
        signs = list(values)
        if any(v != 1 and v != -1 for v in signs):
            raise InputError("a signed permutation has diagonal entries +1 or -1 only")
        return SignedPerm(list(range(len(signs))), [int(v) for v in signs])

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        if len(self.perm) != len(other.perm):
            raise InputError("matrix size mismatch")
        perm, signs = self.perm, self.signs
        return SignedPerm([perm[k] for k in other.perm],
                          [s * signs[k] for k, s in zip(other.perm, other.signs)])

    def __neg__(self) -> "SignedPerm":
        return SignedPerm(self.perm, [-s for s in self.signs])

    def scale(self, c) -> "SignedPerm":
        if c == 1:
            return self
        if c == -1:
            return -self
        raise InputError("a signed permutation scales by +1 or -1 only")

    def transpose(self) -> "SignedPerm":
        perm = [0] * len(self.perm)
        signs = [0] * len(self.perm)
        for j, (i, s) in enumerate(zip(self.perm, self.signs)):
            perm[i] = j
            signs[i] = s
        return SignedPerm(perm, signs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPerm):
            return NotImplemented
        return self.perm == other.perm and self.signs == other.signs

    def __repr__(self):
        return f"SignedPerm({len(self.perm)}x{len(self.perm)})"


# ---------------------------------------------------------------------------
# Incremental RREF, nullspace and exact solve
# ---------------------------------------------------------------------------


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


class Rref:
    """Incremental reduced row echelon form of rational rows, eliminated over
    the integers: fraction-free elimination (Bareiss, Math. Comp. 22, 1968),
    with each row divided by the gcd of its entries in place of Bareiss's
    exact division by the previous pivot.

    Rows are sparse dicts ``{column: value}`` with ``int`` or ``Fraction``
    values.  Each pivot row is kept as a primitive integer vector whose pivot
    coefficient is positive, so the elimination loops never build a
    ``Fraction``.  The pivot of a new row is the smallest column left after
    reducing it by the existing pivot rows, and the new pivot column is
    eliminated from the older rows at once, so the form stays reduced.  A
    reduced form is unique for its pivot set; ``reduced`` and ``nullspace``
    read it out as integer rows.
    """

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> primitive integer row
        # which pivot rows currently contain a given column (for eager reduction)
        self._col_uses: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """The primitive integer row left after eliminating every pivot column
        from ``row``.  Pivot rows are zero at every other pivot column, so one
        common multiplier and one subtraction per pivot row suffice."""
        rows = self._rows
        hits = [c for c in row if c in rows]
        if not hits:
            return row
        mult = 1
        for c in hits:
            p = rows[c][c]
            mult = lcm(mult, p // gcd(row[c], p))
        if mult != 1:
            row = {j: mult * v for j, v in row.items()}
        for c in hits:
            prow = rows[c]
            f = row.pop(c) // prow[c]
            for j, v in prow.items():
                if j == c:
                    continue
                s = row.get(j, 0) - f * v
                if s:
                    row[j] = s
                elif j in row:
                    del row[j]
        return _primitive(row)

    def add_row(self, row: dict[int, Fraction | int]) -> int | None:
        """Reduce ``row`` and install it as a new pivot; returns the pivot
        column or None if the row was dependent."""
        ints = _integers([row])[1][0] if any(type(v) is not int for v in row.values()) else row
        return self._add(_primitive({j: v for j, v in ints.items() if v}))

    def _add(self, row: dict[int, int]) -> int | None:
        """``add_row`` for a primitive row of nonzero ``int``s."""
        row = self._reduce(row)
        if not row:
            return None
        piv = min(row)
        pn = row[piv]
        if pn < 0:
            row = {j: -v for j, v in row.items()}
            pn = -pn
        rows, uses = self._rows, self._col_uses
        # eliminate the new pivot column from existing pivot rows:
        # prow <- (pn/g) prow - (b/g) row, g = gcd(b, pn), keeps prow's pivot positive
        for p in list(uses.get(piv, ())):
            prow = rows[p]
            b = prow.pop(piv)
            uses[piv].discard(p)
            g = gcd(b, pn)
            m, f = pn // g, b // g
            if m != 1:
                prow = {j: m * v for j, v in prow.items()}
            for j, v in row.items():
                if j == piv:
                    continue
                s = prow.get(j, 0) - f * v
                if s:
                    if j not in prow:
                        uses.setdefault(j, set()).add(p)
                    prow[j] = s
                elif j in prow:
                    del prow[j]
                    uses[j].discard(p)
            rows[p] = _primitive(prow)
        rows[piv] = row
        for j in row:
            if j != piv:
                uses.setdefault(j, set()).add(piv)
        return piv

    def reduced(self) -> dict[int, dict[int, int]]:
        """The reduced rows, pivot column -> primitive integer row with a
        positive entry p at the pivot (the reduced row is that row over p), in
        the order the pivots were found."""
        return {p: dict(row) for p, row in self._rows.items()}

    def nullspace(self, ncols: int) -> list[tuple[int, dict[int, int]]]:
        """A basis of the vectors that every row annihilates, one per free
        column f in increasing order: 1 at f and -row[f] / row[p] at each
        pivot p, as ``(den, {column: int})``, the vector over a positive
        ``den``."""
        rows = self._rows
        basis = []
        for f in (c for c in range(ncols) if c not in rows):
            hits = [(p, row[f], row[p]) for p, row in rows.items() if f in row]
            den = lcm(*(q for _, _, q in hits))
            vec = {f: den}
            for p, v, q in hits:
                vec[p] = -v * (den // q)
            basis.append((den, vec))
        return basis


def inertia(gram: list[list]) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a symmetric form with ``int`` or
    ``Fraction`` entries, by fraction-free symmetric elimination (Sylvester's
    law of inertia).  The form is scaled to integers by the lcm of its
    denominators; a pivot d then replaces the rest G by |d| G - sign(d) g g^T
    (g the pivot column), |d| times its Schur complement, and the rest is
    divided by the gcd of its entries.  Positive scalings keep the inertia."""
    den = lcm(*(v.denominator for row in gram for v in row))
    g = [[v.numerator * (den // v.denominator) for v in row] for row in gram]
    live = list(range(len(g)))
    pos = neg = 0
    while live:
        piv = next((i for i in live if g[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in live for j in live if g[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            # the congruence e_piv -> e_piv + e_j puts 2 g[piv][j] != 0 on the diagonal
            for t in live:
                g[piv][t] += g[j][t]
            for t in live:
                g[t][piv] += g[t][j]
        d = g[piv][piv]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        live.remove(piv)
        m, prow = abs(d), g[piv]
        common = 0
        for a in live:
            row = g[a]
            f = row[piv] if d > 0 else -row[piv]
            for b in live:
                row[b] = v = m * row[b] - f * prow[b]
                common = gcd(common, v)
        if common > 1:
            for a in live:
                row = g[a]
                for b in live:
                    row[b] //= common
    return pos, neg, len(live)


def sparse_solve(rows: list[dict[int, Fraction]], rhs: list, ncols: int):
    """Solve the linear system given by ``rows`` (each ``sum coeff*x = rhs``).

    Returns ``(solution_dict, unique)`` with free variables set to zero, or
    ``(None, False)`` when the system is inconsistent.
    """
    aug = ncols  # virtual column holding -rhs
    rr = Rref()
    for row, b in zip(rows, rhs):
        r = dict(row)
        fb = _exact(b)
        if fb:
            r[aug] = -fb
        rr.add_row(r)
    reduced = rr.reduced()
    if aug in reduced:
        return None, False
    sol = {}
    for p, row in reduced.items():
        v = row.get(aug)
        if v:
            sol[p] = Fraction(-v, row[p])
    unique = rr.rank == ncols
    return sol, unique


# ---------------------------------------------------------------------------
# Signed-permutation intertwiner solver
# ---------------------------------------------------------------------------


def _clifford_kind(perms: list[SignedPerm]) -> list[tuple[bool, list[bool]]] | None:
    """Per matrix: whether it squares to +1 (else -1) and which earlier ones
    it anticommutes with; None unless the matrices are of Clifford type.
    Products act on the points +e_j (j) and -e_j (j + d)."""
    kind, maps = [], []
    for a in perms:
        d = len(a.perm)
        image = [i if s > 0 else i + d for i, s in zip(a.perm, a.signs)]
        m = image + [i + d if i < d else i - d for i in image]
        sq = [m[x] for x in image]
        if sq != list(range(d)) and sq != list(range(d, 2 * d)):
            return None
        anti = []
        for b in maps:
            ab = [m[x] for x in b[:d]]
            anti.append(ab != [b[x] for x in image])
            if anti[-1] and ab != [b[x] for x in m[d:]]:
                return None
        maps.append(m)
        kind.append((sq[0] == 0, anti))
    return kind


def signed_perm_intertwiners(pairs: list[tuple], d_in: int, d_out: int) -> list[QMat] | None:
    """Basis of ``{X : X A_k = B_k X}`` (``X`` is ``d_out x d_in``) for
    ``QMat``s or ``SignedPerm``s, or None for the RREF solve unless each side
    is of Clifford type.  Then ``X -> B^w X (A^w)^-1``, ``A^w`` the product
    of the ``A_k`` for the bits of ``w``, is an action of F2^m on the entries
    of X up to sign (Dehaene and De Moor, Phys. Rev. A 68, 2003), unless the
    squares or commutation signs of the sides differ, when X = 0.  A search
    from each row orbit's smallest row labels its rows with words; the words
    on non-tree edges span the root row's stabiliser (Schreier's lemma),
    reduced to at most m masks.  Each sign-consistent column orbit of the
    root row under them is one element, +1 at its smallest flat index, filled
    along the search tree; elements come in the order of that index.  Cost
    O(m^2 d + output), against O(m d_out d_in) for visiting every entry.
    """
    a_perms = [SignedPerm.of(a) for a, _ in pairs]
    b_perms = [pa if b is a else SignedPerm.of(b) for pa, (a, b) in zip(a_perms, pairs)]
    if any(p is None for p in a_perms + b_perms):
        return None
    kind = _clifford_kind(a_perms)
    b_kind = kind if b_perms == a_perms else _clifford_kind(b_perms)
    if kind is None or b_kind is None:
        return None
    if kind != b_kind:
        return []

    word = [-1] * d_out  # the word taking its orbit's root to a row, -1 = unseen
    basis = []
    for root in range(d_out):
        if word[root] >= 0:
            continue
        word[root] = 0
        tree, edges, loops = [root], [], set()  # edges: (row, parent, k) in search order
        for p in tree:  # the list grows while it is walked
            for k, b in enumerate(b_perms):
                q, w = b.perm[p], word[p] ^ 1 << k
                if word[q] < 0:
                    word[q] = w
                    tree.append(q)
                    edges.append((q, p, k))
                elif w != word[q]:
                    loops.add(w ^ word[q])
        stab: dict[int, int] = {}  # the stabiliser of root in echelon form, by top bit
        for z in loops:
            while z.bit_length() in stab:
                z ^= stab[z.bit_length()]
            if z:
                stab[z.bit_length()] = z
        moves = []  # per mask w: where each column goes, with the sign of B^w at root
        for z in stab.values():
            a_w, b_w = SignedPerm.identity(d_in), SignedPerm.identity(d_out)
            for k in (k for k in range(len(pairs)) if z >> k & 1):
                a_w, b_w = a_perms[k] * a_w, b_perms[k] * b_w
            moves.append((a_w.perm, [s * b_w.signs[root] for s in a_w.signs]))
        slot = [0] * d_in  # sign of a column relative to its orbit's start, 0 = unvisited
        for start in range(d_in):
            if slot[start]:
                continue
            slot[start], orbit, live = 1, [start], True
            for c in orbit:
                for perm, signs in moves:
                    x, t = perm[c], slot[c] * signs[c]
                    if not slot[x]:
                        slot[x] = t
                        orbit.append(x)
                    elif slot[x] != t:
                        live = False
            if not live:
                continue
            rows: list[dict[int, int]] = [{} for _ in range(d_out)]
            rows[root] = {c: slot[c] for c in sorted(orbit)}
            for q, p, k in edges:
                a, t = a_perms[k], b_perms[k].signs[p]
                rows[q] = dict(sorted((a.perm[c], s * t * a.signs[c]) for c, s in rows[p].items()))
            basis.append(QMat.from_numerators(d_out, d_in, rows))
    return basis


def intertwiner_space(pairs: list[tuple], d_in: int, d_out: int) -> list[QMat]:
    """Exact basis of ``{X : X A_k = B_k X}`` for arbitrary rational matrices.

    Uses the F2 solve of ``signed_perm_intertwiners`` when every matrix is a
    signed permutation of Clifford type, otherwise reduces the (sparse)
    commutation constraints directly, built as integer rows.  They go in
    entry by entry, every pair's constraint on entry (i, j) before the next
    entry's: the rows added together then share most of their columns, which
    keeps the pivot rows short.  The reduced form, and so the basis, does not
    depend on the order.
    """
    fast = signed_perm_intertwiners(pairs, d_in, d_out)
    if fast is not None:
        return fast

    sides = []
    for a, b in pairs:
        a, b = (m.to_qmat() if isinstance(m, SignedPerm) else m for m in (a, b))
        # scale the pair by the lcm of its denominators: same constraints, integer rows
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        sides.append(([{k: v * fa for k, v in r.items()} for r in a.transpose().num],
                      [{k: v * fb for k, v in r.items()} for r in b.num]))
    rr = Rref()
    # constraint entry (i,j): sum_k X[i,k] A[k,j] - sum_k B[i,k] X[k,j] = 0
    for i in range(d_out):
        base = i * d_in
        for j in range(d_in):
            for acols, brows in sides:
                row: dict[int, int] = {base + k: v for k, v in acols[j].items()}
                for k, v in brows[i].items():
                    key = k * d_in + j
                    s = row.get(key, 0) - v
                    if s:
                        row[key] = s
                    elif key in row:
                        del row[key]
                if row:
                    rr._add(_primitive(row))
    return [QMat.from_vector(d_out, d_in, vec, den) for den, vec in rr.nullspace(d_out * d_in)]
