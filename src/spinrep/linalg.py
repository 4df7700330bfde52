"""Exact sparse linear algebra over the rationals, with a separate exact
type for signed permutation matrices.

The algebraic layer of this package makes exact statements: module
dimensions, commutant dimensions and Clifford-condition checks are never
floating-point estimates.  General matrices are ``QMat``s over ``Fraction``s,
stored sparsely (one dict per row) because nearly every operator we build is
a signed permutation matrix or close to one, and the few that are not stay
very sparse.  A matrix with one entry +1 or -1 in every row and column is
exactly a ``SignedPerm``: products, transposes and comparisons of those are
index lookups and integer sign products, so the structural audit and the
even commutant run on them whenever every operand is monomial.

Two solvers live here:

* an incremental reduced-row-echelon form for nullspaces and exact linear
  solves, which takes Fraction or int rows and returns Fractions but
  eliminates over the integers (no Fraction is built inside the
  elimination), and
* an orbit walk for intertwiner spaces ``{X : X A_k = B_k X}`` when every
  ``A_k`` and ``B_k`` is a signed permutation.  In that case each constraint
  relates exactly two entries of ``X`` up to sign, so the solution space is
  one basis element per sign-consistent orbit of entries, found in one pass
  over the d_out * d_in entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class QMat:
    """Sparse matrix with exact rational entries.

    Rows are dicts mapping column index to a nonzero Fraction.  Instances are
    treated as immutable by every consumer; methods return new matrices.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: list[dict[int, Fraction]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zeros(nrows: int, ncols: int) -> "QMat":
        return QMat(nrows, ncols)

    @staticmethod
    def identity(n: int) -> "QMat":
        return QMat(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def diag(values: Iterable) -> "QMat":
        vals = [_frac(v) for v in values]
        rows = [({i: v} if v else {}) for i, v in enumerate(vals)]
        return QMat(len(vals), len(vals), rows)

    @staticmethod
    def from_dense(dense: list[list]) -> "QMat":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        rows = []
        for r in dense:
            row = {}
            for j, v in enumerate(r):
                fv = _frac(v)
                if fv:
                    row[j] = fv
            rows.append(row)
        return QMat(nrows, ncols, rows)

    @staticmethod
    def from_entries(nrows: int, ncols: int, entries: dict[tuple[int, int], Fraction]) -> "QMat":
        rows: list[dict[int, Fraction]] = [dict() for _ in range(nrows)]
        for (i, j), v in entries.items():
            fv = _frac(v)
            if fv:
                rows[i][j] = fv
        return QMat(nrows, ncols, rows)

    # -- basic queries -----------------------------------------------------
    def get(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, ZERO)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def entries(self):
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                yield i, j, v

    def trace(self) -> Fraction:
        return sum((r[i] for i, r in enumerate(self.rows) if i in r), ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __repr__(self):
        return f"QMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "QMat") -> "QMat":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
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
        return QMat(self.nrows, self.ncols, rows)

    def __sub__(self, other: "QMat") -> "QMat":
        return self + (-other)

    def __neg__(self) -> "QMat":
        return QMat(self.nrows, self.ncols, [{j: -v for j, v in r.items()} for r in self.rows])

    def scale(self, c) -> "QMat":
        c = _frac(c)
        if not c:
            return QMat.zeros(self.nrows, self.ncols)
        return QMat(self.nrows, self.ncols, [{j: c * v for j, v in r.items()} for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, QMat):
            assert self.ncols == other.nrows, "matrix size mismatch"
            rows = []
            orows = other.rows
            for ra in self.rows:
                acc: dict[int, Fraction] = {}
                for k, a in ra.items():
                    for j, b in orows[k].items():
                        s = acc.get(j, ZERO) + a * b
                        if s:
                            acc[j] = s
                        elif j in acc:
                            del acc[j]
                rows.append(acc)
            return QMat(self.nrows, other.ncols, rows)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self) -> "QMat":
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return QMat(self.ncols, self.nrows, rows)

    def apply(self, vec: list[Fraction]) -> list[Fraction]:
        out = []
        for r in self.rows:
            out.append(sum((v * vec[j] for j, v in r.items()), ZERO))
        return out


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

    @staticmethod
    def of(m) -> "SignedPerm | None":
        """``m`` as a signed permutation, or None unless ``m`` is square with
        exactly one entry, +1 or -1, in every row and column."""
        if isinstance(m, SignedPerm):
            return m
        if m.nrows != m.ncols:
            return None
        perm = [-1] * m.ncols
        signs = [0] * m.ncols
        for i, r in enumerate(m.rows):
            if len(r) != 1:
                return None
            ((j, v),) = r.items()
            if perm[j] != -1:
                return None
            if v == 1:
                signs[j] = 1
            elif v == -1:
                signs[j] = -1
            else:
                return None
            perm[j] = i
        # n rows with one entry each in distinct columns cover all n columns
        return SignedPerm(perm, signs)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(list(range(n)), [1] * n)

    @staticmethod
    def diag(values: Iterable) -> "SignedPerm":
        signs = [int(v) for v in values]
        if any(v != 1 and v != -1 for v in signs):
            raise ValueError("a signed permutation has diagonal entries +1 or -1 only")
        return SignedPerm(list(range(len(signs))), signs)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        assert len(self.perm) == len(other.perm), "matrix size mismatch"
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
        raise ValueError("a signed permutation scales by +1 or -1 only")

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
    read it out as ``Fraction``s.
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
        den = lcm(*(v.denominator for v in row.values()))
        row = _primitive({j: v.numerator * (den // v.denominator) for j, v in row.items() if v})
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

    def reduced(self) -> dict[int, dict[int, Fraction]]:
        """The reduced rows, pivot column -> row with 1 at the pivot, in the
        order the pivots were found."""
        return {p: {j: Fraction(v, row[p]) for j, v in row.items()} for p, row in self._rows.items()}

    def nullspace(self, ncols: int) -> list[dict[int, Fraction]]:
        rows = self._rows
        basis = []
        for f in (c for c in range(ncols) if c not in rows):
            vec = {f: ONE}
            for p, row in rows.items():
                v = row.get(f)
                if v:
                    vec[p] = Fraction(-v, row[p])
            basis.append(vec)
        return basis


def sparse_solve(rows: list[dict[int, Fraction]], rhs: list, ncols: int):
    """Solve the linear system given by ``rows`` (each ``sum coeff*x = rhs``).

    Returns ``(solution_dict, unique)`` with free variables set to zero, or
    ``(None, False)`` when the system is inconsistent.
    """
    aug = ncols  # virtual column holding -rhs
    rr = Rref()
    for row, b in zip(rows, rhs):
        r = dict(row)
        fb = _frac(b)
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
            sol[p] = -v
    unique = rr.rank == ncols
    return sol, unique


# ---------------------------------------------------------------------------
# Signed-permutation intertwiner solver
# ---------------------------------------------------------------------------


def signed_perm_intertwiners(pairs: list[tuple], d_in: int, d_out: int) -> list[QMat] | None:
    """Basis of ``{X : X A_k = B_k X}`` for signed-permutation pairs.

    ``X`` has shape ``d_out x d_in``.  The matrices are ``QMat``s or
    ``SignedPerm``s.  Returns None when some matrix in ``pairs`` is not a
    signed permutation (caller should fall back to the generic solver).

    Each pair ``(A, B)`` sends entry ``(a, b)`` of ``X`` to entry
    ``(sigma_B(a), sigma_A(b))`` with the sign ``sign_B[a] * sign_A[b]``.  A
    walk from the smallest unvisited entry gives every entry of its orbit a
    sign relative to that start; an orbit that reaches an entry with both
    signs is forced to zero.  Each live orbit is one basis element, +1 at its
    smallest flat index, and the elements come in the order of that index.
    """
    maps = []
    for a, b in pairs:
        pa = SignedPerm.of(a)
        pb = pa if b is a else SignedPerm.of(b)
        if pa is None or pb is None:
            return None
        maps.append((pb.perm, pb.signs, pa.perm, pa.signs))

    slot = [0] * (d_out * d_in)  # sign of an entry relative to its orbit's start, 0 = unvisited
    basis = []
    for start in range(d_out * d_in):
        if slot[start]:
            continue
        slot[start] = 1
        orbit = [start]
        live = True
        for p in orbit:  # the list grows while it is walked
            a, b = divmod(p, d_in)
            s = slot[p]
            for sigma_b, sign_b, sigma_a, sign_a in maps:
                q = sigma_b[a] * d_in + sigma_a[b]
                t = s * sign_b[a] * sign_a[b]
                if not slot[q]:
                    slot[q] = t
                    orbit.append(q)
                elif slot[q] != t:
                    live = False
        if live:
            rows: list[dict[int, Fraction]] = [dict() for _ in range(d_out)]
            for p in sorted(orbit):
                a, b = divmod(p, d_in)
                rows[a][b] = ONE if slot[p] == 1 else MINUS_ONE
            basis.append(QMat(d_out, d_in, rows))
    return basis


def intertwiner_space(pairs: list[tuple[QMat, QMat]], d_in: int, d_out: int) -> list[QMat]:
    """Exact basis of ``{X : X A_k = B_k X}`` for arbitrary rational matrices.

    Uses the orbit-walk fast path when every matrix is a signed permutation,
    otherwise reduces the (sparse) commutation constraints directly, built as
    integer rows.
    """
    fast = signed_perm_intertwiners(pairs, d_in, d_out)
    if fast is not None:
        return fast

    rr = Rref()
    for a, b in pairs:
        # scale the pair by the lcm of its denominators: same constraints, integer rows
        den = lcm(*(v.denominator for m in (a, b) for r in m.rows for v in r.values()))
        acols: list[dict[int, int]] = [dict() for _ in range(d_in)]
        for i, j, v in a.entries():
            acols[j][i] = v.numerator * (den // v.denominator)
        brows = [{k: v.numerator * (den // v.denominator) for k, v in r.items()} for r in b.rows]
        # constraint entry (i,j): sum_k X[i,k] A[k,j] - sum_k B[i,k] X[k,j] = 0
        for i in range(d_out):
            brow = brows[i]
            base = i * d_in
            for j in range(d_in):
                row: dict[int, int] = {base + k: v for k, v in acols[j].items()}
                for k, v in brow.items():
                    key = k * d_in + j
                    s = row.get(key, 0) - v
                    if s:
                        row[key] = s
                    elif key in row:
                        del row[key]
                if row:
                    rr.add_row(row)
    basis = []
    for vec in rr.nullspace(d_out * d_in):
        entries = {divmod(k, d_in): v for k, v in vec.items()}
        basis.append(QMat.from_entries(d_out, d_in, entries))
    return basis
