"""The structural audit of a module given as plain data, and what it needs:
the signature and its sign convention, the table of irreducible modules, and
the exact Clifford and spin-metric checks.  It imports only ``errors`` and
``linalg``, so ``verify`` never compiles the module builders.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .linalg import QMat, Rref, SignedPerm, inertia

CONVENTION = (
    "e_i e_j + e_j e_i = -2 g_ij with g = diag(-1 x r, +1 x s); "
    "e_1..e_r square to +1, e_(r+1)..e_(r+s) square to -1"
)

FAMILY_QUATERNIONIC = "quaternionic-multivector"
FAMILY_POSITIVE = "positive-multivector"
FAMILY_SPLIT = "split-exterior"
FAMILY_SQRT = "sqrt-space"
FAMILY_OCTONION = "octonion"
FAMILY_ASSEMBLED = "assembled"
FAMILIES = (FAMILY_QUATERNIONIC, FAMILY_POSITIVE, FAMILY_SPLIT, FAMILY_SQRT, FAMILY_OCTONION,
            FAMILY_ASSEMBLED)


class Signature:
    """Counts of generators squaring to +1 (r) and to -1 (s); equal and
    hashed by ``(r, s)``."""

    __slots__ = ("r", "s")

    def __init__(self, r: int, s: int):
        if r < 0 or s < 0 or r + s < 1:
            raise InputError(f"invalid signature ({r},{s})")
        self.r = r
        self.s = s

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return self.r == other.r and self.s == other.s

    def __hash__(self):
        return hash((self.r, self.s))

    def __repr__(self):
        return f"Signature(r={self.r}, s={self.s})"

    @property
    def n(self) -> int:
        return self.r + self.s

    def gen_square(self, i: int) -> int:
        """Square of generator e_{i+1}: +1 for i < r, else -1."""
        if not 0 <= i < self.n:
            raise InputError(f"generator index {i} out of range for {self}")
        return 1 if i < self.r else -1

    @property
    def neg_mask(self) -> int:
        """Blade mask of the generators squaring to -1: bits r..n-1."""
        return ((1 << self.s) - 1) << self.r

    def form(self, i: int) -> int:
        """Diagonal entry g(e_{i+1}, e_{i+1}) = -e_{i+1}^2."""
        return -self.gen_square(i)

    def bilinear(self, v, w) -> Fraction:
        """g(v, w) for coordinate vectors."""
        if len(v) != self.n or len(w) != self.n:
            raise InputError("vector length does not match signature dimension")
        total = Fraction(0)
        for i, (a, b) in enumerate(zip(v, w)):
            total += Fraction(a) * Fraction(b) * self.form(i)
        return total

    def __str__(self):
        return f"Cl({self.r},{self.s})"


def expected_irreducible_dim(r: int, s: int) -> int:
    """Real dimension of the irreducible Cl(r,s) module, from the
    classification tables (used as an independent cross-check)."""
    euclid = [2, 4, 4, 8, 8, 8, 8, 16]
    positive = [1, 2, 4, 8, 8, 16, 16, 16]
    if r == 0 or s == 0:
        n = r + s
        k, rem = divmod(n - 1, 8)
        table = euclid if r == 0 else positive
        return table[rem] * 16**k
    i = min(r, s)
    return (1 << i) * expected_irreducible_dim(r - i, s - i) if r != s else 1 << i


def expected_field(r: int, s: int) -> str:
    """The commutant K (R, C or H) of the irreducible Cl(r,s) module, which
    depends on s - r mod 8 alone."""
    return "CHHHCRRR"[(s - r - 1) % 8]


class CliffordReport:
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: list[tuple[int, int]]):
        self.ok = ok
        self.violations = violations

    def __bool__(self):
        return self.ok


def verify_clifford_condition(generators: list, sig: Signature) -> CliffordReport:
    """Check G_i G_i = -g_ii I and G_i G_j = -G_j G_i (i != j) exactly, which
    together are G_i G_j + G_j G_i = -2 g_ij I; violations are reported, not
    raised.  The generators are all ``QMat``s or all ``SignedPerm``s."""
    if len(generators) != sig.n:
        raise InputError(f"{sig} needs {sig.n} generators, got {len(generators)}")
    d = generators[0].nrows
    for g in generators:
        if g.nrows != d or g.ncols != d:
            raise InputError("generators must be square and of equal size")
    ident = type(generators[0]).identity(d)
    violations = []
    for i, a in enumerate(generators):
        if a * a != ident.scale(-sig.form(i)):
            violations.append((i + 1, i + 1))
        for j in range(i + 1, sig.n):
            b = generators[j]
            if a * b != -(b * a):
                violations.append((i + 1, j + 1))
    return CliffordReport(not violations, violations)


def _metric_failures(sig: Signature, generators, metric: QMat, units) -> list[str]:
    """Exact adjointness audit of a spin metric: symmetric, generators
    squaring to -1 skew-adjoint and to +1 self-adjoint, every right unit
    (imaginary unit of K) skew-adjoint."""
    failures = []
    if metric.transpose() != metric:
        failures.append("metric not symmetric")
    for idx, g in enumerate(generators):
        lhs = g.transpose() * metric
        rhs = metric * g
        want_skew = sig.gen_square(idx) == -1
        if lhs != (rhs.scale(-1) if want_skew else rhs):
            kind = "skew" if want_skew else "self"
            failures.append(f"generator e_{idx + 1} fails {kind}-adjointness")
    for t, u in enumerate(units, 1):
        if u.transpose() * metric != (metric * u).scale(-1):
            failures.append(f"right unit {t} fails skew-adjointness")
    return failures


def _monomial(mats, d: int) -> list[SignedPerm] | None:
    """``mats`` as d x d signed permutations, or None if one is not."""
    perms = []
    for m in mats:
        p = SignedPerm.of(m)
        if p is None or p.nrows != d:
            return None
        perms.append(p)
    return perms


class ModuleReport:
    __slots__ = ("checks", "volume_sign")

    def __init__(self, checks: list[tuple[str, bool, str]], volume_sign: int | None = None):
        self.checks = checks
        self.volume_sign = volume_sign  # computed when s - r = 3 mod 4: 1, -1, or 0 (not central)

    @property
    def ok(self) -> bool:
        return all(okay for _, okay, _ in self.checks)

    def __bool__(self):
        return self.ok


def audit(
    sig: Signature,
    field: str,
    generators,
    metric: QMat,
    commutant_basis,
    grading,
    variant: str,
    volume_sign: int | None = None,
) -> ModuleReport:
    """The structural audit of a module given as plain data; ``generate``
    runs it before writing a gamma file and ``verify`` after reading one.

    Checks, in order: generator count (reported only when wrong), the
    classification table (the real dimension and the field K are the
    irreducible module's), the Clifford condition, the spin metric
    (symmetric, generators self- or skew-adjoint, commutant basis elements
    1.. skew-adjoint) and its positive definiteness (by exact inertia, or for
    a signed permutation being the identity), the commutant basis (element 0
    is the identity, every element commutes with every generator) and its
    size (dim_R K linearly independent elements for the table's K, so that by
    Schur's lemma it spans the commutant), odd generators when a
    ``grading`` is given, and for s - r = 3 mod 4 a central volume element
    whose sign matches the recorded ``volume_sign`` and, on definite
    signatures, the ``variant``.  The report carries the computed sign,
    which ``generate`` writes.

    When every matrix operand is a d x d signed permutation, as every recipe
    module's is, the checks run on ``SignedPerm``s; otherwise on ``QMat``s.
    Both types give the same answers on equal matrices.
    """
    checks: list[tuple[str, bool, str]] = []
    if len(generators) != sig.n:
        checks.append(("generator-count", False, f"{len(generators)} != {sig.n}"))
        return ModuleReport(checks)
    d = metric.nrows
    want = (expected_irreducible_dim(sig.r, sig.s), expected_field(sig.r, sig.s))
    checks.append(("classification-table", (d, field) == want,
                   f"real_dim {d}, K={field}; the table has real_dim {want[0]}, K={want[1]}"))
    perms = _monomial([*generators, metric, *commutant_basis], d)
    mat = QMat if perms is None else SignedPerm
    if perms is not None:
        generators, metric, commutant_basis = perms[:sig.n], perms[sig.n], perms[sig.n + 1:]
    rep = verify_clifford_condition(list(generators), sig)
    detail = "" if rep.ok else f"violating pairs {rep.violations}"
    checks.append(("clifford-condition", rep.ok, detail))

    failures = _metric_failures(sig, generators, metric, commutant_basis[1:])
    checks.append(("spin-metric", not failures, "; ".join(failures)))
    ident = mat.identity(d)
    # a signed permutation has e_j^T M e_j > 0 for every j only as the identity
    definite = metric == ident if mat is SignedPerm else inertia(
        [[(metric.get(i, j) + metric.get(j, i)) / 2 for j in range(d)] for i in range(d)]) == (d, 0, 0)
    checks.append(("spin-metric-definite", definite, "" if definite else "x^T M x <= 0 for some x != 0"))

    failures = []
    if not commutant_basis or commutant_basis[0] != ident:
        failures.append("first commutant basis element is not the identity")
    for t, b in enumerate(commutant_basis[1:], 1):
        for idx, g in enumerate(generators):
            if b * g != g * b:
                failures.append(f"basis element {t} vs e_{idx + 1}")
                break
    checks.append(("commutant-basis", not failures, "; ".join(failures)))
    rr = Rref()
    for b in commutant_basis:
        rr.add_row({i * d + j: v for i, j, v in b.entries()})
    k = {"R": 1, "C": 2, "H": 4}[want[1]]
    checks.append(("commutant-dimension", len(commutant_basis) == rr.rank == k,
                   f"{len(commutant_basis)} elements of rank {rr.rank}; K={want[1]} has dimension {k}"))

    if grading is not None:
        eps = mat.diag(grading)
        odd_ok = all((eps * g) == (g * eps).scale(-1) for g in generators)
        checks.append(("generators-odd", odd_ok, ""))

    if (sig.s - sig.r) % 4 == 3:
        vol = generators[0]
        for g in generators[1:]:
            vol = vol * g
        sign = 1 if vol == ident else (-1 if vol == ident.scale(-1) else 0)
        checks.append(("volume-central-sign", sign != 0, ""))
        if volume_sign is not None:
            checks.append(("volume-sign-recorded", sign == volume_sign,
                           f"computed {sign}, recorded {volume_sign}"))
        # the sign itself is pinned only for the definite signatures
        if sig.r == 0 or sig.s == 0:
            plus_sign = -1 if sig.r == 0 else 1
            expect = plus_sign if variant == "plus" else -plus_sign
            checks.append(("volume-variant", sign == expect, f"variant {variant}"))
        return ModuleReport(checks, sign)
    return ModuleReport(checks)
