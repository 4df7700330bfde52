"""Abstract Clifford algebra Cl(r,s) on sparse blade-indexed multivectors.

Convention used everywhere in this package: the defining relation is

    v*w + w*v = -2*g(v, w)

with the bilinear form ``g = diag(-1 x r, +1 x s)``.  Consequently the first
``r`` generators square to +1 and the remaining ``s`` square to -1, and the
signature (0, n) is the Euclidean case where every generator squares to -1.
The convention is stated in every serialized file (``structure.CONVENTION``)
because conventions differ between sources.

Blades are bitmasks: bit ``i`` set means generator ``e_{i+1}`` is a factor,
factors in ascending index order.  A multivector is a sparse map from blade
masks to rational coefficients.  The geometric product stays exact without
building a rational per blade pair: each operand is brought to integer
numerators over one common denominator, the blade-pair products accumulate as
integers, and one rational is formed per nonzero output term.  Blade-pair
signs come from integer bit arithmetic (``_sign_mask``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError, StructureError
from .linalg import sparse_solve
from .structure import Signature

ZERO = Fraction(0)
ONE = Fraction(1)


def euclidean(n: int) -> Signature:
    return Signature(0, n)


def _sign_mask(a: int, neg_mask: int) -> int:
    """Mask ``m`` with ``e_a e_b = (-1)^popcount(m & b) e_{a^b}`` for every ``b``.

    The reorder parity of ``a`` before ``b`` is the sum over k >= 1 of
    ``popcount((a >> k) & b)``; mod 2 that is ``popcount(P & b)`` with ``P``
    the XOR of the shifts ``a >> k``.  Each repeated generator squaring to -1
    adds one more sign flip, ``popcount(a & b & neg_mask)``, folded in the same
    way.  Pass ``neg_mask=0`` for the reorder parity alone.
    """
    m = a & neg_mask
    a >>= 1
    while a:
        m ^= a
        a >>= 1
    return m


def reorder_sign(a: int, b: int) -> int:
    """Parity sign for sorting the concatenation of blades ``a`` and ``b``.

    Counts pairs (i in a, j in b) with j < i; this is the permutation part of
    a blade product, with no metric contractions.
    """
    return -1 if (_sign_mask(a, 0) & b).bit_count() & 1 else 1


def blade_product(sig: Signature, a: int, b: int) -> tuple[Fraction, int]:
    """Geometric product of two basis blades: ``(sign, result_mask)``.

    The result mask is ``a XOR b``; the sign is the reorder parity times the
    squares of the repeated generators under the signature convention.
    """
    limit = 1 << sig.n
    if a >= limit or b >= limit:
        raise InputError("blade mask out of range for signature")
    odd = (_sign_mask(a, sig.neg_mask) & b).bit_count() & 1
    return (-ONE if odd else ONE), a ^ b


def wedge_sign(a: int, b: int) -> int | None:
    """Sign of ``e_a ^ e_b`` or None when the blades share a factor."""
    if a & b:
        return None
    return reorder_sign(a, b)


def _grade(mask: int) -> int:
    return mask.bit_count()


def _integer_terms(terms: dict[int, Fraction]) -> tuple[int, list[tuple[int, int]]]:
    """``(den, [(mask, numerator)])`` with ``terms[mask] == numerator / den``
    and ``den`` the lcm of the coefficients' denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(m, c.numerator * (den // c.denominator)) for m, c in terms.items()]


class Multivector:
    """Element of Cl(r,s): sparse blade-to-coefficient map with its signature;
    equal when both agree."""

    __slots__ = ("signature", "terms")

    def __init__(self, signature: Signature, terms: dict[int, Fraction] | None = None):
        terms = {} if terms is None else terms
        limit = 1 << signature.n
        for mask, c in terms.items():
            if not 0 <= mask < limit:
                raise InputError(f"blade mask {mask} invalid for {signature}")
            if c == 0:
                raise InputError("stored zero coefficient")
        self.signature = signature
        self.terms = terms

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    # -- constructors ------------------------------------------------------
    @staticmethod
    def make(sig: Signature, terms: dict[int, Fraction]) -> "Multivector":
        clean = {m: Fraction(c) for m, c in terms.items() if c != 0}
        return Multivector(sig, clean)

    @staticmethod
    def scalar(sig: Signature, c) -> "Multivector":
        return Multivector.make(sig, {0: Fraction(c)})

    @staticmethod
    def generator(sig: Signature, i: int) -> "Multivector":
        """e_{i+1} for 0-based index i."""
        if not 0 <= i < sig.n:
            raise InputError(f"generator index {i} out of range")
        return Multivector(sig, {1 << i: ONE})

    @staticmethod
    def vector(sig: Signature, coords) -> "Multivector":
        terms = {1 << i: Fraction(c) for i, c in enumerate(coords) if Fraction(c) != 0}
        if len(coords) != sig.n:
            raise InputError("coordinate length mismatch")
        return Multivector(sig, terms)

    @staticmethod
    def blade(sig: Signature, mask: int, c=1) -> "Multivector":
        return Multivector.make(sig, {mask: Fraction(c)})

    # -- inspection ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(m == 0 for m in self.terms)

    def scalar_part(self) -> Fraction:
        return self.terms.get(0, ZERO)

    def vector_coords(self) -> list[Fraction]:
        if any(_grade(m) != 1 for m in self.terms):
            raise StructureError("multivector is not homogeneous of grade 1")
        return [self.terms.get(1 << i, ZERO) for i in range(self.signature.n)]

    def is_even(self) -> bool:
        return all(_grade(m) % 2 == 0 for m in self.terms)

    # -- linear structure ----------------------------------------------------
    def _same_sig(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise InputError("signature mismatch")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._same_sig(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Multivector(self.signature, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector(self.signature, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Multivector":
        c = Fraction(c)
        if not c:
            return Multivector(self.signature, {})
        return Multivector(self.signature, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    # -- products -------------------------------------------------------------
    def __mul__(self, other):
        """Geometric product (bilinear extension of ``blade_product``).

        Exact: both operands are scaled to integer numerators over their
        common denominators, the blade-pair products accumulate as integers,
        and one rational is formed per nonzero output term.
        """
        if not isinstance(other, Multivector):
            return self.scale(other)
        self._same_sig(other)
        sig = self.signature
        neg = sig.neg_mask
        den_a, ints_a = _integer_terms(self.terms)
        den_b, ints_b = _integer_terms(other.terms)
        acc: dict[int, int] = {}
        for ma, va in ints_a:
            sa = _sign_mask(ma, neg)
            for mb, vb in ints_b:
                mask = ma ^ mb
                if (sa & mb).bit_count() & 1:
                    acc[mask] = acc.get(mask, 0) - va * vb
                else:
                    acc[mask] = acc.get(mask, 0) + va * vb
        den = den_a * den_b
        return Multivector(sig, {m: Fraction(v, den) for m, v in acc.items() if v})

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product on the shared blade basis."""
        self._same_sig(other)
        out: dict[int, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sgn = wedge_sign(ma, mb)
                if sgn is None:
                    continue
                mask = ma | mb
                s = out.get(mask, ZERO) + sgn * ca * cb
                if s:
                    out[mask] = s
                elif mask in out:
                    del out[mask]
        return Multivector(self.signature, out)

    # -- involutions ------------------------------------------------------------
    def grade_involution(self) -> "Multivector":
        return Multivector(
            self.signature,
            {m: (-c if _grade(m) & 1 else c) for m, c in self.terms.items()},
        )

    def reversion(self) -> "Multivector":
        out = {}
        for m, c in self.terms.items():
            k = _grade(m)
            out[m] = -c if (k * (k - 1) // 2) & 1 else c
        return Multivector(self.signature, out)

    # -- inverse -----------------------------------------------------------------
    def inverse(self) -> "Multivector":
        """Exact inverse; fast for versors, linear solve otherwise."""
        if self.is_zero():
            raise InputError("zero multivector has no inverse")
        t = self * self.reversion()
        if t.is_scalar() and t.scalar_part() != 0:
            return self.reversion().scale(ONE / t.scalar_part())
        # generic: solve self * x = 1 on the 2^n coefficient space
        sig = self.signature
        dim = 1 << sig.n
        rows: list[dict[int, Fraction]] = [dict() for _ in range(dim)]
        for mb in range(dim):
            for ma, ca in self.terms.items():
                sign, mask = blade_product(sig, ma, mb)
                rows[mask][mb] = rows[mask].get(mb, ZERO) + sign * ca
        rhs = [ONE if m == 0 else ZERO for m in range(dim)]
        sol, _unique = sparse_solve(rows, rhs, dim)
        if sol is None:
            raise InputError("multivector is not invertible")
        return Multivector.make(sig, {m: c for m, c in sol.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda x: (_grade(x), x)):
            c = self.terms[m]
            if m == 0:
                bits.append(str(c))
            else:
                name = "e" + "".join(str(i + 1) for i in range(self.signature.n) if m >> i & 1)
                bits.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(bits).replace("+ -", "- ")


def volume_element(sig: Signature) -> Multivector:
    """The full ascending product e_1 e_2 ... e_n as a multivector."""
    return Multivector(sig, {(1 << sig.n) - 1: ONE})


def volume_square_sign(sig: Signature) -> int:
    """Exact sign of nu^2, computed from the blade product."""
    vol = volume_element(sig)
    sq = vol * vol
    if not sq.is_scalar():
        raise StructureError("volume square is not scalar")
    c = sq.scalar_part()
    if c == 1:
        return 1
    if c == -1:
        return -1
    raise StructureError(f"volume square is {c}")


def psi_embed(x: Multivector, target: Signature | None = None) -> Multivector:
    """Embed Cl(r,s) into the even part of the one-dimension-larger algebra.

    On generators this is v -> v * e_n; extended multiplicatively on blades
    and linearly on sums.  By default the extra generator is Euclidean
    (squares to -1), i.e. the target of Cl(r,s) is Cl(r,s+1); any other
    extension must be passed explicitly and must contain the source.
    """
    src = x.signature
    if target is None:
        target = Signature(src.r, src.s + 1)
    if target.n != src.n + 1:
        raise InputError("target must have exactly one more generator")
    if target.r not in (src.r, src.r + 1):
        raise InputError("target signature does not extend the source")
    # the source generators must keep their squares in the target
    for i in range(src.n):
        if target.gen_square(i) != src.gen_square(i):
            raise InputError("target signature reorders generator squares")
    e_last = Multivector.generator(target, target.n - 1)
    out = Multivector.scalar(target, 0)
    for mask, c in x.terms.items():
        word = Multivector.scalar(target, c)
        for i in range(src.n):
            if mask >> i & 1:
                word = word * (Multivector.generator(target, i) * e_last)
        out = out + word
    return out


def hodge_star(n: int, x: Multivector) -> Multivector:
    """Euclidean Hodge star on exterior-algebra elements.

    Blades are read as exterior monomials; the orientation is the ascending
    volume blade, and the defining property is  omega ^ star(omega) =
    |omega|^2 * e_1^...^e_n  for every basis blade.
    """
    if x.signature.n != n:
        raise InputError("dimension mismatch")
    full = (1 << n) - 1
    out = {}
    for mask, c in x.terms.items():
        comp = full ^ mask
        sgn = reorder_sign(mask, comp)
        out[comp] = out.get(comp, ZERO) + sgn * c
    return Multivector.make(x.signature, out)
