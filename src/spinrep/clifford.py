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
masks to integer numerators over one positive denominator, in lowest terms.
Sums, products, involutions and inverses work on the numerators and build no
rational (the product reduces by one gcd); ``terms`` reads out ``Fraction``s.
Blade-pair signs come from integer bit arithmetic (``_sign_mask``), computed
once per blade mask and signature.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError, StructureError
from .linalg import ONE, _exact, _integers, _lowest, sparse_solve
from .structure import Signature


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
    if type(a) is not int or type(b) is not int or a < 0 or b < 0:
        raise InputError(f"blade masks must be non-negative ints, got {a!r} and {b!r}")
    return -1 if (_sign_mask(a, 0) & b).bit_count() & 1 else 1


def blade_product(sig: Signature, a: int, b: int) -> tuple[Fraction, int]:
    """Geometric product of two basis blades: ``(sign, result_mask)``.

    The result mask is ``a XOR b``; the sign is the reorder parity times the
    squares of the repeated generators under the signature convention.
    """
    limit = 1 << sig.n
    if type(a) is not int or type(b) is not int or not (0 <= a < limit and 0 <= b < limit):
        raise InputError("blade mask out of range for signature")
    odd = (_sign_mask(a, sig.neg_mask) & b).bit_count() & 1
    return (-ONE if odd else ONE), a ^ b


# neg_mask -> {blade mask a: _sign_mask(a, neg_mask)}, filled as products meet
# new masks (the sign mask depends on the signature through neg_mask only)
_SIGN_MASKS: dict[int, dict[int, int]] = {}


class Multivector:
    """Element of Cl(r,s): numerators ``nums`` (blade mask -> nonzero ``int``)
    over ``den > 0`` in lowest terms, so equal multivectors hold equal data.
    The constructor takes ``int`` or ``Fraction`` coefficients; ``make``
    converts anything ``Fraction`` takes."""

    __slots__ = ("signature", "den", "nums")

    def __init__(self, signature: Signature, terms: dict[int, Fraction] | None = None):
        terms = {} if terms is None else terms
        limit = 1 << signature.n
        for mask, c in terms.items():
            if type(mask) is not int or not 0 <= mask < limit:
                raise InputError(f"blade mask {mask} invalid for {signature}")
            if type(c) is not int and not isinstance(c, Fraction):
                raise InputError(f"coefficient {c!r} is not an int or a Fraction")
            if c == 0:
                raise InputError("stored zero coefficient")
        self.signature = signature
        self.den, (self.nums,) = _integers([terms])

    @staticmethod
    def _of(sig: Signature, den: int, nums: dict[int, int]) -> "Multivector":
        """``nums / den`` for ``den > 0`` and nonzero numerators, brought to lowest terms."""
        x = Multivector.__new__(Multivector)
        x.signature = sig
        x.den, (x.nums,) = _lowest(den, [nums])
        return x

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self.den
        return {m: Fraction(v, den) for m, v in self.nums.items()}

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and self.den == other.den and self.nums == other.nums

    # -- constructors ------------------------------------------------------
    @staticmethod
    def make(sig: Signature, terms: dict[int, Fraction]) -> "Multivector":
        clean = {m: _exact(c) for m, c in terms.items() if c != 0}
        return Multivector(sig, clean)

    @staticmethod
    def scalar(sig: Signature, c) -> "Multivector":
        return Multivector.make(sig, {0: _exact(c)})

    @staticmethod
    def generator(sig: Signature, i: int) -> "Multivector":
        """e_{i+1} for 0-based index i."""
        sig.gen_square(i)  # refuses an index that is not an int in [0, n)
        return Multivector(sig, {1 << i: ONE})

    @staticmethod
    def vector(sig: Signature, coords) -> "Multivector":
        if not isinstance(coords, (list, tuple)) or len(coords) != sig.n:
            raise InputError("coordinates must be a list or tuple of n rational numbers")
        return Multivector(sig, {1 << i: c for i, c in enumerate(map(_exact, coords)) if c})

    @staticmethod
    def blade(sig: Signature, mask: int, c=1) -> "Multivector":
        return Multivector.make(sig, {mask: _exact(c)})

    # -- inspection ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.nums

    def is_scalar(self) -> bool:
        return all(m == 0 for m in self.nums)

    def scalar_part(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def vector_coords(self) -> list[Fraction]:
        if any(m.bit_count() != 1 for m in self.nums):
            raise StructureError("multivector is not homogeneous of grade 1")
        return [Fraction(self.nums.get(1 << i, 0), self.den) for i in range(self.signature.n)]

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.nums)

    # -- linear structure ----------------------------------------------------
    def _same_sig(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise InputError("signature mismatch")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._same_sig(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {m: v * fa for m, v in self.nums.items()}
        for m, v in other.nums.items():
            s = out.get(m, 0) + v * fb
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Multivector._of(self.signature, den, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return Multivector._of(self.signature, self.den, {m: -v for m, v in self.nums.items()})

    def scale(self, c) -> "Multivector":
        c = _exact(c)
        if not c:
            return Multivector(self.signature, {})
        return Multivector._of(self.signature, self.den * c.denominator,
                               {m: v * c.numerator for m, v in self.nums.items()})

    def __rmul__(self, c):
        return self.scale(c)

    # -- products -------------------------------------------------------------
    def __mul__(self, other):
        """Geometric product (bilinear extension of ``blade_product``).

        Exact: the numerators' blade-pair products accumulate as integers
        over the product of the denominators, reduced by one gcd at the end.
        """
        if not isinstance(other, Multivector):
            return self.scale(other)
        self._same_sig(other)
        neg = self.signature.neg_mask
        signs = _SIGN_MASKS.setdefault(neg, {})
        items_b = other.nums.items()
        acc: dict[int, int] = {}
        for ma, va in self.nums.items():
            sa = signs.get(ma)
            if sa is None:
                sa = signs[ma] = _sign_mask(ma, neg)
            for mb, vb in items_b:
                mask = ma ^ mb
                if (sa & mb).bit_count() & 1:
                    acc[mask] = acc.get(mask, 0) - va * vb
                else:
                    acc[mask] = acc.get(mask, 0) + va * vb
        return Multivector._of(self.signature, self.den * other.den, {m: v for m, v in acc.items() if v})

    def vector_part_times(self, other: "Multivector") -> "Multivector":
        """The grade-1 part of ``self * other``, from the n blade pairs
        ``(A, A ^ e_k)`` per blade A of ``self``."""
        self._same_sig(other)
        neg = self.signature.neg_mask
        signs = _SIGN_MASKS.setdefault(neg, {})
        units = [1 << k for k in range(self.signature.n)]
        nums_b = other.nums
        acc: dict[int, int] = {}
        for ma, va in self.nums.items():
            sa = signs.get(ma)
            if sa is None:
                sa = signs[ma] = _sign_mask(ma, neg)
            for k in units:
                mb = ma ^ k
                vb = nums_b.get(mb)
                if vb:
                    if (sa & mb).bit_count() & 1:
                        acc[k] = acc.get(k, 0) - va * vb
                    else:
                        acc[k] = acc.get(k, 0) + va * vb
        return Multivector._of(self.signature, self.den * other.den, {k: v for k, v in acc.items() if v})

    def times_reversion(self) -> "Multivector":
        """``self * self.reversion()`` from the blade pairs A <= B only.

        For every x: ``e_B rev(e_A)`` is the reversion of ``Z = e_A rev(e_B)``,
        and ``Z + rev(Z)`` is ``2Z`` on grades 0 and 1 mod 4 and 0 on grades 2
        and 3 mod 4, so each pair A < B adds ``2 a_A a_B Z`` or nothing.
        """
        neg = self.signature.neg_mask
        signs = _SIGN_MASKS.setdefault(neg, {})
        # the coefficients of rev(x): rev(e_B) = -e_B when |B| = 2, 3 mod 4
        rev = [(m, -v if m.bit_count() & 2 else v) for m, v in self.nums.items()]
        acc: dict[int, int] = {}
        square = 0
        for i, (ma, va) in enumerate(self.nums.items()):
            sa = signs.get(ma)
            if sa is None:
                sa = signs[ma] = _sign_mask(ma, neg)
            sq = va * rev[i][1]
            square += -sq if (sa & ma).bit_count() & 1 else sq
            va2 = va + va
            for mb, vb in rev[i + 1:]:
                mask = ma ^ mb
                if mask.bit_count() & 2:
                    continue
                if (sa & mb).bit_count() & 1:
                    acc[mask] = acc.get(mask, 0) - va2 * vb
                else:
                    acc[mask] = acc.get(mask, 0) + va2 * vb
        acc[0] = acc.get(0, 0) + square
        return Multivector._of(self.signature, self.den * self.den, {m: v for m, v in acc.items() if v})

    # -- involutions ------------------------------------------------------------
    def grade_involution(self) -> "Multivector":
        return Multivector._of(self.signature, self.den,
                               {m: (-v if m.bit_count() & 1 else v) for m, v in self.nums.items()})

    def reversion(self) -> "Multivector":
        # the grade-k part changes sign when k(k-1)/2 is odd, i.e. k = 2, 3 mod 4
        return Multivector._of(self.signature, self.den,
                               {m: (-v if m.bit_count() & 2 else v) for m, v in self.nums.items()})

    # -- inverse -----------------------------------------------------------------
    def inverse(self) -> "Multivector":
        """Exact inverse; fast for versors, linear solve otherwise."""
        if self.is_zero():
            raise InputError("zero multivector has no inverse")
        rev = self.reversion()
        t = self.times_reversion()
        if t.is_scalar() and t.nums:
            return rev.scale(Fraction(t.den, t.nums[0]))
        # generic: solve nums * x = den (that is, self * x = 1) on the 2^n
        # coefficient space
        sig = self.signature
        dim = 1 << sig.n
        terms = [(ma, va, _sign_mask(ma, sig.neg_mask)) for ma, va in self.nums.items()]
        rows: list[dict[int, int]] = [dict() for _ in range(dim)]
        for mb in range(dim):
            for ma, va, sa in terms:
                row = rows[ma ^ mb]
                row[mb] = row.get(mb, 0) + (-va if (sa & mb).bit_count() & 1 else va)
        rhs = [self.den if m == 0 else 0 for m in range(dim)]
        sol, _unique = sparse_solve(rows, rhs, dim)
        if sol is None:
            raise InputError("multivector is not invertible")
        return Multivector.make(sig, sol)

    def __repr__(self):
        if not self.nums:
            return "0"
        terms = self.terms
        bits = []
        for m in sorted(terms, key=lambda x: (x.bit_count(), x)):
            c = terms[m]
            if m == 0:
                bits.append(str(c))
            else:
                name = "e" + "".join(str(i + 1) for i in range(self.signature.n) if m >> i & 1)
                bits.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(bits).replace("+ -", "- ")


def volume_element(sig: Signature) -> Multivector:
    """The full ascending product e_1 e_2 ... e_n as a multivector."""
    return Multivector(sig, {(1 << sig.n) - 1: ONE})


def psi_embed(x: Multivector) -> Multivector:
    """Cl(r,s) -> the even part of Cl(r,s+1), generated by e_i -> e_i e_{n+1}.

    The new generator squares to -1, so (e_a e_{n+1})(e_b e_{n+1}) =
    -e_a e_b e_{n+1}^2 = e_a e_b: a blade e_A of grade k goes to
    e_A e_{n+1}^(k mod 2) with sign +1, and e_A e_{n+1} is already in
    ascending order.  The map is an injective algebra homomorphism.
    """
    sig, n = x.signature, x.signature.n
    return Multivector._of(Signature(sig.r, sig.s + 1), x.den,
                           {m | (m.bit_count() & 1) << n: v for m, v in x.nums.items()})


def hodge_star(x: Multivector) -> Multivector:
    """Euclidean Hodge star on exterior-algebra elements, in any signature.

    Blades are read as exterior monomials; the orientation is the ascending
    volume blade, and star(e_A) = reorder_sign(A, A^c) e_{A^c}, so that
    e_A ^ star(e_A) = e_1^...^e_n for every basis blade.
    """
    full = (1 << x.signature.n) - 1
    return Multivector._of(x.signature, x.den,
                           {full ^ m: reorder_sign(m, full ^ m) * v for m, v in x.nums.items()})
