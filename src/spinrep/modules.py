"""The Euclidean families beside the recipe, and what is derived from a module.

The square-roots-of-space modules are the volume-element half of the
exterior algebra of R^n under wedge-minus-contraction (dimensions 1..4; the
whole algebra for n = 1, 2).  Their right units, exact rational spin metric
and field K are the recipe module's, carried over through one explicit
intertwiner.  The octonion modules act in dimensions 4..8 by signed
permutations read off the recipe's signed unit table of R, C, H and O.  Also
here: the quaternionic action ``c4_action``, the hypersurface action
``hypersurface4_action`` and the split action ``split_clifford_action``, each
the ``SpinorModule.operator`` of a multivector on a recipe module, the grading
by the volume element and spinor squaring.  The recipe modules live in
``spinrep.recipe``; the five recipe names imported here but not used are the
ones the benchmark harness reaches through this module.  Loading this module
compiles neither ``spinrep.algebras`` nor ``spinrep.clifford``; the actions
and ``spinor_square`` import them when they are called.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING

from .errors import InputError, StructureError
from .linalg import QMat, Rref, SignedPerm, _exact, intertwiner_space
from .recipe import (_UNITS, GradedSpace, SpinorModule, _exterior_action, _right_units, _unit_blocks,
                     assemble_euclidean, split_signature_module, volume_diagonal)
# not used in this module: perfbench/inproc.py wraps them here and clears the lru_caches it finds here
from .recipe import _definite, assemble_positive, assemble_signature, intertwiners, verify_module  # noqa: F401
from .structure import FAMILY_OCTONION, FAMILY_SQRT, FIELD_DIM, Signature, _monomial, variant_of, volume_sign_of

if TYPE_CHECKING:
    from .algebras import KElement
    from .clifford import Multivector


# ---------------------------------------------------------------------------
# Quaternionic multivector, hypersurface and split actions
# ---------------------------------------------------------------------------


def c4_action(q: KElement) -> QMat:
    """Odd right-H-linear action of q on the quaternionic multivectors H (+) H:
    wedge by q on the degree-0 part minus contraction (left multiplication by
    conj(q)) on the degree-1 part.  It is the operator of the vector with
    q's coefficients on the recipe's Cl(0,4) base module, whose generators
    the units act as."""
    from .clifford import Multivector

    if q.algebra != "H":
        raise InputError("c4_action expects a quaternion")
    module = assemble_euclidean(4)
    return module.operator(Multivector.vector(module.signature, q.coeffs))


def hypersurface4_action(normal, v, q) -> KElement:
    """Clifford action of a tangent vector v on spinors along a hypersurface
    in R^4 with unit normal nu, all read as exact quaternions: the operator of
    nu v on the Cl(0,4) module of ``c4_action`` restricted to its odd half H
    (indices 4..7), left multiplication by -nu conj(v) = v conj(nu), applied
    to q.  The preconditions are Clifford identities checked exactly:
    nu^2 = -1 (a unit normal) and nu v + v nu = -2 g(nu, v) = 0 (a tangent v)."""
    from .algebras import kelem
    from .clifford import Multivector

    module = assemble_euclidean(4)
    nq, vq, qq = (kelem("H", x) for x in (normal, v, q))
    nu, vec = (Multivector.vector(module.signature, x.coeffs) for x in (nq, vq))
    if nu * nu != Multivector.scalar(module.signature, -1):
        raise InputError("normal is not a unit quaternion")
    if not (nu * vec + vec * nu).is_zero():
        raise InputError("v is not tangent (Re(conj(n) v) != 0)")
    return kelem("H", module.operator(nu * vec).apply([0] * 4 + list(qq.coeffs))[4:])


def split_clifford_action(i: int, xs, omegas) -> QMat:
    """Action of the pair (x, omega) on the exterior algebra of R^i:
    wedge by x minus contraction by omega.  Wedge by e_j is (E+ + E-)/2 and
    contraction (E+ - E-)/2 for the generators E+ = x_j + omega_j and
    E- = x_j - omega_j of ``split_signature_module(i)``, so this is the
    operator of the vector with coordinates ((x_j - omega_j)/2,
    (x_j + omega_j)/2), listed pair by pair so that each row keeps its
    entries in the order of j."""
    from .clifford import Multivector

    module = split_signature_module(i)
    if len(xs) != i or len(omegas) != i:
        raise InputError("coordinate length mismatch")
    coords = {}
    for j, (x, omega) in enumerate(zip(map(_exact, xs), map(_exact, omegas))):
        coords[1 << j], coords[1 << (i + j)] = (x - omega) / 2, (x + omega) / 2
    return module.operator(Multivector.make(module.signature, coords))


# ---------------------------------------------------------------------------
# Square roots of space (Euclidean, dimensions 1..4)
# ---------------------------------------------------------------------------

def _volume_partner(acts: list[SignedPerm], x: int) -> tuple[int, int]:
    """Sign and blade of e_x vol, applying the left multiplications ``acts``
    by e_1..e_n to the volume blade, last factor of e_x first."""
    sign, mask = 1, len(acts[0].perm) - 1
    for j in reversed(range(len(acts))):
        if x >> j & 1:
            sign, mask = sign * acts[j].signs[mask], acts[j].perm[mask]
    return sign, mask


def _sqrt_gens(n: int) -> list[QMat] | list[SignedPerm]:
    """Wedge-minus-contraction on the exterior algebra of R^n, which is left
    multiplication in Cl(0,n).  Where the volume element squares to +1
    (n = 3, 4) the action is restricted to the eps = (-1)^n eigenspace of
    right multiplication x -> x vol, which commutes with it; where it squares
    to -1 (n = 1, 2) the whole algebra is the module.

    The half has one basis vector per key blade x: (x + eps x vol)/2 for x
    below the middle degree and x + eps x vol for a middle-degree x that
    contains e_1, ordered by (grade, mask).  x vol is never a key blade, so
    coordinates are read off at the key blades.  The generators are
    ``SignedPerm``s when every one is a signed permutation (n = 1..3), else
    ``QMat``s."""
    acts = [_exterior_action(n, j, -1) for j in range(n)]
    vol = (1 << n) - 1
    if _volume_partner(acts, vol)[0] < 0:
        return acts
    eps = -1 if n % 2 else 1
    key = sorted(
        (x for x in range(vol + 1) if 2 * x.bit_count() < n or 2 * x.bit_count() == n and x & 1),
        key=lambda x: (x.bit_count(), x),
    )
    span_rows: list[dict[int, int]] = [{} for _ in range(vol + 1)]  # over 2
    for k, x in enumerate(key):
        weight = 2 if 2 * x.bit_count() == n else 1  # 1 or 1/2, over 2
        sign, partner = _volume_partner(acts, x)
        span_rows[x][k], span_rows[partner][k] = weight, eps * sign * weight
    span = QMat.from_numerators(vol + 1, len(key), span_rows, 2)
    read = QMat.from_numerators(len(key), vol + 1, [{x: 1 if 2 * x.bit_count() == n else 2} for x in key])
    halves = []
    for a in acts:
        image = a.to_qmat() * span
        half = read * image
        if span * half != image:
            raise StructureError("sqrt-space image left the volume-element eigenspace")
        halves.append(half)
    return _monomial(halves, len(key)) or halves


def _invert(m: QMat) -> QMat:
    """Inverse by one reduction of [M | I] to [I | M^-1]; M is singular
    exactly when a pivot lands in the right half."""
    d = m.nrows
    rr = Rref()
    for i, row in enumerate(m.num):  # [den M | den I], the same rows over the integers
        rr.add_row({**row, d + i: m.den})
    reduced = rr.reduced()
    if any(p >= d for p in reduced):
        raise StructureError("matrix is not invertible")
    den = lcm(*(reduced[i][i] for i in range(d)))
    return QMat.from_numerators(d, d, [{j - d: v * (den // reduced[i][i]) for j, v in reduced[i].items() if j >= d}
                                       for i in range(d)], den)


@lru_cache(maxsize=None, typed=True)  # a float misses the cache and meets the integer check
def sqrt_space_module(n: int) -> SpinorModule:
    """Euclidean modules on the exterior algebra of R^n, halved by right
    multiplication with the volume element (the Hodge star up to sign) where
    it squares to +1, see ``_sqrt_gens``; available in dimensions 1..4 only
    (beyond 4 the construction exceeds the irreducible dimension).

    One explicit intertwiner x from the recipe module ``assemble_euclidean``
    (variants matched first in dimension 3), the only exact solve here,
    carries over what the generators do not fix: the right units as
    x u x^-1, the spin metric as x^-T x^-1 (the recipe's identity metric
    moved through x: invariant by construction and, up to scale, the only
    symmetric invariant form; scaled to 1 at (0,0)) and the field K.
    Nothing on this path loads ``spinrep.clifford``."""
    if type(n) is not int or not 1 <= n <= 4:
        raise InputError("sqrt-space modules exist for dimensions 1..4 only")
    gens = _sqrt_gens(n)
    dim = gens[0].nrows
    variant = variant_of(Signature(0, n), volume_sign_of(gens)) or "plus"
    reference = assemble_euclidean(n, variant)
    basis = intertwiner_space(list(zip(reference.generators, gens)), dim, dim)
    if not basis:
        raise StructureError("modules are not isomorphic: no intertwiner")
    x = basis[0]
    xi = _invert(x)
    metric = xi.transpose() * xi
    units = tuple(x * u * xi for u in reference.right_units)
    return SpinorModule(reference.signature, reference.field, gens, GradedSpace("R", dim),
                        metric.scale(1 / metric.get(0, 0)), FAMILY_SQRT, variant, units)


# ---------------------------------------------------------------------------
# Octonion modules (Euclidean, dimensions 4..8)
# ---------------------------------------------------------------------------

# imaginary units used for the embeddings: the second quaternionic half
# first (matching the dimension-4 construction q -> (0, q)), then the
# imaginary units of the first half
_OCT_IMAGINARY = (4, 5, 6, 7, 1, 2, 3)


@lru_cache(maxsize=None, typed=True)  # a float misses the cache and meets the integer check
def octonion_module(k: int) -> SpinorModule:
    """Octonion models: Cl(0,k) acting on O for 4 <= k <= 7 by right
    multiplication with imaginary units, and on O (+) O for k = 8 by
    x -> ((u,v) -> (-conj(x) v, x u)).  Alternativity makes the Clifford
    condition exact even though O is not associative.  Unit products permute
    the units up to sign, so the data are signed permutations read off the
    unit table."""
    if type(k) is not int or not 4 <= k <= 8:
        raise InputError("octonion modules exist for dimensions 4..8 only")
    sig = Signature(0, k)
    if k <= 7:
        # e_j -> e_j e_u
        gens = [SignedPerm([_UNITS[j][u][0] for j in range(8)], [_UNITS[j][u][1] for j in range(8)])
                for u in _OCT_IMAGINARY[:k]]
        field_tag = {4: "H", 5: "C"}.get(k, "R")
        # diagonal right action (a,b).q = (aq, bq) of H, or of its C = span(1, i)
        right_units = _right_units(GradedSpace("H", 2))[: FIELD_DIM[field_tag] - 1]
    else:
        gens = [_unit_blocks([[None, (t, 1 if t else -1)], [(t, 1), None]], 8) for t in range(8)]
        field_tag = "R"
        right_units = ()
    dim = gens[0].nrows
    variant = variant_of(sig, volume_sign_of(gens)) or "plus"
    space = GradedSpace("R", dim)
    return SpinorModule(sig, field_tag, gens, space, SignedPerm.identity(dim), FAMILY_OCTONION, variant, right_units)


# ---------------------------------------------------------------------------
# Structure checks and derived data
# ---------------------------------------------------------------------------


def grading_from_volume(module: SpinorModule) -> GradedSpace:
    """Grading by the eigenspaces of the volume operator, which must square
    to +1 and be diagonal in the module basis, as on every recipe module."""
    diag = volume_diagonal(module)
    if diag is None:
        raise InputError("volume element does not square to +1 on this module")
    return GradedSpace("R", module.real_dim, tuple(diag))


def spinor_square(module: SpinorModule, s1: list, s2: list) -> Multivector:
    """The multivector omega with c(omega) = s1 (x) conj(s2), by the Fierz
    expansion.

    The right-hand side is the rank-one operator R = sum_a (u_a s1)(g u_a s2)^T
    over 1 and the right units u_a of K, g the spin metric.  Every blade used,
    other than 1, acts with trace 0: a blade that is not central anticommutes
    with some generator; a central volume element squaring to -1 acts as a
    complex structure; where it squares to +1 (s - r = 3 mod 4) only even
    blades are used, and none of them is the volume element.  So
    tr(c(e_A)^-1 c(e_B)) = d delta_AB with e_A^-1 = (e_A^2) e_A, and
    omega_A = (e_A^2) tr(c(e_A) R) / d, one trace per blade.  An R outside
    the image of c is refused by the exact check c(omega) == R.
    """
    from .clifford import Multivector, blade_product

    d = module.real_dim
    if not all(isinstance(s, (list, tuple)) and len(s) == d for s in (s1, s2)):
        raise InputError(f"spinors must be lists or tuples of {d} rational numbers")
    s1, s2 = [_exact(c) for c in s1], [_exact(c) for c in s2]
    sig = module.signature
    units = [QMat.identity(d), *module.right_units]
    left = QMat(len(units), d, [dict(enumerate(u.apply(s1))) for u in units])
    right = QMat(len(units), d, [dict(enumerate(module.spin_metric.apply(u.apply(s2)))) for u in units])
    rank_one = left.transpose() * right
    r_t = rank_one.transpose().num  # tr(c R) = sum_ij c_ij R_ji
    terms = {}
    for mask in range(1 << sig.n):
        if "minus" not in sig.variants or mask.bit_count() % 2 == 0:
            op = module.operator(Multivector.blade(sig, mask))
            trace = sum(v * r_t[i].get(j, 0) for i, row in enumerate(op.num) for j, v in row.items())
            terms[mask] = blade_product(sig, mask, mask)[0] * Fraction(trace, op.den * rank_one.den * d)
    omega = Multivector.make(sig, terms)
    if module.operator(omega) != rank_one:
        raise StructureError("s1 (x) conj(s2) is not the action of a multivector on this module")
    return omega
