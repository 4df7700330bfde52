"""The Euclidean families beside the recipe, and what is derived from a module.

The square-roots-of-space modules are the volume-element half of the
exterior algebra of R^n under wedge-minus-contraction (dimensions 1..4; the
whole algebra for n = 1, 2).  Their right units, exact rational spin metric
and field K are the recipe module's, carried over through one explicit
intertwiner.  The octonion modules act in dimensions 4..8 by signed
permutations read off the recipe's signed unit table of R, C, H and O.  Also
here: the quaternionic action ``c4_action`` and the split action
``split_clifford_action``, each the ``SpinorModule.operator`` of a vector on a
recipe module, the grading by the volume element and spinor squaring.  The
recipe modules live in ``spinrep.recipe``; the five recipe names imported here
but not used are the ones the benchmark harness reaches through this module.
Loading this module compiles neither ``spinrep.algebras`` nor
``spinrep.clifford``; ``c4_action``, ``split_clifford_action`` and
``spinor_square`` import ``clifford`` when they are called.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING

from .errors import InputError, StructureError
from .linalg import ONE, ZERO, QMat, Rref, SignedPerm, _exact, intertwiner_space, sparse_solve
from .recipe import (_UNITS, GradedSpace, SpinorModule, _exterior_action, _right_units, _unit_blocks,
                     assemble_euclidean, split_signature_module, volume_diagonal)
# not used in this module: perfbench/inproc.py wraps them here and clears the lru_caches it finds here
from .recipe import _definite, assemble_positive, assemble_signature, intertwiners, verify_module  # noqa: F401
from .structure import FAMILY_OCTONION, FAMILY_SQRT, FIELD_DIM, Signature, _monomial, plus_volume_sign, volume_sign_of

if TYPE_CHECKING:
    from .algebras import KElement
    from .clifford import Multivector


# ---------------------------------------------------------------------------
# Quaternionic multivector and split actions of arbitrary vectors
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
    span, read = {}, {}
    for k, x in enumerate(key):
        weight = ONE if 2 * x.bit_count() == n else Fraction(1, 2)
        sign, partner = _volume_partner(acts, x)
        span[(x, k)], span[(partner, k)] = weight, eps * sign * weight
        read[(k, x)] = 1 / weight
    span = QMat.from_entries(vol + 1, len(key), span)
    read = QMat.from_entries(len(key), vol + 1, read)
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


@lru_cache(maxsize=None)
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
    if not 1 <= n <= 4:
        raise InputError("sqrt-space modules exist for dimensions 1..4 only")
    gens = _sqrt_gens(n)
    dim = gens[0].nrows
    variant = "plus"
    if n == 3:
        variant = "plus" if volume_sign_of(gens) == plus_volume_sign(Signature(0, 3)) else "minus"
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


@lru_cache(maxsize=None)
def octonion_module(k: int) -> SpinorModule:
    """Octonion models: Cl(0,k) acting on O for 4 <= k <= 7 by right
    multiplication with imaginary units, and on O (+) O for k = 8 by
    x -> ((u,v) -> (-conj(x) v, x u)).  Alternativity makes the Clifford
    condition exact even though O is not associative.  Unit products permute
    the units up to sign, so the data are signed permutations read off the
    unit table."""
    if not 4 <= k <= 8:
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
    variant = "plus"
    if (sig.s - sig.r) % 4 == 3:
        variant = "plus" if volume_sign_of(gens) == plus_volume_sign(sig) else "minus"
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
    """Unique mixed-degree multivector omega with c(omega) = s1 (x) conj(s2).

    The right-hand side is the rank-one operator x -> s1 . k(s2, x) built
    from the K-valued spin metric; for signatures with s - r = 3 mod 4 the
    solve runs over even blades only (the full algebra acts through its even
    part there).  The solve is exact; a singular system raises.
    """
    from .clifford import Multivector

    d = module.real_dim
    s1 = [_exact(c) for c in s1]
    s2 = [_exact(c) for c in s2]
    if len(s1) != d or len(s2) != d:
        raise InputError("spinor length does not match module dimension")
    sig = module.signature
    n = sig.n
    even_only = (sig.s - sig.r) % 4 == 3
    masks = [m for m in range(1 << n) if not even_only or bin(m).count("1") % 2 == 0]

    # columns of the rank-one operator
    k_dim = FIELD_DIM[module.field]
    s1_images = [s1] + [u.apply(s1) for u in module.right_units]
    s2_images = [s2] + [u.apply(s2) for u in module.right_units]
    metric_rows = [module.spin_metric.apply(img) for img in s2_images]
    rank_one: dict[tuple[int, int], Fraction] = {}
    for t in range(d):
        col = [ZERO] * d
        for a in range(k_dim):
            coef = metric_rows[a][t]
            if coef:
                img = s1_images[a]
                for i in range(d):
                    if img[i]:
                        col[i] += coef * img[i]
        for i in range(d):
            if col[i]:
                rank_one[(i, t)] = col[i]

    rows_by_entry: dict[tuple[int, int], dict[int, Fraction]] = {}
    for col_idx, mask in enumerate(masks):
        op = module.blade_operator(mask)
        for i, j, v in op.entries():
            rows_by_entry.setdefault((i, j), {})[col_idx] = v
    keys = sorted(set(rows_by_entry) | set(rank_one))
    rows = [rows_by_entry.get(key, {}) for key in keys]
    rhs = [rank_one.get(key, ZERO) for key in keys]
    sol, unique = sparse_solve(rows, rhs, len(masks))
    if sol is None or not unique:
        raise StructureError("blade-to-operator solve is singular for this module")
    return Multivector.make(sig, {masks[t]: c for t, c in sol.items()})
