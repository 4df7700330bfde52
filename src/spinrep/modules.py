"""Explicit irreducible real spinor representations for every Cl(r,s).

One recipe builds both definite signatures from a family of hand-written
base modules in dimensions 1..4 through mixed-field tensor products
(Atiyah-Bott-Shapiro):

* Base modules.  Cl(0,n): S1 = C, S2 = S3 = H (with a plus/minus pair in
  dimension 3), S4 = the quaternionic multivector space H (+) H with the
  action  q -> wedge_q - contract_q  (an odd, right-H-linear operator).
  Cl(n,0): the real, complex and quaternionic multivector models with
  wedge-plus-contraction (a plus/minus pair in dimension 1).
* S8 is the Z2-graded H-tensor square of S4; multiples of 8 are graded real
  tensor powers of S8; intermediate dimensions attach one base factor, over
  R, C or H as its field dictates, with the operator tensor always taken in
  the graded (Koszul-signed) sense even when the space tensor is ungraded.
* Split signatures Cl(i,i) act on the real exterior algebra by
  wedge-minus-contraction; a general Cl(r,s) is the split module tensored
  with the leftover definite factor.

Two alternative Euclidean families are included: the square-roots-of-space
modules, which are the volume-element half of the exterior algebra of R^n
under wedge-minus-contraction (dimensions 1..4; the whole algebra for n = 1,
2), and the octonion modules (dimensions 4..8).

All modules come with an exact rational spin metric, the realified right
action of their intertwiner algebra, and odd generators where a grading
exists, so that every structural claim in the test suite is checked with
exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import algebras as alg
from .algebras import ALGEBRA_DIM, KElement
from .clifford import Multivector, blade_product, euclidean, reorder_sign
from .errors import InputError, StructureError
from .kmatrix import Commutant, GradedSpace, commutant, tensor_op_left, tensor_op_right
from .linalg import QMat, Rref, SignedPerm, intertwiner_space, sparse_solve
from .structure import (FAMILY_ASSEMBLED, FAMILY_OCTONION, FAMILY_POSITIVE, FAMILY_QUATERNIONIC, FAMILY_SPLIT,
                        FAMILY_SQRT, ModuleReport, Signature, _metric_failures, _monomial, audit)

ZERO = Fraction(0)
ONE = Fraction(1)


class SpinorModule:
    """A represented Clifford module.

    ``field`` is the intertwiner-algebra tag K of the module.  ``space``
    records the real basis layout: when ``space.field`` equals ``field`` the
    basis is grouped into K-orbits (K-coordinate fastest) and the right
    K-action is block-diagonal; alternative families keep a plain real layout
    and carry their right action explicitly in ``right_units``.
    """

    __slots__ = ("signature", "field", "generators", "space", "spin_metric", "family", "variant",
                 "right_units", "_blade_ops")

    def __init__(self, signature: Signature, field: str, generators: tuple[QMat, ...], space: GradedSpace,
                 spin_metric: QMat, family: str, variant: str, right_units: tuple[QMat, ...]):
        self.signature = signature
        self.field = field
        self.generators = generators
        self.space = space
        self.spin_metric = spin_metric
        self.family = family
        self.variant = variant
        self.right_units = right_units
        self._blade_ops: dict[int, QMat] = {}  # blade mask -> its operator, filled by blade_operator

    @property
    def real_dim(self) -> int:
        return self.generators[0].nrows

    def real_grading(self) -> tuple[int, ...] | None:
        return self.space.real_grading()

    def blade_operator(self, mask: int) -> QMat:
        """Representing matrix of the basis blade with the given mask."""
        if mask in self._blade_ops:
            return self._blade_ops[mask]
        if mask == 0:
            op = QMat.identity(self.real_dim)
        else:
            low = mask & -mask
            rest = mask & (mask - 1)
            # ascending factor order: e_low * e_rest
            op = self.generators[low.bit_length() - 1] * self.blade_operator(rest)
        self._blade_ops[mask] = op
        return op

    def operator(self, x: Multivector) -> QMat:
        """Representing matrix of an arbitrary multivector."""
        if x.signature != self.signature:
            raise InputError("multivector signature does not match module")
        out = QMat.zeros(self.real_dim, self.real_dim)
        for mask, c in x.terms.items():
            out = out + self.blade_operator(mask).scale(c)
        return out

    def volume_operator(self) -> QMat:
        return self.blade_operator((1 << self.signature.n) - 1)

    def describe(self) -> str:
        return (
            f"{self.signature} module, family={self.family}, variant={self.variant}, "
            f"K={self.field}, real_dim={self.real_dim}"
        )


def _right_unit_matrices(space: GradedSpace) -> tuple[QMat, ...]:
    """Block-diagonal right multiplications by the imaginary units of the
    layout field (valid for K-blocked bases)."""
    k = ALGEBRA_DIM[space.field]
    if k == 1:
        return ()
    units = []
    for t in range(1, k):
        rm = alg.rmul_matrix(alg.unit(space.field, t))
        entries = {}
        for p in range(space.dim):
            for i, j, v in rm.entries():
                entries[(p * k + i, p * k + j)] = v
        units.append(QMat.from_entries(space.real_dim, space.real_dim, entries))
    return tuple(units)


def _module(sig, field_tag, gens, space, family, variant, metric=None, right_units=None) -> SpinorModule:
    gens = tuple(gens)
    d = gens[0].nrows
    if metric is None:
        metric = QMat.identity(d)
    if right_units is None:
        right_units = _right_unit_matrices(space) if space.field == field_tag else ()
    return SpinorModule(sig, field_tag, gens, space, metric, family, variant, tuple(right_units))


# ---------------------------------------------------------------------------
# Base modules in dimensions 1..4
# ---------------------------------------------------------------------------


def _realified(rows: list[list[KElement]]) -> QMat:
    """Realified matrix, in the K-blocked layout, of the right-K-linear map
    with these K-entries: one left-multiplication block per entry."""
    k = ALGEBRA_DIM[rows[0][0].algebra]
    entries = {}
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            for bi, bj, v in alg.lmul_matrix(e).entries():
                entries[(i * k + bi, j * k + bj)] = v
    return QMat.from_entries(len(rows) * k, len(rows[0]) * k, entries)


def c4_action(q: KElement) -> QMat:
    """Odd right-H-linear action of q on the quaternionic multivectors H (+) H:
    wedge by q on the degree-0 part minus contraction (left multiplication by
    conj(q)) on the degree-1 part."""
    if q.algebra != "H":
        raise InputError("c4_action expects a quaternion")
    z = alg.zero("H")
    return _realified([[z, alg.neg(alg.conj(q))], [q, z]])


def _c4_pos_action(q: KElement) -> QMat:
    """Same blocks with the contraction added instead of subtracted; squares
    to +|q|^2 and represents the positive-signature dimension 4."""
    z = alg.zero("H")
    return _realified([[z, alg.conj(q)], [q, z]])


def _left_version(m: QMat, k: int) -> QMat:
    """Left-module version J m J of a realified right-module map over the
    field of dimension k, transported through componentwise conjugation J of
    each K-block: J lmul(e) J = rmul(conj e), as conj(e conj x) = x conj e."""
    flip = QMat.diag(([1] + [-1] * (k - 1)) * (m.nrows // k))
    return flip * m * flip


_H_UNITS = [alg.unit("H", t) for t in range(4)]


def _base(n: int, positive: bool, variant: str) -> tuple[str, list[QMat], GradedSpace]:
    """Field, realified generators and layout of the base module in
    dimension n = 1..4.

    Cl(0,n): C, H, +-H and the graded quaternionic multivectors H (+) H.
    Cl(n,0): the real, complex and quaternionic multivector models with
    wedge-plus-contraction.  The minus variant negates the generators of the
    one base module that has it, Cl(0,3) or Cl(1,0).
    """
    sign = -1 if variant == "minus" else 1
    if not positive:
        if n == 1:
            return "C", [_realified([[alg.unit("C", 1)]])], GradedSpace("C", 1)
        if n in (2, 3):
            gens = [_realified([[alg.scale(_H_UNITS[t], sign)]]) for t in range(1, n + 1)]
            return "H", gens, GradedSpace("H", 1)
        return "H", [c4_action(u) for u in _H_UNITS], GradedSpace("H", 2, (1, -1))
    if n == 1:
        return "R", [QMat.diag([sign])], GradedSpace("R", 1)
    if n == 2:
        # wedge plus contraction on R (+) R, and the degree sign
        return "R", [QMat.from_dense([[0, 1], [1, 0]]), QMat.diag([1, -1])], GradedSpace("R", 2)
    if n == 3:
        i1 = alg.unit("C", 1)
        z, o = alg.zero("C"), alg.one("C")
        gens = [
            _realified([[z, o], [o, z]]),
            _realified([[z, alg.neg(i1)], [i1, z]]),
            _realified([[o, z], [z, alg.neg(o)]]),
        ]
        return "C", gens, GradedSpace("C", 2)
    return "H", [_c4_pos_action(u) for u in _H_UNITS], GradedSpace("H", 2, (1, -1))


# ---------------------------------------------------------------------------
# Tensor assembly
# ---------------------------------------------------------------------------


def _tensor_gens(left_gens, right_gens, m: GradedSpace, n: GradedSpace) -> list[QMat]:
    """Generators of a tensor product: T (x) I for each left generator, then
    I (x)^ S with the Koszul sign for each right one (a realified left-module
    map); generator slots are odd."""
    return ([tensor_op_left(t, m, n) for t in left_gens]
            + [tensor_op_right(s, m, n, odd=True) for s in right_gens])


def _tensor_r(sig: Signature, left: SpinorModule, right: SpinorModule, variant: str) -> SpinorModule:
    """Graded real tensor product of a graded left factor with a right one.

    The layout is the right factor's K-blocks, graded exactly when the right
    factor's layout is.  The right K-actions of both factors are lifted, as
    U (x) I and I (x) U (even operators, so no Koszul signs), and K is the
    field of whichever factor is not over R.
    """
    if left.space.grading is None:
        raise StructureError("left tensor factor must be graded")
    m = GradedSpace("R", left.real_dim, left.real_grading())
    n = GradedSpace("R", right.real_dim)
    gens = _tensor_gens(left.generators, right.generators, m, n)
    rg = right.space.grading
    grading = None if rg is None else tuple(a * b for a in m.grading for b in rg)
    space = GradedSpace(right.space.field, left.real_dim * right.space.dim, grading)
    units = [tensor_op_left(u, m, n) for u in left.right_units]
    units += [tensor_op_right(u, m, n, odd=False) for u in right.right_units]
    field_tag = right.field if left.field == "R" else left.field
    return _module(sig, field_tag, gens, space, FAMILY_ASSEMBLED, variant, right_units=units)


def _restrict_h_to_c(mod: SpinorModule) -> tuple[list[QMat], GradedSpace]:
    """Re-block a right-H module over its subalgebra C = span(1, i).

    The C-basis per H-slot is (m, m*j); the fourth real basis vector flips
    sign so that each pair (m*j, m*j*i) = (m*j, -m*k) is a C-orbit.
    """
    if mod.space.field != "H":
        raise StructureError("restriction expects an H-blocked module")
    d = mod.real_dim
    flip = QMat.diag([1, 1, 1, -1] * (d // 4))
    gens = [flip * g * flip for g in mod.generators]
    grading = None
    if mod.space.grading is not None:
        grading = tuple(g for g in mod.space.grading for _ in range(2))
    return gens, GradedSpace("C", mod.space.dim * 2, grading)


@lru_cache(maxsize=None)
def _definite(n: int, positive: bool, variant: str) -> SpinorModule:
    """Irreducible module for Cl(n,0) when ``positive``, else for Cl(0,n).

    Dimensions 1..4 are the base modules.  Beyond, n = 8k + r with r = 1..8:

    * k >= 1 and r = 1..4 or 8: the graded real tensor product of S_(8k)
      with S_r, space-graded when S_r is (r = 4, 8);
    * otherwise (r = 5..7, or n = 8): S_(8k+4) tensored with the base factor of
      dimension m = r - 4 over that factor's field F: over R the left
      factor's right-H action survives (K = H); over C the left factor is
      re-blocked over C (K = C); over H the product is real (K = R).

    S_r and the base factor have the residue of n mod 4, so they carry the
    minus variant exactly when the whole module does (s - r = 3 mod 4).
    """
    if n < 1:
        raise InputError("dimension must be >= 1")
    if variant not in ("plus", "minus"):
        raise InputError(f"variant must be 'plus' or 'minus', got {variant!r}")
    sig = Signature(n, 0) if positive else euclidean(n)
    if variant == "minus" and (sig.s - sig.r) % 4 != 3:
        raise InputError(f"minus variant not available in dimension {n}")
    if n <= 4:
        field_tag, gens, space = _base(n, positive, variant)
        family = FAMILY_POSITIVE if positive else FAMILY_QUATERNIONIC
        return _module(sig, field_tag, gens, space, family, variant)
    k, r = divmod(n - 1, 8)
    r += 1
    if k and r not in (5, 6, 7):
        return _tensor_r(sig, _definite(8 * k, positive, "plus"), _definite(r, positive, variant), variant)
    left = _definite(8 * k + 4, positive, "plus")
    small = _definite(r - 4, positive, variant)
    small_space = small.space
    if small_space.field == "R":
        return _tensor_r(sig, left, small, variant)
    if small_space.field == "C":
        left_gens, left_space = _restrict_h_to_c(left)
        # the C factors, Cl(0,1) and Cl(3,0), carry no grading
        space = GradedSpace("C", left_space.dim * small_space.dim)
    else:
        # over H the product is real, graded when the base factor is (dimension 4)
        left_gens, left_space = left.generators, left.space
        grading = None
        if small_space.grading is not None:
            grading = tuple(a * b for a in left_space.grading for b in small_space.grading for _ in range(4))
        space = GradedSpace("R", left_space.dim * small_space.dim * 4, grading)
    right_gens = [_left_version(g, ALGEBRA_DIM[small_space.field]) for g in small.generators]
    gens = _tensor_gens(left_gens, right_gens, left_space, small_space)
    return _module(sig, space.field, gens, space, FAMILY_ASSEMBLED, variant)


def assemble_euclidean(n: int, variant: str = "plus") -> SpinorModule:
    """Irreducible module for Euclidean Cl(0,n), any n >= 1."""
    return _definite(n, False, variant)


def assemble_positive(n: int, variant: str = "plus") -> SpinorModule:
    """Irreducible module for Cl(n,0), any n >= 1."""
    return _definite(n, True, variant)


# ---------------------------------------------------------------------------
# Split signature Cl(i,i) on the exterior algebra
# ---------------------------------------------------------------------------


def _wedge_matrix(i_dim: int, j: int) -> QMat:
    entries = {}
    for mask in range(1 << i_dim):
        if mask >> j & 1:
            continue
        entries[(mask | 1 << j, mask)] = Fraction(reorder_sign(1 << j, mask))
    return QMat.from_entries(1 << i_dim, 1 << i_dim, entries)


def _contract_matrix(i_dim: int, j: int) -> QMat:
    entries = {}
    for mask in range(1 << i_dim):
        if not mask >> j & 1:
            continue
        entries[(mask & ~(1 << j), mask)] = Fraction(reorder_sign(1 << j, mask))
    return QMat.from_entries(1 << i_dim, 1 << i_dim, entries)


def split_clifford_action(i: int, xs, omegas) -> QMat:
    """Action of the pair (x, omega) on the exterior algebra of R^i:
    wedge by x minus contraction by omega."""
    if i < 1:
        raise InputError("split dimension must be >= 1")
    if len(xs) != i or len(omegas) != i:
        raise InputError("coordinate length mismatch")
    out = QMat.zeros(1 << i, 1 << i)
    for j in range(i):
        cx = Fraction(xs[j])
        if cx:
            out = out + _wedge_matrix(i, j).scale(cx)
        cw = Fraction(omegas[j])
        if cw:
            out = out - _contract_matrix(i, j).scale(cw)
    return out


@lru_cache(maxsize=None)
def split_signature_module(i: int) -> SpinorModule:
    """Cl(i,i) on the exterior algebra of R^i, graded by multivector parity.

    The natural pairing g((x,omega),(y,tau)) = omega(y) + tau(x) satisfies
    the Clifford condition only after the normalization g/2 (recorded as a
    likely erratum in the source normalization); the generators below are the
    g/2-orthonormal vectors x_j -+ omega_j, so the represented relations are
    exact with no runtime rescaling.
    """
    if i < 1:
        raise InputError("split dimension must be >= 1")
    dim = 1 << i
    gens = []
    for j in range(i):  # squares +1
        gens.append(_wedge_matrix(i, j) + _contract_matrix(i, j))
    for j in range(i):  # squares -1
        gens.append(_wedge_matrix(i, j) - _contract_matrix(i, j))
    grading = tuple(1 if bin(mask).count("1") % 2 == 0 else -1 for mask in range(dim))
    space = GradedSpace("R", dim, grading)
    return _module(Signature(i, i), "R", gens, space, FAMILY_SPLIT, "plus")


@lru_cache(maxsize=None)
def assemble_signature(r: int, s: int, variant: str = "plus") -> SpinorModule:
    """Irreducible module for Cl(r,s), any signature.

    Peels off the maximal split block Cl(i,i) with i = min(r,s) and tensors
    its exterior-algebra module with the leftover definite-signature module;
    generator order is (+1-squaring split, +1 leftover, -1 split, -1
    leftover) to match the signature convention.  A minus variant exists
    exactly when s - r = 3 mod 4 and is carried by the leftover factor.
    """
    sig = Signature(r, s)
    if r == 0 or s == 0:
        return _definite(r + s, s == 0, variant)
    if variant == "minus" and (s - r) % 4 != 3:
        raise InputError(f"minus variant not available for signature ({r},{s})")
    i = min(r, s)
    split = split_signature_module(i)
    if r == s:
        return split
    product = _tensor_r(sig, split, _definite(abs(r - s), r > s, variant), variant)
    gens = product.generators
    if r > s:
        gens = gens[:i] + gens[2 * i :] + gens[i : 2 * i]
    space = GradedSpace(product.space.field, product.space.dim)  # the layout stays ungraded
    return _module(sig, product.field, gens, space, FAMILY_ASSEMBLED, variant, right_units=product.right_units)


# ---------------------------------------------------------------------------
# Square roots of space (Euclidean, dimensions 1..4)
# ---------------------------------------------------------------------------

def _sqrt_gens(n: int) -> list[QMat]:
    """Wedge-minus-contraction on the exterior algebra of R^n, which is left
    multiplication in Cl(0,n).  Where the volume element squares to +1
    (n = 3, 4) the action is restricted to the eps = (-1)^n eigenspace of
    right multiplication x -> x vol, which commutes with it; where it squares
    to -1 (n = 1, 2) the whole algebra is the module.

    The half has one basis vector per key blade x: (x + eps x vol)/2 for x
    below the middle degree and x + eps x vol for a middle-degree x that
    contains e_1, ordered by (grade, mask).  x vol is never a key blade, so
    coordinates are read off at the key blades."""
    gens = [_wedge_matrix(n, j) - _contract_matrix(n, j) for j in range(n)]
    sig, vol = euclidean(n), (1 << n) - 1
    if blade_product(sig, vol, vol)[0] < 0:
        return gens
    eps = -1 if n % 2 else 1
    key = sorted(
        (x for x in range(vol + 1) if 2 * x.bit_count() < n or 2 * x.bit_count() == n and x & 1),
        key=lambda x: (x.bit_count(), x),
    )
    span, read = {}, {}
    for k, x in enumerate(key):
        weight = ONE if 2 * x.bit_count() == n else Fraction(1, 2)
        sign, partner = blade_product(sig, x, vol)
        span[(x, k)], span[(partner, k)] = weight, eps * sign * weight
        read[(k, x)] = 1 / weight
    span = QMat.from_entries(vol + 1, len(key), span)
    read = QMat.from_entries(len(key), vol + 1, read)
    halves = []
    for g in gens:
        image = g * span
        half = read * image
        if span * half != image:
            raise StructureError("sqrt-space image left the volume-element eigenspace")
        halves.append(half)
    return halves


def _solve_invariant_metric(gens, sig: Signature, right_units) -> QMat:
    """Unique-up-to-scale symmetric form making generators skew (e^2 = -1) or
    self-adjoint (e^2 = +1) and right units skew; normalized to 1 at (0,0).

    Each condition G^T X = -form * X G is an intertwining relation
    X G = (-form * G^T) X."""
    d = gens[0].nrows
    pairs = [(g, g.transpose().scale(-sig.form(idx))) for idx, g in enumerate(gens)]
    pairs += [(u, u.transpose().scale(-1)) for u in right_units]
    basis = intertwiner_space(pairs, d, d)
    if len(basis) != 1:
        raise StructureError(f"invariant metric space has dimension {len(basis)}")
    scale = basis[0].get(0, 0)
    if not scale:
        raise StructureError("invariant metric is degenerate at the first basis vector")
    metric = basis[0].scale(1 / scale)
    if metric.transpose() != metric:
        raise StructureError("invariant metric is not symmetric")
    for i in range(d):
        if metric.get(i, i) <= 0:
            raise StructureError("invariant metric is not positive on the basis")
    return metric


def _transported_right_units(target: SpinorModule, source: SpinorModule) -> tuple[QMat, ...]:
    """Push the right K-action of ``source`` through an explicit intertwiner
    onto ``target`` (both modules over the same signature and K)."""
    pairs = list(zip(source.generators, target.generators))
    basis = intertwiner_space(pairs, source.real_dim, target.real_dim)
    if not basis:
        raise StructureError("modules are not isomorphic: no intertwiner")
    x = basis[0]
    xi = _invert(x)
    return tuple(x * u * xi for u in source.right_units)


def _invert(m: QMat) -> QMat:
    """Inverse by one reduction of [M | I] to [I | M^-1]; M is singular
    exactly when a pivot lands in the right half."""
    d = m.nrows
    rr = Rref()
    for i, row in enumerate(m.rows):
        rr.add_row({**row, d + i: ONE})
    reduced = rr.reduced()
    if any(p >= d for p in reduced):
        raise StructureError("matrix is not invertible")
    return QMat(d, d, [{j - d: v for j, v in reduced[i].items() if j >= d} for i in range(d)])


@lru_cache(maxsize=None)
def sqrt_space_module(n: int) -> SpinorModule:
    """Euclidean modules on the exterior algebra of R^n, halved by right
    multiplication with the volume element (the Hodge star up to sign) where
    it squares to +1, see ``_sqrt_gens``; available in dimensions 1..4 only
    (beyond 4 the construction exceeds the irreducible dimension)."""
    if not 1 <= n <= 4:
        raise InputError("sqrt-space modules exist for dimensions 1..4 only")
    gens = _sqrt_gens(n)
    dim = gens[0].nrows
    field_tag = {1: "C", 2: "H", 3: "H", 4: "H"}[n]
    space = GradedSpace("R", dim)
    sig = euclidean(n)
    # the right K-action is transported from the quaternionic model through
    # an explicit intertwiner (variants matched first in dimension 3)
    variant = "plus"
    if n == 3:
        vol = gens[0] * gens[1] * gens[2]
        variant = "plus" if vol == QMat.identity(dim).scale(-1) else "minus"
    reference = assemble_euclidean(n, variant)
    stub = _module(sig, field_tag, gens, space, FAMILY_SQRT, variant, right_units=())
    units = _transported_right_units(stub, reference)
    if n <= 3:
        metric = QMat.identity(dim)
    else:
        metric = _solve_invariant_metric(gens, sig, units)
    return _module(sig, field_tag, gens, space, FAMILY_SQRT, variant,
                   metric=metric, right_units=units)


# ---------------------------------------------------------------------------
# Octonion modules (Euclidean, dimensions 4..8)
# ---------------------------------------------------------------------------

# imaginary units used for the embeddings: the second quaternionic half
# first (matching the dimension-4 construction q -> (0, q)), then the
# imaginary units of the first half
_OCT_IMAGINARY = [(4, 1), (5, 1), (6, 1), (7, 1), (1, 1), (2, 1), (3, 1)]


@lru_cache(maxsize=None)
def octonion_module(k: int) -> SpinorModule:
    """Octonion models: Cl(0,k) acting on O for 4 <= k <= 7 by right
    multiplication with imaginary units, and on O (+) O for k = 8 by
    x -> ((u,v) -> (-conj(x) v, x u)).  Alternativity makes the Clifford
    condition exact even though O is not associative."""
    if not 4 <= k <= 8:
        raise InputError("octonion modules exist for dimensions 4..8 only")
    sig = euclidean(k)
    if k <= 7:
        gens = [alg.rmul_matrix(alg.unit("O", _OCT_IMAGINARY[t][0])) for t in range(k)]
        dim = 8
        field_tag = {4: "H", 5: "C"}.get(k, "R")
        # diagonal right action (a,b).q = (aq, bq) of H, or of its C = span(1, i)
        right_units = _right_unit_matrices(GradedSpace("H", 2))[: ALGEBRA_DIM[field_tag] - 1]
    else:
        dim = 16
        gens = []
        for t in range(8):
            o = alg.unit("O", t)
            top = alg.lmul_matrix(alg.conj(o)).scale(-1)
            bottom = alg.lmul_matrix(o)
            entries = {}
            for i, j, v in top.entries():
                entries[(i, j + 8)] = v
            for i, j, v in bottom.entries():
                entries[(i + 8, j)] = v
            gens.append(QMat.from_entries(16, 16, entries))
        field_tag = "R"
        right_units = ()
    variant = "plus"
    if (sig.s - sig.r) % 4 == 3:
        vol = gens[0]
        for g in gens[1:]:
            vol = vol * g
        variant = "plus" if vol == QMat.identity(dim).scale(-1) else "minus"
    space = GradedSpace("R", dim)
    return _module(sig, field_tag, gens, space, FAMILY_OCTONION, variant,
                   right_units=right_units)


# ---------------------------------------------------------------------------
# Structure checks and derived data
# ---------------------------------------------------------------------------


def grading_from_volume(module: SpinorModule) -> GradedSpace:
    """Grading by the eigenspaces of the volume operator.

    Requires the volume element to square to +1; the projector ranks are read
    off exactly from the trace (the operator is an involution).  The returned
    grading is basis-aligned, which requires the volume operator to be
    diagonal in the module basis; all recipe modules satisfy this.
    """
    vol = module.volume_operator()
    d = module.real_dim
    if vol * vol != QMat.identity(d):
        raise InputError("volume element does not square to +1 on this module")
    tr = vol.trace()
    plus_rank = (d + tr) / 2
    if plus_rank.denominator != 1:
        raise StructureError("volume trace is not integral")
    diag = []
    for i in range(d):
        row = vol.rows[i]
        if set(row) != {i} or row[i] not in (1, -1):
            raise StructureError(
                f"volume operator is not diagonal; projector ranks are {plus_rank} and {d - plus_rank}"
            )
        diag.append(1 if row[i] == 1 else -1)
    return GradedSpace("R", d, tuple(diag))


class MetricReport:
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: list[str]):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok


def spin_metric_verify(module: SpinorModule, metric: QMat | None = None) -> MetricReport:
    """Metric part of the structural audit on a module, optionally against
    another candidate ``metric``.  Failures are reported, not raised."""
    m = module.spin_metric if metric is None else metric
    failures = _metric_failures(module.signature, module.generators, m, module.right_units)
    return MetricReport(not failures, failures)


def _submatrix(m, idxs: list[int]):
    """The block of ``m`` on rows and columns ``idxs``.  A ``SignedPerm``
    must map ``idxs`` to itself, and its block is one too."""
    pos = {v: t for t, v in enumerate(idxs)}
    if isinstance(m, SignedPerm):
        return SignedPerm([pos[m.perm[j]] for j in idxs], [m.signs[j] for j in idxs])
    entries = {}
    for i, j, v in m.entries():
        if i in pos and j in pos:
            entries[(pos[i], pos[j])] = v
    return QMat.from_entries(len(idxs), len(idxs), entries)


def _operators(module: SpinorModule) -> list:
    """The generators as ``SignedPerm``s when every one is a signed
    permutation, else as the module's ``QMat``s."""
    return _monomial(module.generators, module.real_dim) or list(module.generators)


def even_summand(module: SpinorModule) -> list[int] | None:
    """Basis indices of the +1 volume eigenspace when the volume element is
    even and squares to +1 (the module then splits as an even-subalgebra
    module), else None.  The volume operator must be diagonal there."""
    return _even_summand(_operators(module))


def _even_summand(gens: list) -> list[int] | None:
    """``even_summand`` of the module with generators ``gens``."""
    if len(gens) % 2:
        return None
    d = gens[0].nrows
    vol = gens[0]
    for g in gens[1:]:
        vol = vol * g
    if vol * vol != type(vol).identity(d):
        return None
    diag = SignedPerm.of(vol)  # a diagonal square root of 1 has entries +-1
    if diag is None or diag.perm != list(range(d)):
        raise StructureError("even commutant on a split module needs a diagonal volume operator")
    return [i for i in range(d) if diag.signs[i] == 1]


def intertwiners(module: SpinorModule, even_only: bool = False) -> Commutant:
    """Commutant of the full action, or of the even subalgebra.

    The even subalgebra is generated by the products e_1 e_j, so those n-1
    operators (or the identity in dimension 1) determine the even commutant.
    When the volume element is even and squares to +1 the module splits into
    the two volume eigenspaces as an even-subalgebra module; the commutant is
    then taken on the irreducible +1 summand (``even_summand``), which is the
    convention the classification tables use (otherwise the answer would
    double).
    """
    if not even_only:
        return commutant(list(module.generators), module.real_dim)
    gens = _operators(module)
    even = [gens[0] * g for g in gens[1:]] or [type(gens[0]).identity(module.real_dim)]
    plus = _even_summand(gens)
    if plus is not None:
        even = [_submatrix(g, plus) for g in even]
    return commutant(even, even[0].nrows)


def spinor_square(module: SpinorModule, s1: list, s2: list) -> Multivector:
    """Unique mixed-degree multivector omega with c(omega) = s1 (x) conj(s2).

    The right-hand side is the rank-one operator x -> s1 . k(s2, x) built
    from the K-valued spin metric; for signatures with s - r = 3 mod 4 the
    solve runs over even blades only (the full algebra acts through its even
    part there).  The solve is exact; a singular system raises.
    """
    d = module.real_dim
    s1 = [Fraction(c) for c in s1]
    s2 = [Fraction(c) for c in s2]
    if len(s1) != d or len(s2) != d:
        raise InputError("spinor length does not match module dimension")
    sig = module.signature
    n = sig.n
    even_only = (sig.s - sig.r) % 4 == 3
    masks = [m for m in range(1 << n) if not even_only or bin(m).count("1") % 2 == 0]

    # columns of the rank-one operator
    k_dim = ALGEBRA_DIM[module.field]
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


def verify_module(module: SpinorModule) -> ModuleReport:
    """The structural audit on the module's own data, exactly as
    ``files.module_to_payload`` writes it."""
    return audit(module.signature, module.field, module.generators, module.spin_metric,
                 (QMat.identity(module.real_dim),) + module.right_units, module.real_grading(), module.variant)
