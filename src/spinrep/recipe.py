"""The recipe modules: an irreducible real spinor module for every Cl(r,s),
assembled from signed permutation matrices.

One recipe builds both definite signatures from hand-written base modules
in dimensions 1..4 through mixed-field tensor products (Atiyah-Bott-Shapiro):

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

Every generator, right unit and spin metric of the recipe is a signed
permutation matrix (a monomial representation, Hile and Lounesto 1990): the
base modules' entries are signed units of R, C or H, whose multiplications
permute the units up to sign, and tensor placements and products keep that.
They are built and stored as ``SignedPerm``s, which the audit, the commutant
solve and the gamma-file writer take as they are.  The unit products are one
signed table, ``_UNITS``, of the octonion units e_0..e_7, whose first 1, 2
and 4 units are those of R, C and H; the octonion modules and
``spinrep.algebras`` read it too.  This module imports only
``errors``, ``linalg`` and ``structure``; the other families live in
``spinrep.modules`` and the commutant solve in ``spinrep.kmatrix``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm
from typing import TYPE_CHECKING

from .errors import InputError, StructureError
from .linalg import QMat, SignedPerm
from .structure import (FAMILY_ASSEMBLED, FAMILY_POSITIVE, FAMILY_QUATERNIONIC, FAMILY_SPLIT, FIELD_DIM, VARIANTS,
                        Report, Signature, audit)

if TYPE_CHECKING:
    from .clifford import Multivector
    from .kmatrix import Commutant


class GradedSpace:
    """Module over ``field`` with an optional basis-aligned Z2-grading.

    ``dim`` counts K-basis slots, each a run of dim_R(field) real basis
    vectors forming one K-orbit, K-coordinate fastest (the K-blocked layout).
    When present, ``grading`` assigns +1 or -1 to each slot.
    """

    __slots__ = ("field", "dim", "grading")

    def __init__(self, field: str, dim: int, grading: tuple[int, ...] | None = None):
        if field not in FIELD_DIM:
            raise InputError("GradedSpace field must be R, C or H")
        if grading is not None:
            if len(grading) != dim:
                raise InputError("grading length must equal dim")
            if any(g not in (1, -1) for g in grading):
                raise InputError("grading entries must be +1 or -1")
        self.field = field
        self.dim = dim
        self.grading = grading

    def __eq__(self, other):
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return (self.field, self.dim, self.grading) == (other.field, other.dim, other.grading)

    def __hash__(self):
        return hash((self.field, self.dim, self.grading))

    @property
    def real_dim(self) -> int:
        return self.dim * FIELD_DIM[self.field]

    def real_grading(self) -> tuple[int, ...] | None:
        """Grading expanded to the realified basis (constant on K-orbits)."""
        if self.grading is None:
            return None
        k = FIELD_DIM[self.field]
        return tuple(g for g in self.grading for _ in range(k))


def _qmat(m) -> QMat:
    return m.to_qmat() if isinstance(m, SignedPerm) else m


class SpinorModule:
    """A represented Clifford module.

    ``field`` is the intertwiner-algebra tag K of the module.  ``space``
    records the real basis layout: when ``space.field`` equals ``field`` the
    basis is grouped into K-orbits (K-coordinate fastest) and the right
    K-action is block-diagonal; alternative families keep a plain real layout
    and carry their right action explicitly in ``right_units``.

    ``gens``, ``metric`` and ``units`` are the generators, the spin metric and
    the right units as given: ``SignedPerm``s for a recipe module, ``QMat``s
    otherwise.  ``generators``, ``spin_metric`` and ``right_units`` are the
    same matrices as ``QMat``s, built on first access.
    """

    def __init__(self, signature: Signature, field: str, generators: tuple, space: GradedSpace,
                 spin_metric: QMat | SignedPerm, family: str, variant: str, right_units: tuple):
        self.signature = signature
        self.field = field
        self.gens = tuple(generators)
        self.space = space
        self.metric = spin_metric
        self.family = family
        self.variant = variant
        self.units = tuple(right_units)
        self._blade_ops: dict[int, QMat | SignedPerm] = {}  # blade mask -> its operator, filled by _blade_operator

    @cached_property
    def generators(self) -> tuple[QMat, ...]:
        return tuple(map(_qmat, self.gens))

    @cached_property
    def spin_metric(self) -> QMat:
        return _qmat(self.metric)

    @cached_property
    def right_units(self) -> tuple[QMat, ...]:
        return tuple(map(_qmat, self.units))

    @property
    def real_dim(self) -> int:
        return self.gens[0].nrows

    def real_grading(self) -> tuple[int, ...] | None:
        return self.space.real_grading()

    def blade_operator(self, mask: int) -> QMat | SignedPerm:
        """Representing matrix of the basis blade with the given mask, a
        product of ``gens`` and of their type."""
        if type(mask) is not int or not 0 <= mask < 1 << self.signature.n:
            raise InputError(f"blade mask {mask!r} invalid for {self.signature}")
        return self._blade_operator(mask)

    def _blade_operator(self, mask: int) -> QMat | SignedPerm:
        """``blade_operator`` for a mask already known to be valid."""
        op = self._blade_ops.get(mask)
        if op is None:
            if mask == 0:
                d = self.real_dim
                op = SignedPerm.identity(d) if isinstance(self.gens[0], SignedPerm) else QMat.identity(d)
            else:
                # ascending factor order: e_low * e_rest
                low = mask & -mask
                op = self.gens[low.bit_length() - 1] * self._blade_operator(mask & (mask - 1))
            self._blade_ops[mask] = op
        return op

    def operator(self, x: Multivector) -> QMat:
        """Representing matrix of an arbitrary multivector: x's integer
        numerators times the blade operators' integer entries, accumulated
        over one common denominator, and one ``QMat`` built at the end."""
        if x.signature != self.signature:
            raise InputError("multivector signature does not match module")
        ops = [(self._blade_operator(mask), v) for mask, v in x.nums.items()]
        # SignedPerm entries are integers; a QMat's are integers over its own denominator
        scale = lcm(*(op.den for op, _ in ops if isinstance(op, QMat)))
        d = self.real_dim
        acc: list[dict[int, int]] = [{} for _ in range(d)]
        for op, v in ops:
            if isinstance(op, SignedPerm):
                f = v * scale
                for j, (i, s) in enumerate(zip(op.perm, op.signs)):
                    row = acc[i]
                    row[j] = row.get(j, 0) + s * f
            else:
                f = v * (scale // op.den)
                for i, op_row in enumerate(op.num):
                    row = acc[i]
                    for j, a in op_row.items():
                        row[j] = row.get(j, 0) + a * f
        return QMat.from_numerators(d, d, [{j: a for j, a in row.items() if a} for row in acc], x.den * scale)


# ---------------------------------------------------------------------------
# Base modules in dimensions 1..4
# ---------------------------------------------------------------------------

def _doubled(units: tuple) -> tuple:
    """Signed unit table of the Cayley-Dickson double A (+) A of the algebra
    with these units: (a, b)(c, d) = (ac - conj(d) b, da + b conj(c)), where
    conj fixes the real unit and negates the others."""
    n = len(units)

    def product(t: int, j: int) -> tuple[int, int]:
        x, y = t % n, j % n
        bar = 1 if y == 0 else -1  # conj e_y = bar e_y
        if t < n and j < n:
            return units[x][y]
        if t < n:  # (x, 0)(0, y) = (0, yx)
            i, s = units[y][x]
            return n + i, s
        if j < n:  # (0, x)(y, 0) = (0, x conj y)
            i, s = units[x][y]
            return n + i, bar * s
        i, s = units[y][x]  # (0, x)(0, y) = (-conj(y) x, 0)
        return i, -bar * s

    return tuple(tuple(product(t, j) for j in range(2 * n)) for t in range(2 * n))


# _UNITS[t][j] = (i, sign): e_t e_j = sign e_i for the units e_0..e_7 of the
# octonions, doubled from the hand-written units (1, i, j, k) of H; the first
# 1, 2 and 4 units span R, C and H, each closed under these products
_UNITS = _doubled((
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
))


def _unit_blocks(blocks: list[list[tuple[int, int] | None]], k: int) -> SignedPerm:
    """Realified matrix, in the K-blocked layout (dim_R K = k), of the
    right-K-linear map whose K-entries are the signed units ``(t, sign)``, or
    None for 0, one in every block row and column: one left-multiplication
    block per entry.  With k = 8 the blocks are left multiplications by
    octonion units, which are not right-O-linear."""
    d = len(blocks) * k
    perm, signs = [0] * d, [0] * d
    for a, row in enumerate(blocks):
        for b, entry in enumerate(row):
            if entry is not None:
                t, sign = entry
                for j in range(k):
                    i, s = _UNITS[t][j]
                    perm[b * k + j], signs[b * k + j] = a * k + i, sign * s
    return SignedPerm(perm, signs)


def _right_units(space: GradedSpace) -> tuple[SignedPerm, ...]:
    """Block-diagonal right multiplications by the imaginary units e_t of the
    layout field (valid for K-blocked bases): e_j e_t in every K-block."""
    k = FIELD_DIM[space.field]
    return tuple(SignedPerm([p * k + _UNITS[j][t][0] for p in range(space.dim) for j in range(k)],
                            [_UNITS[j][t][1] for _ in range(space.dim) for j in range(k)])
                 for t in range(1, k))


def _module(sig, field_tag, gens, space, family, variant, units=None) -> SpinorModule:
    """A recipe module with the identity spin metric; its right units default
    to those of the layout field when that is K."""
    gens = tuple(gens)
    if units is None:
        units = _right_units(space) if space.field == field_tag else ()
    return SpinorModule(sig, field_tag, gens, space, SignedPerm.identity(gens[0].nrows), family, variant, units)


def _left_version(m, k: int):
    """Left-module version J m J of a realified right-module map over the
    field of dimension k, transported through componentwise conjugation J of
    each K-block: J lmul(e) J = rmul(conj e), as conj(e conj x) = x conj e."""
    flip = type(m).diag(([1] + [-1] * (k - 1)) * (m.nrows // k))
    return flip * m * flip


def _base(n: int, positive: bool, variant: str) -> tuple[str, list[SignedPerm], GradedSpace]:
    """Field, realified generators and layout of the base module in
    dimension n = 1..4.

    Cl(0,n): C, H, +-H and the graded quaternionic multivectors H (+) H, on
    which a unit q acts as [[0, -conj q], [q, 0]].  Cl(n,0): the real,
    complex and quaternionic multivector models with wedge-plus-contraction,
    in dimension 4 [[0, conj q], [q, 0]].  The minus variant negates the
    generators of the one base module that has it, Cl(0,3) or Cl(1,0).
    """
    sign = -1 if variant == "minus" else 1
    if not positive:
        if n == 1:
            return "C", [_unit_blocks([[(1, 1)]], 2)], GradedSpace("C", 1)
        if n in (2, 3):
            return "H", [_unit_blocks([[(t, sign)]], 4) for t in range(1, n + 1)], GradedSpace("H", 1)
        gens = [_unit_blocks([[None, (t, 1 if t else -1)], [(t, 1), None]], 4) for t in range(4)]
        return "H", gens, GradedSpace("H", 2, (1, -1))
    if n == 1:
        return "R", [SignedPerm.diag([sign])], GradedSpace("R", 1)
    if n == 2:
        # wedge plus contraction on R (+) R, and the degree sign
        return "R", [SignedPerm([1, 0], [1, 1]), SignedPerm.diag([1, -1])], GradedSpace("R", 2)
    if n == 3:
        blocks = ([[None, (0, 1)], [(0, 1), None]], [[None, (1, -1)], [(1, 1), None]],
                  [[(0, 1), None], [None, (0, -1)]])
        return "C", [_unit_blocks(b, 2) for b in blocks], GradedSpace("C", 2)
    gens = [_unit_blocks([[None, (t, -1 if t else 1)], [(t, 1), None]], 4) for t in range(4)]
    return "H", gens, GradedSpace("H", 2, (1, -1))


# ---------------------------------------------------------------------------
# Tensor assembly
# ---------------------------------------------------------------------------


def _tensor_op(x, m: GradedSpace, n: GradedSpace, left: bool, odd: bool):
    """``x`` placed on one slot of the realified M (x)_K N, as ``T (x) I`` when
    ``left``, else as ``I (x)^ S``; the result has ``x``'s type."""
    if m.field != n.field:
        raise InputError("factors are over different fields")
    k, a, b = FIELD_DIM[m.field], m.dim, n.dim
    if x.nrows != x.ncols or x.nrows != (m if left else n).real_dim:
        raise InputError(f"operator size does not match {'left' if left else 'right'} factor")
    signs = [-1 if odd and g == -1 else 1 for g in m.grading or (1,) * a]
    entries = {}
    for i, j, v in x.entries():
        (u, bi), (p, bj) = divmod(i, k), divmod(j, k)
        if left:
            for q in range(b):
                entries[(u * b + q) * k + bi, (p * b + q) * k + bj] = v
        else:
            for slot in range(a):
                entries[(slot * b + u) * k + bi, (slot * b + p) * k + bj] = v * signs[slot]
    return type(x).from_entries(k * a * b, k * a * b, entries)


def tensor_op_left(t, m: GradedSpace, n: GradedSpace):
    """Realified ``T (x) I`` on M (x)_K N for a right-K-linear T given by its
    realified matrix on M (K-blocked basis)."""
    return _tensor_op(t, m, n, True, False)


def tensor_op_right(s, m: GradedSpace, n: GradedSpace, odd: bool = True):
    """Realified ``I (x)^ S`` on M (x)_K N with the graded sign rule, for a
    left-K-linear S given by its realified matrix on N (K-blocked basis; for
    C and H, the conjugate J S' J of a right-K-linear S', see
    ``_left_version``).

    When M carries a grading and ``odd`` is set, slot p of M contributes the
    sign (-1)^(deg m_p); this is the sign rule
    (T (x)^ S)(m (x) n) = (-1)^(deg S * deg m) T m (x) S n  for one slot.
    """
    return _tensor_op(s, m, n, False, odd)


def _tensor_gens(left_gens, right_gens, m: GradedSpace, n: GradedSpace) -> list[SignedPerm]:
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
    gens = _tensor_gens(left.gens, right.gens, m, n)
    rg = right.space.grading
    grading = None if rg is None else tuple(a * b for a in m.grading for b in rg)
    space = GradedSpace(right.space.field, left.real_dim * right.space.dim, grading)
    units = [tensor_op_left(u, m, n) for u in left.units]
    units += [tensor_op_right(u, m, n, odd=False) for u in right.units]
    field_tag = right.field if left.field == "R" else left.field
    return _module(sig, field_tag, gens, space, FAMILY_ASSEMBLED, variant, units=units)


def _restrict_h_to_c(mod: SpinorModule) -> tuple[list[SignedPerm], GradedSpace]:
    """Re-block a right-H module over its subalgebra C = span(1, i).

    The C-basis per H-slot is (m, m*j); the fourth real basis vector flips
    sign so that each pair (m*j, m*j*i) = (m*j, -m*k) is a C-orbit.
    """
    if mod.space.field != "H":
        raise StructureError("restriction expects an H-blocked module")
    flip = SignedPerm.diag([1, 1, 1, -1] * (mod.real_dim // 4))
    gens = [flip * g * flip for g in mod.gens]
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
    minus variant exactly when the whole module does, and the recursion
    passes only valid (n, variant) pairs; ``assemble_signature`` checks them.
    """
    sig = Signature(n, 0) if positive else Signature(0, n)
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
        left_gens, left_space = left.gens, left.space
        grading = None
        if small_space.grading is not None:
            grading = tuple(a * b for a in left_space.grading for b in small_space.grading for _ in range(4))
        space = GradedSpace("R", left_space.dim * small_space.dim * 4, grading)
    right_gens = [_left_version(g, FIELD_DIM[small_space.field]) for g in small.gens]
    gens = _tensor_gens(left_gens, right_gens, left_space, small_space)
    return _module(sig, space.field, gens, space, FAMILY_ASSEMBLED, variant)


def assemble_euclidean(n: int, variant: str = "plus") -> SpinorModule:
    """Irreducible module for Euclidean Cl(0,n), any n >= 1."""
    return assemble_signature(0, n, variant)


def assemble_positive(n: int, variant: str = "plus") -> SpinorModule:
    """Irreducible module for Cl(n,0), any n >= 1."""
    return assemble_signature(n, 0, variant)


# ---------------------------------------------------------------------------
# Split signature Cl(i,i) on the exterior algebra
# ---------------------------------------------------------------------------


def _exterior_action(i: int, j: int, contraction: int) -> SignedPerm:
    """Wedge by e_j plus ``contraction`` (+1 or -1) times contraction by e_j
    on the exterior algebra of R^i, on the blades by mask: either moves e_j
    across the blade's generators below it, with the sign of that reordering."""
    bit = 1 << j
    return SignedPerm([mask ^ bit for mask in range(1 << i)],
                      [(-1) ** (mask & (bit - 1)).bit_count() * (contraction if mask & bit else 1)
                       for mask in range(1 << i)])


# the most generators, r + s, of a module built here: at 24 a module acts on
# up to R^8192, and far larger counts exhaust the memory or the recursion
_MAX_GENERATORS = 24


@lru_cache(maxsize=None, typed=True)  # a float misses the cache and meets the integer check
def split_signature_module(i: int) -> SpinorModule:
    """Cl(i,i) on the exterior algebra of R^i, graded by multivector parity.

    The natural pairing g((x,omega),(y,tau)) = omega(y) + tau(x) satisfies
    the Clifford condition only after the normalization g/2 (recorded as a
    likely erratum in the source normalization); the generators below are the
    g/2-orthonormal vectors x_j -+ omega_j, so the represented relations are
    exact with no runtime rescaling.
    """
    if type(i) is not int or i < 1:
        raise InputError("split dimension must be >= 1")
    if 2 * i > _MAX_GENERATORS:
        raise InputError(f"modules are built for at most {_MAX_GENERATORS} generators, got Cl({i},{i})")
    # x_j + omega_j square to +1, then x_j - omega_j to -1
    gens = [_exterior_action(i, j, c) for c in (1, -1) for j in range(i)]
    grading = tuple(1 if mask.bit_count() % 2 == 0 else -1 for mask in range(1 << i))
    return _module(Signature(i, i), "R", gens, GradedSpace("R", 1 << i, grading), FAMILY_SPLIT, "plus")


@lru_cache(maxsize=None, typed=True)  # a float misses the cache and meets the integer check
def assemble_signature(r: int, s: int, variant: str = "plus") -> SpinorModule:
    """Irreducible module for Cl(r,s), any signature.

    Peels off the maximal split block Cl(i,i) with i = min(r,s) and tensors
    its exterior-algebra module with the leftover definite-signature module;
    generator order is (+1-squaring split, +1 leftover, -1 split, -1
    leftover) to match the signature convention.  A minus variant exists
    exactly when ``Signature.variants`` has it and is carried by the leftover
    factor.  This is the one entry that checks a variant.
    """
    sig = Signature(r, s)
    if variant not in VARIANTS:
        raise InputError(f"variant must be 'plus' or 'minus', got {variant!r}")
    if variant not in sig.variants:
        raise InputError(f"minus variant not available for signature ({r},{s})")
    if sig.n > _MAX_GENERATORS:
        raise InputError(f"modules are built for at most {_MAX_GENERATORS} generators, got Cl({r},{s})")
    if r == 0 or s == 0:
        return _definite(r + s, s == 0, variant)
    i = min(r, s)
    split = split_signature_module(i)
    if r == s:
        return split
    product = _tensor_r(sig, split, _definite(abs(r - s), r > s, variant), variant)
    gens = product.gens
    if r > s:
        gens = gens[:i] + gens[2 * i :] + gens[i : 2 * i]
    space = GradedSpace(product.space.field, product.space.dim)  # the layout stays ungraded
    return _module(sig, product.field, gens, space, FAMILY_ASSEMBLED, variant, units=product.units)


# ---------------------------------------------------------------------------
# Audit and commutants
# ---------------------------------------------------------------------------


def verify_module(module: SpinorModule) -> Report:
    """The structural audit on the module's own data, exactly as
    ``files.module_to_payload`` writes it."""
    ident = type(module.metric).identity(module.real_dim)
    return audit(module.signature, module.field, module.gens, module.metric, (ident,) + module.units,
                 module.real_grading(), module.variant)


def _submatrix(m, idxs: list[int]):
    """The block of ``m`` on rows and columns ``idxs``.  A ``SignedPerm``
    must map ``idxs`` to itself, and its block is one too."""
    pos = {v: t for t, v in enumerate(idxs)}
    if isinstance(m, SignedPerm):
        return SignedPerm([pos[m.perm[j]] for j in idxs], [m.signs[j] for j in idxs])
    return QMat.from_numerators(len(idxs), len(idxs),
                                [{pos[j]: v for j, v in m.num[i].items() if j in pos} for i in idxs], m.den)


def volume_diagonal(module: SpinorModule) -> list[int] | None:
    """The +-1 diagonal of the volume operator e_1 ... e_n, the blade
    operator of the module's own matrices, or None when it does not square to
    1.  A square root of 1 that is not diagonal in the module basis raises."""
    vol = module.blade_operator((1 << module.signature.n) - 1)
    d = vol.nrows
    if vol * vol != type(vol).identity(d):
        return None
    diag = SignedPerm.of(vol)  # a diagonal square root of 1 has entries +-1
    if diag is None or diag.perm != list(range(d)):
        raise StructureError("volume operator is not diagonal in the module basis")
    return diag.signs


def even_summand(module: SpinorModule) -> list[int] | None:
    """Basis indices of the +1 volume eigenspace when the volume element is
    even and squares to +1 (the module then splits as an even-subalgebra
    module), else None.  The volume operator must be diagonal there."""
    diag = None if module.signature.n % 2 else volume_diagonal(module)
    return None if diag is None else [i for i, s in enumerate(diag) if s == 1]


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
    from .kmatrix import commutant

    if not even_only:
        return commutant(list(module.gens), module.real_dim)
    gens = module.gens
    even = [gens[0] * g for g in gens[1:]] or [type(gens[0]).identity(module.real_dim)]
    plus = even_summand(module)
    if plus is not None:
        even = [_submatrix(g, plus) for g in even]
    return commutant(even, even[0].nrows)
