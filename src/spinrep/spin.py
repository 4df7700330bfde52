"""Spin groups as even multivectors: reflections, the twisted adjoint and
constructive lifts of rotation matrices.

Exactness note.  A rational rotation matrix rarely lifts to a *unit* even
multivector with rational coefficients (half-angle cosines are irrational),
so exact spin elements are stored as even versors together with the positive
scalar ``value * reversion(value)``.  Every group-level statement (twisted
adjoint, double-cover sign, action comparisons) is scale-invariant, which
keeps the whole exact path free of square roots.  Sampled geometry uses the
separate floating-point quaternions of ``surfaces``; the two never mix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .clifford import Multivector, euclidean
from .errors import InputError, StructureError
from .linalg import QMat, _exact
from .recipe import SpinorModule, _submatrix, even_summand, intertwiners
from .structure import Report, Signature

_NOT_SPECIAL_ORTHOGONAL = "input is not an exact special orthogonal matrix"


class SpinElement:
    """Even versor with rational coefficients.

    ``value * reversion(value)`` is the positive rational ``norm2``; the
    corresponding group element is value / sqrt(norm2), which is generally
    irrational and never materialized.
    """

    __slots__ = ("value", "norm2")

    def __init__(self, value: Multivector, norm2: Fraction):
        self.value = value
        self.norm2 = norm2

    def __eq__(self, other):
        if not isinstance(other, SpinElement):
            return NotImplemented
        return self.value == other.value and self.norm2 == other.norm2

    @staticmethod
    def from_multivector(x: Multivector) -> "SpinElement":
        if not x.is_even():
            raise InputError("spin elements must be even multivectors")
        t = x.times_reversion()
        if not t.is_scalar():
            raise InputError("value * reversion(value) must be scalar")
        n2 = t.scalar_part()
        if n2 <= 0:
            raise InputError("value * reversion(value) must be positive")
        return SpinElement(x, n2)

    @property
    def signature(self) -> Signature:
        return self.value.signature

    def __neg__(self) -> "SpinElement":
        return SpinElement(-self.value, self.norm2)

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        return SpinElement(self.value * other.value, self.norm2 * other.norm2)


def reflection(w, v, sig: Signature) -> list[Fraction]:
    """Reflect ``v`` through the hyperplane orthogonal to ``w``:
    v - 2 g(v,w)/g(w,w) w.  Exact; ``w`` need not be normalized."""
    w = [_exact(c) for c in w]
    v = [_exact(c) for c in v]
    ww = sig.bilinear(w, w)
    if ww == 0:
        raise InputError("reflection vector has g(w,w) = 0")
    coef = 2 * sig.bilinear(v, w) / ww
    return [a - coef * b for a, b in zip(v, w)]


def twisted_adjoint_matrix(g: Multivector) -> list[list[Fraction]]:
    """Matrix of the twisted adjoint v -> g v grade_involution(g)^(-1) on
    basis vectors (columns are images).

    ``g_hat = grade_involution(g)`` and its inverse ``gi`` are formed once.
    Each column reads only the grade-1 part ``w`` of ``h gi``, ``h = g e_i``
    (``Multivector.vector_part_times``), in O(n |g|) products of blade terms,
    and checks ``h == w g_hat`` exactly: as g_hat is invertible, that holds
    exactly when ``h gi`` is the vector ``w``.  A column that is not a vector
    (g outside the Clifford group) raises ``StructureError``.
    """
    sig = g.signature
    g_hat = g.grade_involution()
    gi = g_hat.inverse()
    cols = []
    for i in range(sig.n):
        h = g * Multivector.generator(sig, i)
        w = h.vector_part_times(gi)
        if w * g_hat != h:
            raise StructureError("multivector is not homogeneous of grade 1")
        cols.append(w.vector_coords())
    return [[cols[j][i] for j in range(sig.n)] for i in range(sig.n)]


def spin_lift(rotation: list[list], sig: Signature | None = None) -> SpinElement:
    """Even versor whose twisted adjoint is the given rotation, exactly.

    Requires an exactly orthogonal rational matrix with determinant 1 over a
    Euclidean signature.  The lift is a product of reflection vectors found
    by column reduction (map column j to e_j, one reflection or none per
    column).  k reflections H_k ... H_1 R = I give det R = (-1)^k, so an odd
    count is a determinant -1 and is refused.  The returned element is one
    of the two lifts; negate for the other.  The work is on integers: M = D R
    (D the common denominator) is checked as M^T M = D^2 I, and each column is
    reduced as numerators over its own denominator, in lowest terms.
    """
    rows = [[_exact(c) for c in r] for r in rotation]
    n = len(rows)
    if sig is None:
        sig = euclidean(n)
    if sig.r != 0:
        raise InputError("spin_lift expects a Euclidean signature")
    if sig.n != n:
        raise InputError("matrix size does not match signature")
    if any(len(r) != n for r in rows):
        raise InputError(_NOT_SPECIAL_ORTHOGONAL)
    den = lcm(*(c.denominator for r in rows for c in r))
    cols = [[rows[i][j].numerator * (den // rows[i][j].denominator) for i in range(n)] for j in range(n)]
    if any(_dot(cols[i], cols[j]) != (den * den if i == j else 0) for i in range(n) for j in range(i, n)):
        raise InputError(_NOT_SPECIAL_ORTHOGONAL)

    units = [([int(i == j) for i in range(n)], 1) for j in range(n)]
    work = [_lowest(col, den) for col in cols]
    mirrors: list[Multivector] = []
    for j in range(n):
        if work[j] == units[j]:
            continue
        col, d = work[j]
        w = col[:]
        w[j] -= d  # column j - e_j, over d
        mirrors.append(Multivector._of(sig, d, {1 << i: a for i, a in enumerate(w) if a}))
        # reflect the columns not yet reduced; columns c < j are e_c, and
        # w[c] = 0 there because the matrix stays orthogonal, so they are fixed.
        # v - 2 g(v,w)/g(w,w) w is (ww v - 2 vw w) / (dv ww) on numerators,
        # whatever w's denominator
        ww = _dot(w, w)
        for c in range(j, n):
            v, dv = work[c]
            vw2 = 2 * _dot(v, w)
            work[c] = _lowest([ww * a - vw2 * b for a, b in zip(v, w)], dv * ww)
    if work != units:
        raise StructureError("reflection reduction did not reach the identity")
    if len(mirrors) % 2 != 0:
        raise InputError(_NOT_SPECIAL_ORTHOGONAL)
    g = Multivector.scalar(sig, 1)
    for w in mirrors:
        g = g * w
    return SpinElement.from_multivector(g)


def _dot(v: list[int], w: list[int]) -> int:
    return sum(a * b for a, b in zip(v, w))


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """``(nums, den)`` divided by their gcd."""
    g = gcd(den, *nums)
    return [a // g for a in nums], den // g


def double_cover_check(g: SpinElement, module: SpinorModule) -> Report:
    """Confirm that g and -g cover the same rotation (``adjoints-equal``)
    while acting differently on the spinor module (``actions-differ``).

    Both twisted adjoint matrices are built, each column checked exactly to
    be a vector (see ``twisted_adjoint_matrix``); a column that is not raises
    ``StructureError``."""
    adjoints_equal = twisted_adjoint_matrix(g.value) == twisted_adjoint_matrix((-g).value)
    actions_differ = spin_action(module, g) != spin_action(module, -g)
    return Report([("adjoints-equal", adjoints_equal, ""), ("actions-differ", actions_differ, "")])


def spin_action(module: SpinorModule, g: SpinElement) -> QMat:
    """Representing matrix of the (unnormalized) even versor on the module.

    For a unit element the matrix is orthogonal for the spin metric; in
    general M^T g_S M = norm2 * g_S holds exactly.
    """
    if module.signature != g.signature:
        raise InputError("signature mismatch between module and spin element")
    return module.operator(g.value)


class SpinCoordinateSystem:
    """A module isometry covering a unique oriented frame.

    ``iso`` is the (scaled) action of a spin element composed with the
    identity base isomorphism; ``covered_frame`` is the rotation it induces
    on vectors through the Clifford action; ``scale2`` is the square scale
    of the isometry (1 for unit elements).
    """

    __slots__ = ("iso", "covered_frame", "scale2")

    def __init__(self, iso: QMat, covered_frame: list[list[Fraction]], scale2: Fraction):
        self.iso = iso
        self.covered_frame = covered_frame
        self.scale2 = scale2


def spin_coordinate_system(module: SpinorModule, g: SpinElement) -> SpinCoordinateSystem:
    return SpinCoordinateSystem(
        iso=spin_action(module, g),
        covered_frame=twisted_adjoint_matrix(g.value),
        scale2=g.norm2,
    )


def verify_spin_coordinate_system(module: SpinorModule, system: SpinCoordinateSystem) -> Report:
    """Exact checks, one per condition: the isometry intertwines each
    generator up to the covered frame (``intertwines-e<j>``), is a scaled
    isometry of the spin metric (``spin-metric-isometry``), and commutes
    with each even intertwiner (``commutes-even-<t>``, the right action of
    K0), on the +1 volume summand where ``intertwiners(module,
    even_only=True)`` takes it."""
    checks = []
    n = module.signature.n
    phi = system.iso
    frame = system.covered_frame
    for j in range(n):
        # the Clifford action of column j of the frame
        rhs = module.operator(Multivector.vector(module.signature, [frame[i][j] for i in range(n)]))
        checks.append((f"intertwines-e{j + 1}", phi * module.generators[j] == rhs * phi, ""))
    m = module.spin_metric
    checks.append(("spin-metric-isometry", phi.transpose() * m * phi == m.scale(system.scale2), ""))
    # the even commutant lives on the +1 volume summand when there is one;
    # phi is even, so it preserves that summand
    plus = even_summand(module)
    phi_even = phi if plus is None else _submatrix(phi, plus)
    for t, b in enumerate(intertwiners(module, even_only=True).basis):
        checks.append((f"commutes-even-{t}", phi_even * b == b * phi_even, ""))
    return Report(checks)
