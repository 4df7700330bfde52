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

from .clifford import Multivector, euclidean
from .errors import InputError, StructureError
from .linalg import QMat, _exact, _integers, _lowest
from .recipe import SpinorModule, _submatrix, even_summand, intertwiners
from .structure import Report, Signature

_NOT_SPECIAL_ORTHOGONAL = "input is not an exact special orthogonal matrix"


class SpinElement:
    """Even versor with rational coefficients.

    ``value * reversion(value)`` is the positive rational ``norm2``; the
    corresponding group element is value / sqrt(norm2), which is generally
    irrational and never materialized.  The constructor trusts ``norm2``:
    ``from_multivector`` derives it by the versor test, ``spin_lift`` from
    the mirrors.  A ``norm2`` that is not ``value * reversion(value)`` fails
    the exact back-check of the element's twisted adjoint (``StructureError``).
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
    basis vectors (columns are images), inverting by ``Multivector.inverse``
    (the O(|g|^2) versor test); see ``_twisted_adjoint``."""
    g_hat = g.grade_involution()
    return _twisted_adjoint(g, g_hat, g_hat.inverse())


def _spin_adjoint(g: SpinElement) -> list[list[Fraction]]:
    """The twisted adjoint matrix of a spin element, inverting in O(|g|):
    g_hat rev(g_hat) is the grade involution of g rev(g) = norm2, so
    g_hat^(-1) = rev(g_hat) / norm2.  A zero value would pass every
    back-check (h = 0 = w g_hat); it is refused, as is a zero norm2."""
    norm2 = _exact(g.norm2)
    if not norm2 or g.value.is_zero():
        raise StructureError("spin element has norm2 = 0 or value = 0")
    g_hat = g.value.grade_involution()
    return _twisted_adjoint(g.value, g_hat, g_hat.reversion().scale(1 / norm2))


def _twisted_adjoint(g: Multivector, g_hat: Multivector, gi: Multivector) -> list[list[Fraction]]:
    """The twisted adjoint matrix of g from g_hat and a claimed inverse gi.
    Column i reads only the grade-1 part w of h gi, h = g e_i
    (``Multivector.vector_part_times``), in O(n |g|) products of blade terms,
    and checks h == w g_hat exactly.  For an invertible g_hat that holds
    exactly when w = h g_hat^(-1), so a wrong gi (a forged norm2 scales every
    w) or g outside the Clifford group raises ``StructureError``."""
    sig = g.signature
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
    reduced as sparse integers over its own denominator, in lowest terms.
    For g = w_1 ... w_k, g rev(g) = w_1 ... w_k w_k ... w_1 = w_1^2 ... w_k^2,
    and as k is even the lift's ``norm2`` is the product of the mirrors'
    squared lengths, in O(n^2).
    """
    if not isinstance(rotation, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rotation):
        raise InputError("a rotation must be a list or tuple of rows, each a list or tuple")
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
    den, cols = _integers([{i: rows[i][j] for i in range(n)} for j in range(n)])
    if any(_dot(cols[i], cols[j]) != (den * den if i == j else 0) for i in range(n) for j in range(i, n)):
        raise InputError(_NOT_SPECIAL_ORTHOGONAL)

    units = [(1, [{j: 1}]) for j in range(n)]
    work = [_lowest(den, [col]) for col in cols]  # (d, [column]), the column over d
    mirrors: list[Multivector] = []
    norm2 = Fraction(1)  # the product of the mirrors' squared lengths
    for j in range(n):
        if work[j] == units[j]:
            continue
        d, (col,) = work[j]
        # w = column j - e_j, over d; columns c < j are e_c, so the matrix, orthogonal
        # throughout, is zero in rows < j of w and of every column c >= j
        w = {i: a for i in range(j, n) if (a := col.get(i, 0) - (d if i == j else 0))}
        mirrors.append(Multivector._of(sig, d, {1 << i: a for i, a in w.items()}))
        # reflect the columns c >= j: v - 2 g(v,w)/g(w,w) w is (ww v - 2 vw w) / (dv ww)
        # on numerators, whatever w's denominator
        ww = _dot(w, w)
        norm2 *= Fraction(ww, d * d)
        for c in range(j, n):
            dv, (v,) = work[c]
            vw2 = 2 * _dot(v, w)
            work[c] = _lowest(dv * ww, [{i: a for i in range(j, n) if (a := ww * v.get(i, 0) - vw2 * w.get(i, 0))}])
    if work != units:
        raise StructureError("reflection reduction did not reach the identity")
    if len(mirrors) % 2 != 0:
        raise InputError(_NOT_SPECIAL_ORTHOGONAL)
    g = Multivector.scalar(sig, 1)
    for w in mirrors:
        g = g * w
    return SpinElement(g, norm2)


def _dot(v: dict[int, int], w: dict[int, int]) -> int:
    return sum(a * w.get(i, 0) for i, a in v.items())


def double_cover_check(g: SpinElement, module: SpinorModule) -> Report:
    """Confirm that g and -g cover the same rotation (``adjoints-equal``)
    while acting differently on the spinor module (``actions-differ``).

    Both twisted adjoint matrices are built from the expanded g and -g,
    inverting g_hat as rev(g_hat) / norm2.  g rev(g) = norm2 != 0 makes g_hat
    invertible, so each column's exact back-check (``_twisted_adjoint``)
    refuses a wrong expansion or a wrong ``norm2`` with ``StructureError``."""
    adjoints_equal = _spin_adjoint(g) == _spin_adjoint(-g)
    actions_differ = spin_action(module, g) != spin_action(module, -g)
    return Report([("adjoints-equal", adjoints_equal, ""), ("actions-differ", actions_differ, "")])


def spin_action(module: SpinorModule, g: SpinElement) -> QMat:
    """Representing matrix of the (unnormalized) even versor on the module.

    With M = g_S e_1 ... e_r (the spin metric g_S when r = 0), the matrix A
    satisfies A^T M A = norm2 * M exactly: for M every generator's adjoint
    is (-1)^(r-1) e_i, so an even versor's is its reversion.  In a mixed
    signature A need not preserve g_S itself, which is definite.
    """
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
        covered_frame=_spin_adjoint(g),
        scale2=g.norm2,
    )


def verify_spin_coordinate_system(module: SpinorModule, system: SpinCoordinateSystem) -> Report:
    """Exact checks, one per condition: the isometry intertwines each
    generator up to the covered frame (``intertwines-e<j>``), is a scaled
    isometry of M = g_S e_1 ... e_r, the spin metric when r = 0
    (``spin-metric-isometry``, see ``spin_action``), and commutes
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
    m = module.spin_metric * module.operator(Multivector.blade(module.signature, (1 << module.signature.r) - 1))
    checks.append(("spin-metric-isometry", phi.transpose() * m * phi == m.scale(system.scale2), ""))
    # the even commutant lives on the +1 volume summand when there is one;
    # phi is even, so it preserves that summand
    plus = even_summand(module)
    phi_even = phi if plus is None else _submatrix(phi, plus)
    for t, b in enumerate(intertwiners(module, even_only=True).basis):
        checks.append((f"commutes-even-{t}", phi_even * b == b * phi_even, ""))
    return Report(checks)
