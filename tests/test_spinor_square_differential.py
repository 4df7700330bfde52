"""``modules.spinor_square``, the Fierz expansion with one trace per blade,
against a frozen copy of the solve it replaced: one unknown per blade (even
blades only where the volume element squares to +1), one equation per matrix
entry, eliminated by ``sparse_solve``.  Every module family is covered (each
recipe ``Cl(r,s)`` with r + s <= 7 in both variants where they exist,
``Cl(0,8)``, ``Cl(1,8)``, ``Cl(4,5)``, the sqrt-space and octonion modules)
plus two dense conjugates, on seeded rational spinors and s1 = 0.  A module
whose right units are not its commutant's has no spinor square: both refuse
it with a ``StructureError``."""

import random
from fractions import Fraction

import pytest

from spinrep.clifford import Multivector
from spinrep.errors import InputError, StructureError
from spinrep.linalg import ZERO, QMat, _exact, sparse_solve
from spinrep.modules import _invert, octonion_module, spinor_square, sqrt_space_module
from spinrep.recipe import GradedSpace, SpinorModule, assemble_euclidean, assemble_signature
from spinrep.structure import FIELD_DIM, Signature


def _frozen_spinor_square(module, s1, s2):
    d = module.real_dim
    s1 = [_exact(c) for c in s1]
    s2 = [_exact(c) for c in s2]
    if len(s1) != d or len(s2) != d:
        raise InputError("spinor length does not match module dimension")
    sig = module.signature
    n = sig.n
    even_only = "minus" in sig.variants
    masks = [m for m in range(1 << n) if not even_only or bin(m).count("1") % 2 == 0]

    # columns of the rank-one operator
    k_dim = FIELD_DIM[module.field]
    s1_images = [s1] + [u.apply(s1) for u in module.right_units]
    s2_images = [s2] + [u.apply(s2) for u in module.right_units]
    metric_rows = [module.spin_metric.apply(img) for img in s2_images]
    rank_one = {}
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

    rows_by_entry = {}
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


def _conjugate(module, seed):
    """The module in a dense rational basis: generators and right units
    P^-1 X P, spin metric P^T g P, for a seeded invertible P."""
    d = module.real_dim
    rng = random.Random(seed)
    while True:
        p = QMat(d, d, [{j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(d)} for _ in range(d)])
        try:
            pi = _invert(p)
        except StructureError:
            continue
        break
    return SpinorModule(module.signature, module.field, [pi * g * p for g in module.generators],
                        GradedSpace("R", d), p.transpose() * module.spin_metric * p, module.family,
                        module.variant, [pi * u * p for u in module.right_units])


MODULES = {
    **{f"Cl({r},{s}) {v}": (lambda r=r, s=s, v=v: assemble_signature(r, s, v))
       for n in range(1, 8) for r in range(n + 1) for s in [n - r] for v in Signature(r, s).variants},
    **{f"Cl({r},{s}) {v}": (lambda r=r, s=s, v=v: assemble_signature(r, s, v))
       for r, s in [(0, 8), (1, 8), (4, 5)] for v in Signature(r, s).variants},
    **{f"sqrt-space {n}": (lambda n=n: sqrt_space_module(n)) for n in range(1, 5)},
    **{f"octonion {k}": (lambda k=k: octonion_module(k)) for k in range(4, 9)},
    "Cl(2,1) minus, dense": lambda: _conjugate(assemble_signature(2, 1, "minus"), 7),
    "Cl(0,4) plus, dense": lambda: _conjugate(assemble_euclidean(4), 11),
}


@pytest.mark.parametrize("name", list(MODULES))
def test_fierz_expansion_matches_the_elimination(name):
    module = MODULES[name]()
    d = module.real_dim
    rng = random.Random(name)
    zero = [0] * d
    for _ in range(2):
        s1 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
        s2 = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
        want = _frozen_spinor_square(module, s1, s2)
        assert not want.is_zero()
        assert spinor_square(module, s1, s2) == want
    assert spinor_square(module, zero, s2) == _frozen_spinor_square(module, zero, s2)
    assert spinor_square(module, zero, s2).is_zero()


def test_units_outside_the_commutant_are_refused():
    m = assemble_euclidean(2)
    # the left generators e_1, e_2, e_1 e_2 in place of the right units
    forged = SpinorModule(m.signature, m.field, m.gens, m.space, m.metric, m.family, m.variant,
                          (m.generators[0], m.generators[1], m.generators[0] * m.generators[1]))
    s1, s2 = [1, 2, 0, -1], [0, 1, 3, 1]
    with pytest.raises(StructureError):
        _frozen_spinor_square(forged, s1, s2)
    with pytest.raises(StructureError):
        spinor_square(forged, s1, s2)
