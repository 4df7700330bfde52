"""The signed-permutation intertwiner solve and the exact commutant labels."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from spinrep import linalg, modules, recipe
from spinrep.kmatrix import classify_commutant, commutant
from spinrep.linalg import QMat, Rref, SignedPerm, intertwiner_space, signed_perm_intertwiners
from spinrep.modules import octonion_module, sqrt_space_module
from spinrep.recipe import GradedSpace, SpinorModule, assemble_signature, intertwiners
from test_commutant_manifest import module_set

# ---------------------------------------------------------------------------
# The F2 solve against the RREF solve
# ---------------------------------------------------------------------------


def _signed_perm(perm, signs) -> QMat:
    """Column j goes to row perm[j] with sign signs[j]."""
    return QMat.from_entries(len(perm), len(perm), {(i, j): s for j, (i, s) in enumerate(zip(perm, signs))})


@st.composite
def signed_perms(draw, d):
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    return _signed_perm(perm, signs)


@st.composite
def signed_perm_problems(draw):
    """(d_in, d_out, pairs): one to three pairs (A, B) of arbitrary signed
    permutations, A on d_in and B on d_out."""
    d_in = draw(st.integers(1, 5))
    d_out = draw(st.integers(1, 5))
    count = draw(st.integers(1, 3))
    return d_in, d_out, [(draw(signed_perms(d_in)), draw(signed_perms(d_out))) for _ in range(count)]


SMALL_SIGNATURES = [(r, n - r) for n in range(1, 5) for r in range(n + 1)]


@st.composite
def clifford_type_problems(draw):
    """(d_in, d_out, pairs) of Clifford type: on each side the generators of
    one or two recipe modules of one signature (variants drawn per module),
    summed and conjugated by a random signed permutation; B_k is negated at
    random, and a random nonempty subset of the generators is kept."""
    r, s = draw(st.sampled_from(SMALL_SIGNATURES))
    variants = ["plus", "minus"] if (s - r) % 4 == 3 else ["plus"]

    def side():
        mods = [assemble_signature(r, s, draw(st.sampled_from(variants))) for _ in range(draw(st.integers(1, 2)))]
        gens = [_direct_sum(gs) for gs in zip(*(m.generators for m in mods))]
        p = draw(signed_perms(gens[0].nrows))
        return [p * g * p.transpose() for g in gens]

    a_gens, b_gens = side(), side()
    keep = draw(st.lists(st.sampled_from(range(r + s)), min_size=1, unique=True))
    negate = draw(st.lists(st.booleans(), min_size=r + s, max_size=r + s))
    pairs = [(a_gens[k], b_gens[k].scale(-1) if negate[k] else b_gens[k]) for k in keep]
    return a_gens[0].nrows, b_gens[0].nrows, pairs


def _rank(mats) -> int:
    rr = Rref()
    for m in mats:
        rr.add_row({i * m.ncols + j: v for i, j, v in m.entries()})
    return rr.rank


def _rref_branch(pairs, d_in, d_out):
    with mock.patch.object(linalg, "signed_perm_intertwiners", lambda *args: None):
        return linalg.intertwiner_space(pairs, d_in, d_out)


def _assert_canonical(basis, d_in):
    """Entries +-1 on disjoint supports, +1 at each element's smallest flat
    index, elements sorted by that index, row dicts in column order."""
    firsts, seen = [], set()
    for x in basis:
        assert all(list(row) == sorted(row) for row in x.rows)
        flat = sorted((i * d_in + j, v) for i, j, v in x.entries())
        assert flat and flat[0][1] == 1
        assert all(v in (1, -1) for _, v in flat)
        support = {p for p, _ in flat}
        assert not support & seen
        seen |= support
        firsts.append(flat[0][0])
    assert firsts == sorted(firsts)


def _assert_same_space(basis, pairs, d_in, d_out):
    """``basis`` spans the RREF solve's space, and each element intertwines."""
    slow = _rref_branch(pairs, d_in, d_out)
    assert len(basis) == len(slow) == _rank(basis) == _rank(basis + slow)
    for x in basis:
        assert (x.nrows, x.ncols) == (d_out, d_in)
        assert all(x * a == b * x for a, b in pairs)


@settings(max_examples=200, deadline=None)
@given(clifford_type_problems())
def test_f2_solve_matches_rref_solve(problem):
    d_in, d_out, pairs = problem
    fast = signed_perm_intertwiners(pairs, d_in, d_out)
    assert fast is not None
    _assert_same_space(fast, pairs, d_in, d_out)
    _assert_canonical(fast, d_in)


@settings(max_examples=150, deadline=None)
@given(signed_perm_problems())
def test_signed_perm_problems_match_rref_solve(problem):
    """Any signed permutations, Clifford type or not and given as ``QMat``s
    or ``SignedPerm``s, give the RREF solve's space through
    ``intertwiner_space``."""
    d_in, d_out, pairs = problem
    perms = [(SignedPerm.of(a), SignedPerm.of(b)) for a, b in pairs]
    for operands in (pairs, perms):
        _assert_same_space(linalg.intertwiner_space(operands, d_in, d_out), pairs, d_in, d_out)


def _is_clifford_type(mats) -> bool:
    """Each squares to +-1 and any two commute or anticommute, by products."""
    ident = QMat.identity(mats[0].nrows)
    return (all(m * m in (ident, -ident) for m in mats)
            and all(a * b in (b * a, -(b * a)) for a in mats for b in mats))


@settings(max_examples=150, deadline=None)
@given(signed_perm_problems())
def test_f2_solve_declines_exactly_the_non_clifford_type(problem):
    d_in, d_out, pairs = problem
    clifford = _is_clifford_type([a for a, _ in pairs]) and _is_clifford_type([b for _, b in pairs])
    assert (signed_perm_intertwiners(pairs, d_in, d_out) is None) == (not clifford)


def test_f2_solve_drops_sign_inconsistent_orbits():
    minus = QMat.from_entries(1, 1, {(0, 0): -1})
    one = QMat.identity(1)
    assert signed_perm_intertwiners([(minus, one)], 1, 1) == []
    assert signed_perm_intertwiners([(one, one)], 1, 1) == [one]
    # the swap squares to 1 and the signed swap to -1, so X = 0
    swap = _signed_perm([1, 0], [1, 1])
    flip = _signed_perm([1, 0], [1, -1])
    basis = signed_perm_intertwiners([(swap, flip)], 2, 2)
    assert basis == _rref_branch([(swap, flip)], 2, 2) == []
    # squares agree, commutation signs do not: diag(1,-1) and the swap anticommute
    pairs = [(swap, swap), (_signed_perm([0, 1], [1, -1]), QMat.identity(2))]
    assert signed_perm_intertwiners(pairs, 2, 2) == _rref_branch(pairs, 2, 2) == []


def test_f2_solve_keeps_rows_in_column_order():
    # row 1 is filled from row 0 by the reversal (0 3)(1 2), so the column
    # orbit {0, 1} of row 0 lands in row 1 as 3, 2
    reverse, swaps = _signed_perm([3, 2, 1, 0], [1] * 4), _signed_perm([1, 0, 3, 2], [1] * 4)
    pairs = [(reverse, _signed_perm([1, 0], [1, 1])), (swaps, QMat.identity(2))]
    basis = signed_perm_intertwiners(pairs, 4, 2)
    _assert_same_space(basis, pairs, 4, 2)
    _assert_canonical(basis, 4)


def test_f2_solve_canonical_form_on_modules():
    m = assemble_signature(0, 3)
    basis = signed_perm_intertwiners([(g, g) for g in m.generators], 4, 4)
    assert len(basis) == 4 and basis[0] == QMat.identity(4)
    _assert_canonical(basis, 4)
    shear = QMat.from_entries(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert signed_perm_intertwiners([(shear, QMat.identity(2))], 2, 2) is None


def _direct_sum(mats) -> QMat:
    d = sum(m.nrows for m in mats)
    entries, off = {}, 0
    for m in mats:
        entries.update({(i + off, j + off): v for i, j, v in m.entries()})
        off += m.nrows
    return QMat.from_entries(d, d, entries)


def test_no_monomial_production_input_reaches_rref():
    """Every ``intertwiner_space`` call made while assembling and classifying
    the manifest's 95 modules, building the octonion and sqrt-space modules,
    and relating S3+ and S3- to their direct sums takes the F2 solve whenever
    every operand is a signed permutation.  At d = 256 the RREF solve over d^2
    unknowns is hundreds of times slower."""
    solve = linalg.signed_perm_intertwiners
    calls, declined = [], []

    def spy(pairs, d_in, d_out):
        basis = solve(pairs, d_in, d_out)
        calls.append(d_out)
        if basis is None and all(SignedPerm.of(m) is not None for pair in pairs for m in pair):
            declined.append((d_in, d_out, len(pairs)))
        return basis

    for build in (recipe._definite, recipe.split_signature_module, recipe.assemble_signature,
                  modules.sqrt_space_module, modules.octonion_module):
        build.cache_clear()
    with mock.patch.object(linalg, "signed_perm_intertwiners", spy):
        built = [assemble_signature(r, s, v) for r, s, v in module_set()]
        built += [octonion_module(k) for k in range(4, 9)]
        for m in built:
            intertwiners(m)
            intertwiners(m, even_only=True)
        for n in range(1, 5):
            sqrt_space_module(n)
        plus = assemble_signature(0, 3, "plus").generators
        minus = assemble_signature(0, 3, "minus").generators
        sums = [plus, minus] + [[_direct_sum(gs) for gs in zip(x, y)]
                                for x, y in ((plus, plus), (plus, minus), (minus, minus))]
        for a in sums:
            for b in sums:
                intertwiner_space(list(zip(a, b)), a[0].nrows, b[0].nrows)
    assert len(calls) >= 2 * len(built) + len(sums) ** 2
    assert not declined


def test_rectangular_intertwiners_between_modules():
    plus = assemble_signature(0, 3, "plus")
    minus = assemble_signature(0, 3, "minus")
    double = [_direct_sum([g, g]) for g in plus.generators]
    into = intertwiner_space(list(zip(plus.generators, double)), 4, 8)
    assert len(into) == 8 and all((x.nrows, x.ncols) == (8, 4) for x in into)
    pairs = list(zip(plus.generators, double))
    assert _rank(into + _rref_branch(pairs, 4, 8)) == 8
    _assert_canonical(into, 4)
    # S3+ and S3- are inequivalent: every orbit is sign-inconsistent
    assert intertwiner_space(list(zip(plus.generators, minus.generators)), 4, 4) == []


# ---------------------------------------------------------------------------
# Exact labels
# ---------------------------------------------------------------------------


def sum_module(modules) -> SpinorModule:
    """The direct sum of modules of one signature, with block generators."""
    first = modules[0]
    gens = tuple(_direct_sum(gs) for gs in zip(*(m.generators for m in modules)))
    d = gens[0].nrows
    return SpinorModule(first.signature, first.field, gens, GradedSpace("R", d), QMat.identity(d),
                        "assembled", first.variant, ())


def test_direct_sum_labels():
    plus = assemble_signature(0, 3, "plus")
    minus = assemble_signature(0, 3, "minus")
    assert intertwiners(sum_module([plus, minus])).division_algebra == "H+H"
    assert intertwiners(sum_module([plus, plus])).division_algebra == "M2(H)"
    assert intertwiners(sum_module([plus, plus, minus])).division_algebra == "H+M2(H)"


def test_non_semisimple_commutant_is_not_named():
    nilpotent = QMat.from_entries(2, 2, {(0, 1): 1})
    com = commutant([nilpotent], 2)
    assert com.real_dimension == 2 and com.division_algebra == "A(2)"


@pytest.mark.parametrize("entries, size, label", [
    ({(0, 0): 1, (1, 1): 2, (2, 2): 3}, 3, "A(3)"),  # the diagonal matrices: a center of dimension 3
    ({(0, 1): 2, (1, 0): 1}, 2, "A(2)"),  # span{I, X} with X^2 = 2: its idempotents need sqrt(2)
])
def test_semisimple_commutants_it_cannot_name(entries, size, label):
    com = commutant([QMat.from_entries(size, size, entries)], size)
    assert com.division_algebra == label


def test_label_does_not_depend_on_the_basis():
    # span{I, J} with J^2 = -1 and span{I, D} with D^2 = 1, both given in bases
    # with no entry owned by a single element
    j = QMat.from_entries(2, 2, {(0, 1): -1, (1, 0): 1})
    diag = QMat.from_entries(2, 2, {(0, 0): 1, (1, 1): -1})
    ident = QMat.identity(2)
    assert classify_commutant([ident + j, ident - j]) == "C"
    assert classify_commutant([ident + diag, ident.scale(2) - diag]) == "R+R"


def _algebra_type(p: int, q: int) -> tuple[int, str, bool]:
    """Cl(p,q) with p generators squaring to +1 is M_m(F) or M_m(F) + M_m(F):
    (m, F, doubled), from (p - q) mod 8."""
    n = p + q
    k = (p - q) % 8
    if k in (0, 2):
        return 2 ** (n // 2), "R", False
    if k == 1:
        return 2 ** ((n - 1) // 2), "R", True
    if k in (3, 7):
        return 2 ** ((n - 1) // 2), "C", False
    if k in (4, 6):
        return 2 ** ((n - 2) // 2), "H", False
    return 2 ** ((n - 3) // 2), "H", True


FIELD_DIM = {"R": 1, "C": 2, "H": 4}


def _label(blocks) -> str:
    """Name of a sum of M_n(F) blocks given as (n, F)."""
    parts = sorted((n * n * FIELD_DIM[f], "RCH".index(f), f if n == 1 else f"M{n}({f})") for n, f in blocks)
    return "+".join(name for _, _, name in parts)


def _volume_sign(module) -> int:
    vol = module.generators[0]
    for g in module.generators[1:]:
        vol = vol * g
    return 1 if vol == QMat.identity(module.real_dim) else -1


SIGNATURES = [(r, n - r) for n in range(1, 6) for r in range(n + 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIGNATURES), st.sampled_from(["plus", "minus"]), st.sampled_from(["plus", "minus"]),
       st.integers(1, 2), st.integers(0, 2))
def test_direct_sum_labels_follow_the_mod8_table(sig, va, vb, p, q):
    """Commutants of S_a^p + S_b^q, full and even, against the table."""
    r, s = sig
    if (s - r) % 4 != 3:
        va = vb = "plus"
    a, b = assemble_signature(r, s, va), assemble_signature(r, s, vb)
    module = sum_module([a] * p + [b] * q)
    m, field, doubled = _algebra_type(r, s)
    # S+ and S- (volume +1 / -1) are inequivalent modules of the full algebra
    if doubled and _volume_sign(a) != _volume_sign(b):
        full = [(p, field)] + ([(q, field)] if q else [])
    else:
        full = [(p + q, field)]
    # the even subalgebra Cl(r,s-1) or Cl(s,r-1) sees p + q copies of the same
    # module; when it is doubled the commutant is taken on one volume half
    even_m, even_field, even_doubled = _algebra_type(r, s - 1) if s else _algebra_type(s, r - 1)
    d = m * FIELD_DIM[field] // (2 if even_doubled else 1)
    copies = d // (even_m * FIELD_DIM[even_field]) * (p + q)
    assert intertwiners(module).division_algebra == _label(full)
    assert intertwiners(module, even_only=True).division_algebra == _label([(copies, even_field)])


# SHA-256 of `spinrep classify --max-n 16` stdout, recorded before the labels
# became exact; the irreducible modules' labels must not move.
CLASSIFY_16_SHA256 = "cb12879461734f0345211a2ddba2f9a12092c669a8431637142bc5fbdf45c362"


def test_classify_16_stdout_is_pinned():
    result = run_cli(["classify", "--max-n", "16"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == CLASSIFY_16_SHA256
