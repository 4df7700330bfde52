"""Seeded inputs.  Every function takes the seed (or a Random made from it);
the same seed gives the same inputs, and spinrep sees only what these
functions return.

The seed changes the inputs but barely the amount of work they cause, so runs on
different seeds measure the same thing:

* Cayley rotations use a skew matrix whose off-diagonal entries are all +-1
  with seeded signs, so the lift of each rotation is a full even versor;
* a non-monomial change of basis is P = D Q: Q is a fixed product of two
  layers of Givens rotations (3/5, 4/5) inside the grading blocks, D a seeded
  diagonal sign matrix.  D Q X Q^T D differs from Q X Q^T only in signs, so
  the commutant solve does the same eliminations for every seed;
* the corrupted gamma file negates one seeded nonzero entry of one seeded
  generator;
* transport draws the latitude, the initial spinor and the saddle loop.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import checks


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, so adding one input never shifts
    another."""
    return random.Random(f"{seed}:{purpose}")


# ---------------------------------------------------------------------------
# Exact rotations
# ---------------------------------------------------------------------------


def _solve(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """A^-1 B by Gauss-Jordan elimination over the rationals."""
    n = len(a)
    m = [ra[:] + rb[:] for ra, rb in zip(a, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def cayley_rotation(n: int, rng: random.Random) -> list[list[Fraction]]:
    """R = (I - A)^-1 (I + A) for a skew A with seeded +-1 entries.

    I - A is invertible for every skew A, and R is exactly orthogonal with
    determinant 1."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.choice((-1, 1)))
            a[i][j], a[j][i] = v, -v
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - a[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + a[i][j] for j in range(n)] for i in range(n)]
    return _solve(minus, plus)


def matmul(a: list[list], b: list[list]) -> list[list]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def rotation_pairs(seed: int, dims) -> dict[int, tuple[list, list]]:
    """Two seeded Cayley rotations per dimension."""
    rng = rng_for(seed, "rotations")
    return {n: (cayley_rotation(n, rng), cayley_rotation(n, rng)) for n in dims}


# ---------------------------------------------------------------------------
# Non-monomial changes of basis
# ---------------------------------------------------------------------------

GIVENS_C, GIVENS_S = Fraction(3, 5), Fraction(4, 5)


def _givens_layer(d: int, grading, shift: int) -> list[dict]:
    """Rotations by (3/5, 4/5) on consecutive index pairs inside each grading
    block; ``shift`` offsets the pairing so that two layers mix further."""
    blocks: dict[int, list[int]] = {}
    for i in range(d):
        blocks.setdefault(grading[i] if grading else 1, []).append(i)
    rows: list[dict] = [{} for _ in range(d)]
    for idxs in blocks.values():
        idxs = idxs[shift:] + idxs[:shift]
        for k in range(0, len(idxs) - 1, 2):
            i, j = idxs[k], idxs[k + 1]
            rows[i].update({i: GIVENS_C, j: -GIVENS_S})
            rows[j].update({i: GIVENS_S, j: GIVENS_C})
        if len(idxs) % 2:
            rows[idxs[-1]][idxs[-1]] = Fraction(1)
    return rows


def basis_change(d: int, grading, rng: random.Random) -> list[dict]:
    """Orthogonal P = D Q that preserves the grading blocks (see module doc)."""
    q = checks.mat_mul(_givens_layer(d, grading, 1), _givens_layer(d, grading, 0))
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    return [{j: signs[i] * v for j, v in row.items()} for i, row in enumerate(q)]


def dense_gamma_text(text: str, seed: int) -> str:
    """A gamma file in the same basis-independent structure as ``text``,
    rewritten in a seeded non-monomial basis: every matrix X becomes P X P^T
    (generators, spin metric and commutant basis; P is orthogonal)."""
    payload = json.loads(text)
    d = int(payload["real_dim"])
    p = basis_change(d, payload.get("grading"), rng_for(seed, "dense-file"))
    for key in ("generators", "commutant_basis"):
        payload[key] = [
            checks.matrix_cells(checks.conjugate(p, checks.read_matrix(m, d)), d)
            for m in payload[key]
        ]
    payload["spin_metric"] = checks.matrix_cells(
        checks.conjugate(p, checks.read_matrix(payload["spin_metric"], d)), d
    )
    return json.dumps(payload, indent=1) + "\n"


def corrupt_gamma_text(text: str, seed: int) -> tuple[str, int]:
    """Negate one seeded nonzero entry of one seeded generator.  Returns the
    new text and the 1-based index of the corrupted generator."""
    rng = rng_for(seed, "corrupt")
    payload = json.loads(text)
    k = rng.randrange(len(payload["generators"]))
    rows = payload["generators"][k]
    cells = [(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c != "0"]
    i, j = rng.choice(cells)
    value = checks.parse_cell(rows[i][j])
    rows[i][j] = checks.format_cell(-value)
    return json.dumps(payload, indent=1) + "\n", k + 1


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


def transport_inputs(seed: int) -> dict:
    """Latitude phi, initial spinor q0 (unit, as w,x,y,z) and saddle loop
    radius.  None of them changes the number of steps or evaluations."""
    rng = rng_for(seed, "transport")
    phi = round(rng.uniform(0.3, 0.7), 6)
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(c * c for c in q))
    q0 = ",".join(repr(c / norm) for c in q)
    radius = round(rng.uniform(0.2, 0.35), 6)
    return {"phi": phi, "q0": q0, "radius": radius}
