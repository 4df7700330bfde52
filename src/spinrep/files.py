"""Stable on-disk formats: the gamma-matrix JSON file (format_version 1) and
the transport-trace CSV.

Rationals are serialized as "p/q" strings so exactness survives the round
trip; geometry output uses 17-significant-digit floats.  Both writers are
deterministic: identical inputs produce byte-identical files.  This module
only reads and writes: the structural audit of a loaded gamma file is
``structure.audit``, the same one ``generate`` runs before writing.  A CSV row
is flagged ok only when its trace flag (if any) is set and every value is
finite.  The gamma functions import the exact layers they use when called,
so writing a transport CSV loads none of them.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING

from .errors import InputError

if TYPE_CHECKING:
    from fractions import Fraction

    from .linalg import QMat, SignedPerm
    from .recipe import SpinorModule
    from .surfaces import TransportTrace

FORMAT_VERSION = 1
# every top-level key the v1 writer emits; grading and volume_sign only where they apply
PAYLOAD_KEYS = ("format_version", "signature", "convention", "field", "real_dim", "family", "variant",
                "generators", "spin_metric", "commutant_basis", "grading", "volume_sign")
_CELL = r"-?[0-9]+(/[0-9]+)?"  # compiled on first use, not at import

CSV_HEADER = (
    "t,gamma_x,gamma_y,gamma_z,"
    "e1_x,e1_y,e1_z,e2_x,e2_y,e2_z,nu_x,nu_y,nu_z,"
    "g_w,g_x,g_y,g_z,q_w,q_x,q_y,q_z,ok"
)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _int(value, what: str) -> int:
    """A JSON integer; booleans, floats and strings are refused."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _choice(value, allowed: tuple[str, ...], what: str) -> str:
    if not isinstance(value, str) or value not in allowed:
        raise InputError(f"{what} must be one of {', '.join(allowed)}, got {value!r}")
    return value


def _matrix_to_rows(m: QMat | SignedPerm) -> list[list[str]]:
    rows = [["0"] * m.ncols for _ in range(m.nrows)]
    for i, j, v in m.entries():
        rows[i][j] = _frac_str(v)
    return rows


def _matrix_from_rows(rows, size: int) -> QMat:
    """A size x size matrix of JSON integers (never booleans) and ``"p/q"``
    strings.  Each distinct string other than ``"0"`` is checked and
    converted once; cells of value zero (``0``, ``"-0"``, ``"0/7"``) store
    nothing.  The rows are read as integers over the lcm of the cells'
    denominators, a step skipped when every string cell is an integer."""
    from fractions import Fraction

    from .linalg import QMat, _integers

    if (not isinstance(rows, list) or len(rows) != size
            or any(not isinstance(r, list) or len(r) != size for r in rows)):
        raise InputError("matrix rows have the wrong shape")
    values: dict[str, Fraction] = {}  # string cells only: a key 1 would also match True and 1.0
    out = []
    for row in rows:
        entries = {}
        for j, cell in enumerate(row):
            if cell == "0":
                continue
            if type(cell) is int:
                v = cell
            elif type(cell) is str and cell in values:
                v = values[cell]
            elif type(cell) is str and re.fullmatch(_CELL, cell):
                v = Fraction(cell)
                v = values[cell] = v.numerator if v.denominator == 1 else v
            else:
                raise InputError(f'matrix cells must be integers or "p/q" strings, got {cell!r}')
            if v:
                entries[j] = v
        out.append(entries)
    den, out = _integers(out) if any(type(v) is not int for v in values.values()) else (1, out)
    return QMat.from_numerators(size, size, out, den)


def _matrices(value, size: int, what: str) -> list[QMat]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of matrices")
    return [_matrix_from_rows(rows, size) for rows in value]


def module_to_payload(module: SpinorModule, volume_sign: int | None = None) -> dict:
    """The v1 payload of a module, written from its matrices as built
    (``SignedPerm``s for a recipe module).  ``volume_sign`` is the sign
    ``audit`` computed (``structure.Report.volume_sign``); without it the sign
    is ``structure.volume_sign_of`` the module's own generators."""
    from .structure import CONVENTION, volume_sign_of

    payload = {
        "format_version": FORMAT_VERSION,
        "signature": [module.signature.r, module.signature.s],
        "convention": CONVENTION,
        "field": module.field,
        "real_dim": module.real_dim,
        "family": module.family,
        "variant": module.variant,
        "generators": [_matrix_to_rows(g) for g in module.gens],
        "spin_metric": _matrix_to_rows(module.metric),
        "commutant_basis": [_matrix_to_rows(type(module.metric).identity(module.real_dim))]
        + [_matrix_to_rows(u) for u in module.units],
    }
    grading = module.real_grading()
    if grading is not None:
        payload["grading"] = list(grading)
    if "minus" in module.signature.variants:
        payload["volume_sign"] = volume_sign_of(module.gens) if volume_sign is None else volume_sign
    return payload


def payload_to_gamma(payload) -> dict:
    """Read a parsed v1 gamma file into the keyword arguments of
    ``structure.audit``, checking every field against the format: only the
    writer's keys appear, the ``convention`` is spinrep's, integers are JSON
    integers (never booleans), ``field``, ``family`` and ``variant`` come from
    their fixed sets, and every matrix is a real_dim x real_dim list of lists
    of integer or ``"p/q"`` cells.  Anything else raises InputError."""
    from .structure import CONVENTION, FAMILIES, FIELD_DIM, VARIANTS, Signature

    if not isinstance(payload, dict):
        raise InputError("malformed gamma file: expected one JSON object")
    unknown = [key for key in payload if key not in PAYLOAD_KEYS]
    if unknown:
        raise InputError(f"malformed gamma file: unknown key {unknown[0]!r}")
    try:
        if _int(payload["format_version"], "format_version") != FORMAT_VERSION:
            raise InputError(f"unsupported format_version {payload['format_version']}")
        if payload["convention"] != CONVENTION:
            raise InputError(f"unsupported convention {payload['convention']!r}")
        sig_pair = payload["signature"]
        if not isinstance(sig_pair, list) or len(sig_pair) != 2:
            raise InputError("signature must be a list [r, s]")
        sig = Signature(*(_int(x, "signature") for x in sig_pair))
        d = _int(payload["real_dim"], "real_dim")
        if d < 1:
            raise InputError("real_dim must be positive")
        grading = payload.get("grading")
        if grading is not None and (not isinstance(grading, list) or len(grading) != d
                                    or any(type(g) is not int or g not in (1, -1) for g in grading)):
            raise InputError("grading must be a list of +-1 of length real_dim")
        vol_sign = payload.get("volume_sign")
        if vol_sign is not None and (type(vol_sign) is not int or vol_sign not in (1, -1)):
            raise InputError("volume_sign must be 1 or -1")
        field = _choice(payload["field"], tuple(FIELD_DIM), "field")
        _choice(payload["family"], FAMILIES, "family")  # a v1 field the audit does not read
        return dict(
            sig=sig,
            field=field,
            variant=_choice(payload["variant"], VARIANTS, "variant"),
            generators=_matrices(payload["generators"], d, "generators"),
            metric=_matrix_from_rows(payload["spin_metric"], d),
            commutant_basis=_matrices(payload.get("commutant_basis", []), d, "commutant_basis"),
            grading=grading,
            volume_sign=vol_sign,
        )
    except KeyError as exc:
        raise InputError(f"malformed gamma file: missing {exc}") from exc
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed gamma file: {exc}") from exc


def _json_block(value, depth: int) -> str:
    """``json.dumps(value, indent=1)`` of a payload value (a number, a string
    or a list of those or of lists) nested ``depth`` levels deep.  A list of
    strings is a matrix row, whose cells (``_frac_str``: digits, ``-`` and
    ``/``) JSON writes as they are, so the row is one join; ``json``'s
    indenting encoder would write it one chunk per cell."""
    if type(value) is not list or not value:
        return json.dumps(value)
    pad = "\n" + " " * (depth + 1)
    if type(value[0]) is str:
        return "[" + pad + '"' + ('",' + pad + '"').join(value) + '"' + pad[:-1] + "]"
    return "[" + pad + ("," + pad).join(_json_block(v, depth + 1) for v in value) + pad[:-1] + "]"


def dump_gamma_json(payload: dict) -> str:
    """The v1 file text: the bytes of ``json.dumps(payload, indent=1)`` and a
    newline."""
    items = ",\n".join(f" {json.dumps(key)}: {_json_block(value, 1)}" for key, value in payload.items())
    return "{\n" + items + "\n}\n"


_CSV_ROW = "%.17g," * 21 + "%d"  # t, x, e1, e2, normal, g, q and the ok flag


def trace_to_csv(trace: TransportTrace) -> str:
    lines = [CSV_HEADER]
    for idx in range(len(trace)):
        cells = (trace.times[idx], *trace.positions[idx], *trace.e1[idx], *trace.e2[idx],
                 *trace.normals[idx], *trace.lifts[idx], *trace.spinors[idx])
        lines.append(_CSV_ROW % (*cells, trace.ok[idx] and all(map(math.isfinite, cells))))
    return "\n".join(lines) + "\n"
