"""Stable on-disk formats: the gamma-matrix JSON file (format_version 1) and
the transport-trace CSV.

Rationals are serialized as "p/q" strings so exactness survives the round
trip; geometry output uses 17-significant-digit floats.  Both writers are
deterministic: identical inputs produce byte-identical files.  This module
only reads and writes: the structural audit of a loaded gamma file is
``modules.audit``, the same one ``generate`` runs before writing.  A CSV row
is flagged ok only when its trace flag (if any) is set and every value is
finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .clifford import CONVENTION, Signature
from .errors import InputError
from .linalg import QMat
from .modules import SpinorModule
from .surfaces import TransportTrace

FORMAT_VERSION = 1

CSV_HEADER = (
    "t,gamma_x,gamma_y,gamma_z,"
    "e1_x,e1_y,e1_z,e2_x,e2_y,e2_z,nu_x,nu_y,nu_z,"
    "g_w,g_x,g_y,g_z,q_w,q_x,q_y,q_z,ok"
)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _parse_frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise InputError(f"rational entries must be strings, got {type(s).__name__}")
    return Fraction(s)


def _matrix_to_rows(m: QMat) -> list[list[str]]:
    return [[_frac_str(m.get(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]


def _matrix_from_rows(rows, size: int) -> QMat:
    if len(rows) != size or any(len(r) != size for r in rows):
        raise InputError("matrix rows have the wrong shape")
    entries = {}
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell == "0":
                continue
            v = _parse_frac(cell)
            if v:
                entries[(i, j)] = v
    return QMat.from_entries(size, size, entries)


def module_to_payload(module: SpinorModule) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "signature": [module.signature.r, module.signature.s],
        "convention": CONVENTION,
        "field": module.field,
        "real_dim": module.real_dim,
        "family": module.family,
        "variant": module.variant,
        "generators": [_matrix_to_rows(g) for g in module.generators],
        "spin_metric": _matrix_to_rows(module.spin_metric),
        "commutant_basis": [_matrix_to_rows(QMat.identity(module.real_dim))]
        + [_matrix_to_rows(u) for u in module.right_units],
    }
    grading = module.real_grading()
    if grading is not None:
        payload["grading"] = list(grading)
    sig = module.signature
    if (sig.s - sig.r) % 4 == 3:
        vol = module.volume_operator()
        ident = QMat.identity(module.real_dim)
        payload["volume_sign"] = 1 if vol == ident else -1
    return payload


@dataclass
class LoadedGammaFile:
    signature: Signature
    field: str
    real_dim: int
    family: str
    variant: str
    generators: list[QMat]
    spin_metric: QMat
    commutant_basis: list[QMat]
    grading: list[int] | None
    volume_sign: int | None


def payload_to_gamma(payload: dict) -> LoadedGammaFile:
    try:
        if payload["format_version"] != FORMAT_VERSION:
            raise InputError(f"unsupported format_version {payload['format_version']}")
        r, s = payload["signature"]
        sig = Signature(int(r), int(s))
        d = int(payload["real_dim"])
        gens = [_matrix_from_rows(rows, d) for rows in payload["generators"]]
        metric = _matrix_from_rows(payload["spin_metric"], d)
        cbasis = [_matrix_from_rows(rows, d) for rows in payload.get("commutant_basis", [])]
        grading = payload.get("grading")
        if grading is not None:
            grading = [int(g) for g in grading]
            if len(grading) != d or any(g not in (1, -1) for g in grading):
                raise InputError("grading must be a list of +-1 of length real_dim")
        vol_sign = payload.get("volume_sign")
        if vol_sign is not None:
            vol_sign = int(vol_sign)
        return LoadedGammaFile(
            signature=sig,
            field=str(payload["field"]),
            real_dim=d,
            family=str(payload["family"]),
            variant=str(payload["variant"]),
            generators=gens,
            spin_metric=metric,
            commutant_basis=cbasis,
            grading=grading,
            volume_sign=vol_sign,
        )
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed gamma file: {exc}") from exc


def dump_gamma_json(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=False) + "\n"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def trace_to_csv(trace: TransportTrace) -> str:
    lines = [CSV_HEADER]
    for idx in range(len(trace)):
        cells = [trace.times[idx]]
        cells += list(trace.positions[idx])
        cells += list(trace.e1[idx])
        cells += list(trace.e2[idx])
        cells += list(trace.normals[idx])
        cells += list(trace.lifts[idx])
        cells += list(trace.spinors[idx])
        row = ",".join(_fmt_float(c) for c in cells)
        ok = trace.ok[idx] and all(map(math.isfinite, cells))
        lines.append(f"{row},{1 if ok else 0}")
    return "\n".join(lines) + "\n"
