"""Byte-level gate on the gamma JSON writer.

``gamma_manifest.json`` holds the SHA-256 of ``dump_gamma_json(
module_to_payload(m))`` for every module of the criterion-10 sweep: recipe
modules with r+s <= 10 (both variants where a minus variant exists), the
sqrt-space modules n = 1..4 and the octonion modules k = 4..8.  Any change to
module assembly or to the writer that alters a single byte fails here.

``definite_manifest.json`` reaches past that sweep for the definite
signatures: the SHA-256 of the module data (signature, family, field,
variant, layout, generators, spin metric and right units) of every Cl(0,n)
and Cl(n,0) module with n <= 16, both variants where a minus variant exists.

Regenerate both manifests (only for an intended change) with
``PYTHONPATH=src python tests/test_gamma_manifest.py``.
"""

import hashlib
import json
from pathlib import Path

from spinrep.files import dump_gamma_json, module_to_payload
from spinrep.modules import assemble_signature, octonion_module, sqrt_space_module, verify_module

MANIFEST = Path(__file__).with_name("gamma_manifest.json")
DEFINITE_MANIFEST = Path(__file__).with_name("definite_manifest.json")


def sweep_jobs():
    """(key, builder) for every module of the criterion-10 sweep."""
    jobs = []
    for total in range(1, 11):
        for r in range(total + 1):
            s = total - r
            variants = ("plus", "minus") if (s - r) % 4 == 3 else ("plus",)
            for variant in variants:
                jobs.append((f"recipe {r},{s} {variant}",
                             lambda r=r, s=s, v=variant: assemble_signature(r, s, v)))
    for n in range(1, 5):
        jobs.append((f"sqrt-space 0,{n} plus", lambda n=n: sqrt_space_module(n)))
    for k in range(4, 9):
        jobs.append((f"octonion 0,{k} plus", lambda k=k: octonion_module(k)))
    return jobs


def gamma_hashes() -> dict[str, str]:
    return {
        key: hashlib.sha256(dump_gamma_json(module_to_payload(build())).encode()).hexdigest()
        for key, build in sweep_jobs()
    }


def module_digest(module) -> str:
    def rows(m):
        return [sorted((j, str(v)) for j, v in row.items()) for row in m.rows]

    data = [str(module.signature), module.family, module.field, module.variant,
            module.space.field, module.space.dim, module.space.grading,
            [rows(g) for g in module.generators], rows(module.spin_metric),
            [rows(u) for u in module.right_units]]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def definite_jobs():
    """(key, build) for every Cl(0,n) and Cl(n,0) module with n <= 16."""
    jobs = []
    for n in range(1, 17):
        for r, s in ((0, n), (n, 0)):
            for variant in ("plus", "minus") if (s - r) % 4 == 3 else ("plus",):
                jobs.append((f"{r},{s} {variant}", lambda r=r, s=s, v=variant: assemble_signature(r, s, v)))
    return jobs


def definite_digests() -> dict[str, str]:
    return {key: module_digest(build()) for key, build in definite_jobs()}


def test_every_manifest_module_passes_the_audit():
    failed = {}
    for key, build in sweep_jobs() + definite_jobs():
        report = verify_module(build())
        if not report.ok:
            failed[key] = [c for c in report.checks if not c[1]]
    assert not failed


def test_definite_modules_match_manifest():
    expected = json.loads(DEFINITE_MANIFEST.read_text(encoding="utf-8"))
    got = definite_digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"definite module data changed for {changed}"


def test_gamma_bytes_match_manifest():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = gamma_hashes()
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"gamma JSON bytes changed for {changed}"


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(gamma_hashes(), indent=1) + "\n", encoding="utf-8")
    DEFINITE_MANIFEST.write_text(json.dumps(definite_digests(), indent=1) + "\n", encoding="utf-8")
