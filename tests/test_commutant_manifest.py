"""Gate on the commutant solve: its bases, and the labels ``classify`` prints.

``commutant_manifest.json`` holds the SHA-256 of the full and the even
commutant of every recipe module with r+s <= 10 and every definite module
with n <= 16, both variants where a minus variant exists: its label, then
every basis element's entries in row-dict key order, so a change of sign,
scale, element order or key order fails here.  It also holds the SHA-256 of
``spinrep classify --max-n 16`` stdout.

Regenerate it (only for an intended change) with
``PYTHONPATH=src python tests/test_commutant_manifest.py``.
"""

import hashlib
import json
from pathlib import Path

from conftest import run_cli
from spinrep.modules import assemble_signature, intertwiners

MANIFEST = Path(__file__).with_name("commutant_manifest.json")
CLASSIFY = "classify --max-n 16"


def module_set() -> list[tuple[int, int, str]]:
    """(r, s, variant): r+s <= 10, and the definite signatures up to n = 16."""
    sigs = [(r, n - r) for n in range(1, 11) for r in range(n + 1)]
    sigs += [sig for n in range(11, 17) for sig in ((0, n), (n, 0))]
    return [(r, s, v) for r, s in sigs for v in (("plus", "minus") if (s - r) % 4 == 3 else ("plus",))]


def commutant_digest(com) -> str:
    text = com.division_algebra + "|" + ";".join(
        ",".join(f"{i}:{j}:{v}" for i, row in enumerate(b.rows) for j, v in row.items())
        for b in com.basis)
    return hashlib.sha256(text.encode()).hexdigest()


def commutant_digests() -> dict[str, str]:
    digests = {}
    for r, s, variant in module_set():
        module = assemble_signature(r, s, variant)
        for part, even in (("full", False), ("even", True)):
            digests[f"{r},{s} {variant} {part}"] = commutant_digest(intertwiners(module, even_only=even))
    result = run_cli(CLASSIFY.split())
    assert result.exit_code == 0, result.output
    digests[CLASSIFY] = hashlib.sha256(result.stdout.encode()).hexdigest()
    return digests


def test_commutants_match_manifest():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = commutant_digests()
    assert len(module_set()) == 95
    assert sorted(got) == sorted(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, f"commutant bases changed for {changed}"


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(commutant_digests(), indent=1) + "\n", encoding="utf-8")
