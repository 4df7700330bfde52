"""The v1 gamma-file loader: strict types, fixed name sets, no tracebacks."""

import copy
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinrep
from spinrep.errors import InputError
from spinrep.files import FIELDS, PAYLOAD_KEYS, VARIANTS, dump_gamma_json, module_to_payload, payload_to_gamma
from spinrep.recipe import assemble_signature
from spinrep.structure import FAMILIES

from conftest import run_cli
from test_gamma_manifest import sweep_jobs

# Cl(1,1) carries a grading, Cl(0,3) a volume sign
PAYLOADS = {sig: module_to_payload(assemble_signature(*sig)) for sig in ((1, 1), (0, 3))}
INT_KEYS = ("format_version", "real_dim")
NAME_SETS = {"field": FIELDS, "family": FAMILIES, "variant": VARIANTS}
REQUIRED = ("format_version", "signature", "real_dim", "field", "family", "variant", "generators",
            "spin_metric")


def _verify_exit(payload) -> int:
    """Exit code of ``spinrep verify`` on the payload written as JSON; an
    uncaught exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gamma.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return run_cli(["verify", path]).exit_code


def _set(payload, path, value):
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@pytest.mark.parametrize("key, value", [
    ("signature", [0.9, 2.7]),
    ("signature", [0, "2"]),
    ("signature", [True, 1]),
    ("signature", [1, 1, 0]),
    ("real_dim", 4.9),
    ("real_dim", True),
    ("format_version", True),
    ("field", "Z"),
    ("family", "nope"),
    ("family", "recipe"),
    ("variant", 7),
    ("volume_sign", True),
    ("volume_sign", 2),
    ("convention", "e_i^2 = +1 for all"),
    ("convention", None),
    ("extra", 5),
    ("Generators", []),
])
def test_loader_rejects_bad_fields(key, value):
    payload = copy.deepcopy(PAYLOADS[(1, 1)])
    payload[key] = value
    with pytest.raises(InputError):
        payload_to_gamma(payload)
    assert _verify_exit(payload) == 2


@pytest.mark.parametrize("path", [("generators", 0, 0, 1), ("spin_metric", 0, 0), ("grading", 0)])
def test_loader_rejects_true_as_a_number(path):
    payload = copy.deepcopy(PAYLOADS[(1, 1)])
    _set(payload, path, True)
    assert _verify_exit(payload) == 2


@pytest.mark.parametrize("content", [
    b"[" * 200_000 + b"]" * 200_000,  # deeper than the parser's recursion limit
    b"\xff\xfe{}",  # not UTF-8
    b"1" * 5_000,  # longer than Python's integer-string limit
], ids=["deep", "not-utf8", "long-int"])
def test_verify_malformed_bytes_exit_2_without_traceback(tmp_path, content):
    path = tmp_path / "gamma.json"
    path.write_bytes(content)
    env = dict(os.environ, PYTHONPATH=str(Path(spinrep.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "spinrep.cli", "verify", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: malformed file: ")


@pytest.mark.parametrize("cell", ["1.5", "1e9", " 1", "1/0", "", "0x1", 0.5, None,
                                  1.0, [1], {"1": 1}, "--1", "1/", "/2", "1/-2", "0/0"])
def test_loader_rejects_cells_outside_the_grammar(cell):
    payload = copy.deepcopy(PAYLOADS[(0, 3)])
    payload["generators"][1][2][3] = cell
    assert _verify_exit(payload) == 2


def test_loader_accepts_integer_cells_and_what_the_writer_writes():
    for payload in PAYLOADS.values():
        assert _verify_exit(payload) == 0
    payload = copy.deepcopy(PAYLOADS[(0, 3)])
    payload["generators"] = [[[int(c.split("/")[0]) for c in row] for row in g] for g in payload["generators"]]
    assert _verify_exit(payload) == 0
    # zero written as 0, "-0" or "0/7" stores nothing
    zeros = copy.deepcopy(PAYLOADS[(0, 3)])
    for g in zeros["generators"]:
        for row in g:
            row[:] = [(0, "-0", "0/7")[j % 3] if c == "0" else c for j, c in enumerate(row)]
    assert _verify_exit(zeros) == 0
    assert payload_to_gamma(zeros)["generators"] == payload_to_gamma(PAYLOADS[(0, 3)])["generators"]


def test_loader_accepts_every_key_the_writer_writes():
    assert sorted(PAYLOADS[(1, 1)].keys() | PAYLOADS[(0, 3)].keys()) == sorted(PAYLOAD_KEYS)


# ---------------------------------------------------------------------------
# The writer against json's indenting encoder
# ---------------------------------------------------------------------------


def _writer_payloads():
    jobs = sweep_jobs() + [(f"recipe {r},{s} plus", lambda r=r, s=s: assemble_signature(r, s))
                           for r, s in ((0, 15), (3, 9))]
    return [(key, lambda build=build: module_to_payload(build())) for key, build in jobs]


def _odd_cells():
    payload = copy.deepcopy(PAYLOADS[(0, 3)])
    payload["generators"][0][0][1] = "1/2"
    payload["generators"][1][2][3] = "-2"
    payload["spin_metric"] = [[int(c) for c in row] for row in payload["spin_metric"]]
    payload["commutant_basis"] = []
    return payload


@pytest.mark.parametrize("key, make", _writer_payloads() + [("odd cells", _odd_cells)],
                         ids=[key for key, _ in _writer_payloads()] + ["odd cells"])
def test_writer_matches_json_indent_encoder(key, make):
    payload = make()
    assert dump_gamma_json(payload) == json.dumps(payload, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
NOT_INT_SCALAR = st.booleans() | st.floats() | st.text(max_size=3)
NOT_INT = NOT_INT_SCALAR | st.lists(st.integers(), max_size=2)
NOT_CELL = (st.booleans() | st.floats() | st.none() | st.lists(st.integers(), max_size=2)
            | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
            | st.text(max_size=4).filter(lambda t: not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", t)))


def _matrix_paths(payload):
    yield ("spin_metric",)
    for key in ("generators", "commutant_basis"):
        for k in range(len(payload[key])):
            yield (key, k)


@st.composite
def malformed(draw):
    """A valid payload with one change that breaks the v1 schema."""
    payload = copy.deepcopy(draw(st.sampled_from(list(PAYLOADS.values()))))
    d = payload["real_dim"]
    kind = draw(st.sampled_from(["drop", "int", "signature", "name", "grading", "volume", "cell", "row",
                                 "matrix", "list", "top"]))
    if kind == "drop":
        del payload[draw(st.sampled_from(REQUIRED))]
    elif kind == "int":
        payload[draw(st.sampled_from(INT_KEYS))] = draw(NOT_INT | st.none())
    elif kind == "signature":
        payload["signature"] = draw(st.one_of(
            NOT_INT_SCALAR, st.lists(st.integers(0, 3), min_size=3, max_size=4),
            st.lists(NOT_INT, min_size=2, max_size=2), st.just([0, 0]), st.just([-1, 2])))
    elif kind == "name":
        key = draw(st.sampled_from(sorted(NAME_SETS)))
        payload[key] = draw(JSON.filter(lambda v, allowed=NAME_SETS[key]: v not in allowed))
    elif kind == "grading":
        payload["grading"] = draw(st.one_of(
            NOT_INT_SCALAR, st.lists(st.sampled_from([1, -1]), max_size=d + 2).filter(lambda g: len(g) != d),
            st.lists(NOT_INT | st.integers().filter(lambda v: v not in (1, -1)), min_size=d, max_size=d)))
    elif kind == "volume":
        payload["volume_sign"] = draw(NOT_INT | st.integers().filter(lambda v: v not in (1, -1)))
    else:
        path = draw(st.sampled_from(list(_matrix_paths(payload))))
        if kind == "cell":
            path += (draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)))
            value = draw(NOT_CELL)
        elif kind == "row":
            path += (draw(st.integers(0, d - 1)),)
            value = draw(JSON.filter(lambda v: not isinstance(v, list) or len(v) != d))
        elif kind == "matrix":
            value = draw(JSON.filter(lambda v: not isinstance(v, list) or len(v) != d))
        elif kind == "list":
            path = (path[0],)
            value = draw(JSON.filter(lambda v: not isinstance(v, list)))
        else:
            return draw(JSON.filter(lambda v: not isinstance(v, dict)))
        _set(payload, path, value)
    return payload


@settings(max_examples=300, deadline=None)
@given(malformed())
def test_fuzz_malformed_files_exit_2(payload):
    with pytest.raises(InputError):
        payload_to_gamma(payload)
    assert _verify_exit(payload) == 2


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _paths(value, prefix + (idx,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_any_change_never_raises_a_traceback(data):
    payload = copy.deepcopy(data.draw(st.sampled_from(list(PAYLOADS.values()))))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(payload))))
        value = data.draw(JSON | st.sampled_from(["0", "1", "-1", "1/2", 1, -1, 2]))
        if not path:
            payload = value
            break
        _set(payload, path, value)
    assert _verify_exit(payload) in (0, 1, 2)
