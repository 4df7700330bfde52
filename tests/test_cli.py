"""CLI contract: round trips, exit codes, determinism, table output."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import spinrep
from spinrep.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _generate(runner, tmp_path, name, *args):
    out = tmp_path / name
    result = runner.invoke(main, ["generate", *args, "--out", str(out)])
    return result, out


def test_generate_verify_round_trip(runner, tmp_path):
    result, out = _generate(runner, tmp_path, "g08.json", "--sig", "0,8")
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["real_dim"] == 16
    verify = runner.invoke(main, ["verify", str(out)])
    assert verify.exit_code == 0, verify.output


def test_generate_minus_variant_volume(runner, tmp_path):
    result, out = _generate(runner, tmp_path, "g03m.json", "--sig", "0,3", "--variant", "minus")
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["volume_sign"] == 1
    result, out = _generate(runner, tmp_path, "g03p.json", "--sig", "0,3")
    payload = json.loads(out.read_text())
    assert payload["volume_sign"] == -1


def test_generate_rejects_bad_family_dimension(runner, tmp_path):
    result, _ = _generate(runner, tmp_path, "bad.json", "--sig", "0,5", "--family", "sqrt-space")
    assert result.exit_code == 2
    result, _ = _generate(runner, tmp_path, "bad2.json", "--sig", "1,3", "--family", "octonion")
    assert result.exit_code == 2
    result, _ = _generate(runner, tmp_path, "bad3.json", "--sig", "0,2", "--variant", "minus")
    assert result.exit_code == 2


def test_verify_detects_corruption(runner, tmp_path):
    result, out = _generate(runner, tmp_path, "g06.json", "--sig", "0,6")
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    # flip one generator entry
    rows = payload["generators"][0]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell != "0":
                rows[i][j] = "7/2"
                break
        else:
            continue
        break
    out.write_text(json.dumps(payload))
    verify = runner.invoke(main, ["verify", str(out)])
    assert verify.exit_code == 1
    assert "clifford-condition" in verify.output
    assert "1" in verify.output  # the violating pair names generator 1


def test_verify_checks_definite_variant_sign(runner, tmp_path):
    # Cl(1,0): the recorded variant must match the sign of the volume element
    result, out = _generate(runner, tmp_path, "g10.json", "--sig", "1,0")
    assert result.exit_code == 0
    assert "PASS volume-variant" in runner.invoke(main, ["verify", str(out)]).output
    payload = json.loads(out.read_text())
    payload["variant"] = "minus"
    out.write_text(json.dumps(payload))
    verify = runner.invoke(main, ["verify", str(out)])
    assert verify.exit_code == 1
    assert "FAIL volume-variant (variant minus)" in verify.output


def test_verify_checks_right_units_are_imaginary(runner, tmp_path):
    # 1 + J commutes with every generator but is not skew-adjoint
    result, out = _generate(runner, tmp_path, "g05.json", "--sig", "0,5")
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    ident, unit = payload["commutant_basis"][:2]
    payload["commutant_basis"][1] = [
        [str(Fraction(a) + Fraction(b)) for a, b in zip(row_i, row_j)]
        for row_i, row_j in zip(ident, unit)
    ]
    out.write_text(json.dumps(payload))
    verify = runner.invoke(main, ["verify", str(out)])
    assert verify.exit_code == 1
    assert "FAIL spin-metric (right unit 1 fails skew-adjointness)" in verify.output
    assert "PASS commutant-basis" in verify.output


def test_verify_malformed_file(runner, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 2
    missing = tmp_path / "missing" / "nowhere.json"
    result = runner.invoke(main, ["verify", str(missing)])
    assert result.exit_code == 3


def test_octonion_file_round_trip(runner, tmp_path):
    result, out = _generate(
        runner, tmp_path, "oct8.json", "--sig", "0,8", "--family", "octonion"
    )
    assert result.exit_code == 0
    verify = runner.invoke(main, ["verify", str(out)])
    assert verify.exit_code == 0
    assert "PASS spin-metric" in verify.output


def test_file_determinism(runner, tmp_path):
    _, out1 = _generate(runner, tmp_path, "a.json", "--sig", "2,3")
    _, out2 = _generate(runner, tmp_path, "b.json", "--sig", "2,3")
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_matches(runner):
    result = runner.invoke(main, ["classify", "--max-n", "8"])
    assert result.exit_code == 0, result.output
    lines = [ln for ln in result.output.splitlines() if ln and not ln.startswith(" ")]
    assert all("MATCH" in ln for ln in lines if ln[0].isdigit() or ln.strip()[0].isdigit())
    assert "MISMATCH" not in result.output
    # n = 7 appears with both variants
    sevens = [ln for ln in result.output.splitlines() if ln.strip().startswith("7 ")]
    assert len(sevens) == 2


def test_classify_rejects_out_of_range(runner):
    result = runner.invoke(main, ["classify", "--max-n", "30"])
    assert result.exit_code == 2


def test_transport_deterministic_and_correct(runner, tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    for out in (out1, out2):
        result = runner.invoke(
            main,
            ["transport", "--steps", "1000", "--q0", "i", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("t,gamma_x")
    last = lines[-1].split(",")
    # final spinor is -i within 1e-6
    q = list(map(float, last[17:21]))
    assert abs(q[0]) < 1e-6 and abs(q[1] + 1) < 1e-6 and abs(q[2]) < 1e-6 and abs(q[3]) < 1e-6
    assert last[-1] == "1"


def test_transport_degraded_steps(runner, tmp_path):
    out = tmp_path / "coarse.csv"
    result = runner.invoke(main, ["transport", "--steps", "2", "--out", str(out)])
    assert result.exit_code == 0
    rows = out.read_text().splitlines()[1:]
    flags = [row.rsplit(",", 1)[1] for row in rows]
    assert "0" in flags


def test_transport_bad_specs(runner, tmp_path):
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["transport", "--curve", "u=", "--out", str(out)])
    assert result.exit_code == 2
    result = runner.invoke(main, ["transport", "--q0", "1,2", "--out", str(out)])
    assert result.exit_code == 2
    result = runner.invoke(main, ["transport", "--surface", "y=u", "--out", str(out)])
    assert result.exit_code == 2


def test_transport_integration_failure_exit_4(runner, tmp_path):
    out = tmp_path / "pinch.csv"
    # folded chart: X_u vanishes along u = 0, crossed mid-curve
    result = runner.invoke(
        main,
        [
            "transport",
            "--surface", "x=u*u; y=v; z=0",
            "--curve", "u=t-0.5; v=0.3",
            "--steps", "100",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 4
    assert "t=" in result.output


def test_transport_custom_surface_and_curve(runner, tmp_path):
    out = tmp_path / "plane.csv"
    result = runner.invoke(
        main,
        [
            "transport",
            "--surface", "x=u; y=v; z=0",
            "--curve", "u=cos(2*pi*t); v=sin(2*pi*t)",
            "--q0", "1",
            "--steps", "500",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    rows = out.read_text().splitlines()
    first = rows[1].split(",")
    last = rows[-1].split(",")
    # flat surface: the lift is constant and the spinor returns to itself
    for a, b in zip(first[13:21], last[13:21]):
        assert abs(float(a) - float(b)) < 1e-9


SPHERE_SPEC = "x=sin(u)*cos(v); y=sin(v); z=cos(u)*cos(v)"
LATITUDE = "u=2*pi*t; v=0.4"

# SHA-256 of `spinrep transport` CSVs, recorded when the builtin surfaces and
# the great circle were still hand-coded; compiling them must not move a byte.
TRANSPORT_SHA256 = {
    ("unit-sphere", "great-circle", "0.3,0.1,-0.5,2", "2000"):
        "2563cb72fd083ec7f9a8bafd01ec37cad880729ca237921f0946ef4c0c536b3d",
    ("unit-sphere", LATITUDE, "i", "2000"):
        "193aaf7906b36f82e00192a534e40470602c223b155c246f69d2d18af09da91e",
    (SPHERE_SPEC, LATITUDE, "i", "2000"):
        "193aaf7906b36f82e00192a534e40470602c223b155c246f69d2d18af09da91e",
    ("plane", "u=cos(t); v=sin(2*t)", "1", "500"):
        "cdeedc4bdeb861971535a1fef084ce4b1cf7f62347f3737f212bbf28ba0a4abe",
}


def _transport_bytes(runner, tmp_path, surface, curve, q0, steps) -> bytes:
    out = tmp_path / "pinned.csv"
    result = runner.invoke(main, ["transport", "--surface", surface, "--curve", curve,
                                  "--q0", q0, "--steps", steps, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(TRANSPORT_SHA256))
def test_transport_csv_is_pinned(runner, tmp_path, case):
    data = _transport_bytes(runner, tmp_path, *case)
    assert hashlib.sha256(data).hexdigest() == TRANSPORT_SHA256[case]


@pytest.mark.parametrize("named, spelled", [
    (("unit-sphere", "great-circle"), (SPHERE_SPEC, "u=2*pi*t; v=0")),
    (("plane", "u=cos(t); v=sin(2*t)"), ("x=u; y=v; z=0", "u=cos(t); v=sin(2*t)")),
])
def test_transport_builtin_names_are_their_specs(runner, tmp_path, named, spelled):
    assert (_transport_bytes(runner, tmp_path, *named, "0.3,0.1,-0.5,2", "300")
            == _transport_bytes(runner, tmp_path, *spelled, "0.3,0.1,-0.5,2", "300"))


@pytest.mark.parametrize("curve", ["u=t; v=sqrt(0.5-t)", "u=t; v=1/(t-0.5)"])
def test_transport_domain_error_exit_4(runner, tmp_path, curve):
    out = tmp_path / "domain.csv"
    result = runner.invoke(
        main, ["transport", "--curve", curve, "--steps", "100", "--out", str(out)]
    )
    assert result.exit_code == 4, result.output
    assert "t=0.5" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["--q0", "nan,0,0,0"],
        ["--q0", "0,1,inf,0"],
        ["--q0", "0,0,0,0"],
        ["--t1", "nan"],
        ["--t0", "-inf"],
        ["--t0", "1", "--t1", "1"],
    ],
)
def test_transport_rejects_non_finite_or_degenerate_input(runner, tmp_path, args):
    out = tmp_path / "bad.csv"
    result = runner.invoke(main, ["transport", *args, "--steps", "10", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert not out.exists()


def test_transport_rejects_python_escape(runner, tmp_path):
    out = tmp_path / "escape.csv"
    result = runner.invoke(
        main,
        [
            "transport",
            "--surface", "x=u; y=v; z=0*().__class__.__mro__.__len__()",
            "--steps", "10",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 2
    assert "not allowed" in result.output


def _loaded_after(code: str) -> set[str]:
    """The spinrep modules a fresh interpreter has loaded after ``code``."""
    src = str(Path(spinrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = code + "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('spinrep')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return set(done.stdout.split())


def test_commands_load_only_the_layers_they_use(tmp_path):
    assert _loaded_after("import spinrep.cli") == {"spinrep", "spinrep.cli", "spinrep.errors"}
    out = tmp_path / "g.json"
    loaded = _loaded_after("from spinrep.cli import main\n"
                           f"main(['generate', '--sig', '1,1', '--out', {str(out)!r}], standalone_mode=False)")
    assert out.is_file() and "spinrep.modules" in loaded
    assert not loaded & {"spinrep.spin", "spinrep.surfaces", "spinrep.expressions"}
    out = tmp_path / "t.csv"
    loaded = _loaded_after("from spinrep.cli import main\n"
                           f"main(['transport', '--steps', '50', '--out', {str(out)!r}], standalone_mode=False)")
    assert out.is_file() and {"spinrep.surfaces", "spinrep.expressions"} <= loaded
    assert not loaded & {"spinrep.modules", "spinrep.kmatrix"}
