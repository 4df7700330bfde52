"""CLI contract: round trips, exit codes, determinism, table output."""

import json

import pytest
from click.testing import CliRunner

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
