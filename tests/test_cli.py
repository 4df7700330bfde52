"""CLI contract: round trips, exit codes, determinism, table output."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spinrep
from conftest import run_cli
from spinrep import structure


def _generate(tmp_path, name, *args):
    out = tmp_path / name
    result = run_cli(["generate", *args, "--out", str(out)])
    return result, out


def test_generate_verify_round_trip(tmp_path):
    result, out = _generate(tmp_path, "g08.json", "--sig", "0,8")
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["real_dim"] == 16
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 0, verify.output


def test_generate_minus_variant_volume(tmp_path):
    result, out = _generate(tmp_path, "g03m.json", "--sig", "0,3", "--variant", "minus")
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["volume_sign"] == 1
    result, out = _generate(tmp_path, "g03p.json", "--sig", "0,3")
    payload = json.loads(out.read_text())
    assert payload["volume_sign"] == -1


def test_generate_reports_what_it_wrote(tmp_path):
    result, out = _generate(tmp_path, "g03.json", "--sig", "0,3")
    assert result.exit_code == 0
    assert result.stdout == (f"wrote {out}: Cl(0,3) family=quaternionic-multivector variant=plus "
                             "K=H real_dim=4\n")


def test_generate_rejects_bad_family_dimension(tmp_path):
    result, _ = _generate(tmp_path, "bad.json", "--sig", "0,5", "--family", "sqrt-space")
    assert result.exit_code == 2
    result, _ = _generate(tmp_path, "bad2.json", "--sig", "1,3", "--family", "octonion")
    assert result.exit_code == 2
    result, _ = _generate(tmp_path, "bad3.json", "--sig", "0,2", "--variant", "minus")
    assert result.exit_code == 2


def test_verify_reports_the_checks_it_skips(tmp_path):
    # Cl(0,7) has no grading; Cl(5,5) has s - r = 0 mod 4, so no volume checks
    _, out = _generate(tmp_path, "g07.json", "--sig", "0,7")
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 0
    assert "SKIP generators-odd: no grading\n" in verify.output
    assert "PASS volume-central-sign" in verify.output and "SKIP volume" not in verify.output
    _, out = _generate(tmp_path, "g55.json", "--sig", "5,5")
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 0 and "PASS generators-odd" in verify.output
    skips = [line for line in verify.output.splitlines() if line.startswith("SKIP")]
    assert skips == [f"SKIP {name}: s - r = 0 mod 4, not 3"
                     for name in ("volume-central-sign", "volume-sign-recorded", "volume-variant")]
    # after a wrong generator count nothing else runs, and each check says so
    payload = json.loads(out.read_text())
    payload["generators"].pop()
    out.write_text(json.dumps(payload))
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 1
    lines = verify.output.splitlines()
    assert lines[0] == "FAIL generator-count (9 != 10)"
    assert lines[1:] == [f"SKIP {name}: wrong generator count" for name in structure.CHECKS]


def test_verify_detects_corruption(tmp_path):
    result, out = _generate(tmp_path, "g06.json", "--sig", "0,6")
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
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 1
    assert "clifford-condition" in verify.output
    assert "1" in verify.output  # the violating pair names generator 1


def test_verify_checks_definite_variant_sign(tmp_path):
    # Cl(1,0): the recorded variant must match the sign of the volume element
    result, out = _generate(tmp_path, "g10.json", "--sig", "1,0")
    assert result.exit_code == 0
    assert "PASS volume-variant" in run_cli(["verify", str(out)]).output
    payload = json.loads(out.read_text())
    payload["variant"] = "minus"
    out.write_text(json.dumps(payload))
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 1
    assert "FAIL volume-variant (variant minus)" in verify.output


def test_verify_checks_right_units_are_imaginary(tmp_path):
    # 1 + J commutes with every generator but is not skew-adjoint
    result, out = _generate(tmp_path, "g05.json", "--sig", "0,5")
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    ident, unit = payload["commutant_basis"][:2]
    payload["commutant_basis"][1] = [
        [str(Fraction(a) + Fraction(b)) for a, b in zip(row_i, row_j)]
        for row_i, row_j in zip(ident, unit)
    ]
    out.write_text(json.dumps(payload))
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 1
    assert "FAIL spin-metric (right unit 1 fails skew-adjointness)" in verify.output
    assert "PASS commutant-basis" in verify.output


def test_verify_malformed_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    result = run_cli(["verify", str(bad)])
    assert result.exit_code == 2
    missing = tmp_path / "missing" / "nowhere.json"
    result = run_cli(["verify", str(missing)])
    assert result.exit_code == 3


def test_octonion_file_round_trip(tmp_path):
    result, out = _generate(tmp_path, "oct8.json", "--sig", "0,8", "--family", "octonion")
    assert result.exit_code == 0
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 0
    assert "PASS spin-metric" in verify.output


def test_file_determinism(tmp_path):
    _, out1 = _generate(tmp_path, "a.json", "--sig", "2,3")
    _, out2 = _generate(tmp_path, "b.json", "--sig", "2,3")
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_matches():
    result = run_cli(["classify", "--max-n", "8"])
    assert result.exit_code == 0, result.output
    lines = [ln for ln in result.output.splitlines() if ln and not ln.startswith(" ")]
    assert all("MATCH" in ln for ln in lines if ln[0].isdigit() or ln.strip()[0].isdigit())
    assert "MISMATCH" not in result.output
    # n = 7 appears with both variants
    sevens = [ln for ln in result.output.splitlines() if ln.strip().startswith("7 ")]
    assert len(sevens) == 2


def test_classify_rejects_out_of_range():
    result = run_cli(["classify", "--max-n", "30"])
    assert result.exit_code == 2


def test_transport_deterministic_and_correct(tmp_path):
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    for out in (out1, out2):
        result = run_cli(["transport", "--steps", "1000", "--q0", "i", "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("t,gamma_x")
    last = lines[-1].split(",")
    # final spinor is -i within 1e-6
    q = list(map(float, last[17:21]))
    assert abs(q[0]) < 1e-6 and abs(q[1] + 1) < 1e-6 and abs(q[2]) < 1e-6 and abs(q[3]) < 1e-6
    assert last[-1] == "1"


def test_transport_degraded_steps(tmp_path):
    out = tmp_path / "coarse.csv"
    result = run_cli(["transport", "--steps", "2", "--out", str(out)])
    assert result.exit_code == 0
    rows = out.read_text().splitlines()[1:]
    flags = [row.rsplit(",", 1)[1] for row in rows]
    assert "0" in flags


def test_transport_bad_specs(tmp_path):
    out = tmp_path / "x.csv"
    result = run_cli(["transport", "--curve", "u=", "--out", str(out)])
    assert result.exit_code == 2
    result = run_cli(["transport", "--q0", "1,2", "--out", str(out)])
    assert result.exit_code == 2
    result = run_cli(["transport", "--surface", "y=u", "--out", str(out)])
    assert result.exit_code == 2


def test_transport_integration_failure_exit_4(tmp_path):
    out = tmp_path / "pinch.csv"
    # folded chart: X_u vanishes along u = 0, crossed mid-curve
    result = run_cli([
        "transport",
        "--surface", "x=u*u; y=v; z=0",
        "--curve", "u=t-0.5; v=0.3",
        "--steps", "100",
        "--out", str(out),
    ])
    assert result.exit_code == 4
    assert "t=" in result.output


def test_transport_custom_surface_and_curve(tmp_path):
    out = tmp_path / "plane.csv"
    result = run_cli([
        "transport",
        "--surface", "x=u; y=v; z=0",
        "--curve", "u=cos(2*pi*t); v=sin(2*pi*t)",
        "--q0", "1",
        "--steps", "500",
        "--out", str(out),
    ])
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


def _transport_bytes(tmp_path, surface, curve, q0, steps) -> bytes:
    out = tmp_path / "pinned.csv"
    result = run_cli(["transport", "--surface", surface, "--curve", curve,
                      "--q0", q0, "--steps", steps, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(TRANSPORT_SHA256))
def test_transport_csv_is_pinned(tmp_path, case):
    data = _transport_bytes(tmp_path, *case)
    assert hashlib.sha256(data).hexdigest() == TRANSPORT_SHA256[case]


@pytest.mark.parametrize("named, spelled", [
    (("unit-sphere", "great-circle"), (SPHERE_SPEC, "u=2*pi*t; v=0")),
    (("plane", "u=cos(t); v=sin(2*t)"), ("x=u; y=v; z=0", "u=cos(t); v=sin(2*t)")),
])
def test_transport_builtin_names_are_their_specs(tmp_path, named, spelled):
    assert (_transport_bytes(tmp_path, *named, "0.3,0.1,-0.5,2", "300")
            == _transport_bytes(tmp_path, *spelled, "0.3,0.1,-0.5,2", "300"))


@pytest.mark.parametrize("curve", ["u=t; v=sqrt(0.5-t)", "u=t; v=1/(t-0.5)"])
def test_transport_domain_error_exit_4(tmp_path, curve):
    out = tmp_path / "domain.csv"
    result = run_cli(["transport", "--curve", curve, "--steps", "100", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "t=0.5" in result.output


def test_transport_overflowing_start_normal_exit_4(tmp_path):
    # X_u x X_v overflows to (inf, -1e200, 0) at the start: its unit vector
    # would be NaN, and every frame, g and q cell with it
    out = tmp_path / "overflow.csv"
    result = run_cli(["transport", "--surface", "x=u; y=u*1e200; z=v*1e200", "--curve", "u=t; v=0",
                      "--steps", "4", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "t=0.0" in result.output and "start normal is not finite" in result.output
    assert not out.exists()


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
def test_transport_rejects_non_finite_or_degenerate_input(tmp_path, args):
    out = tmp_path / "bad.csv"
    result = run_cli(["transport", *args, "--steps", "10", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert not out.exists()


def test_transport_rejects_python_escape(tmp_path):
    out = tmp_path / "escape.csv"
    result = run_cli([
        "transport",
        "--surface", "x=u; y=v; z=0*().__class__.__mro__.__len__()",
        "--steps", "10",
        "--out", str(out),
    ])
    assert result.exit_code == 2
    assert "not allowed" in result.output


def _forge(payload: dict, how: str) -> dict:
    """A Cl(0,3) file that misstates its field, or the reducible S + S."""
    if how == "field":
        return dict(payload, field="R")

    def doubled(rows):
        pad = ["0"] * len(rows)
        return [row + pad for row in rows] + [pad + row for row in rows]

    forged = dict(payload, real_dim=2 * payload["real_dim"], spin_metric=doubled(payload["spin_metric"]))
    for key in ("generators", "commutant_basis"):
        forged[key] = [doubled(m) for m in payload[key]]
    return forged


@pytest.mark.parametrize("how", ["field", "doubled"])
def test_verify_checks_the_classification_table(tmp_path, how):
    result, out = _generate(tmp_path, "g03.json", "--sig", "0,3")
    assert result.exit_code == 0
    assert "PASS classification-table" in run_cli(["verify", str(out)]).output
    out.write_text(json.dumps(_forge(json.loads(out.read_text()), how)))
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 1, verify.output
    failed = [ln for ln in verify.output.splitlines() if ln.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL classification-table"), verify.output


# A Cl(0,3) file (K = H) whose commutant basis is cut short, or whose metric
# is zero: each passes every other check, and only the named one fails.
FORGED_CLAIMS = {
    "basis cut to [I]": (lambda p: dict(p, commutant_basis=p["commutant_basis"][:1]), "commutant-dimension"),
    "basis cut to two": (lambda p: dict(p, commutant_basis=p["commutant_basis"][:2]), "commutant-dimension"),
    "zero metric": (lambda p: dict(p, spin_metric=[["0"] * 4] * 4), "spin-metric-definite"),
}


@pytest.mark.parametrize("how", sorted(FORGED_CLAIMS))
def test_verify_decides_the_commutant_and_metric_claims(tmp_path, how):
    forge, check = FORGED_CLAIMS[how]
    result, out = _generate(tmp_path, "g03.json", "--sig", "0,3")
    assert result.exit_code == 0
    passed = run_cli(["verify", str(out)]).output
    assert "PASS commutant-dimension" in passed and "PASS spin-metric-definite" in passed
    out.write_text(json.dumps(forge(json.loads(out.read_text()))))
    verify = run_cli(["verify", str(out)])
    assert verify.exit_code == 1, verify.output
    failed = [ln for ln in verify.output.splitlines() if ln.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL {check}"), verify.output


# Exit codes as the click-based CLI gave them; {out} is a new file and {dir}
# an existing directory.
PARSER_CASES = [
    ("transport --steps 10 --sign -1 --out {out}", 0),
    ("transport --steps 10 --sign=-1 --out {out}", 0),
    ("transport --steps 10 --t0 -0.5 --t1 0.5 --out {out}", 0),
    ("transport --steps 10 --q0 -1,0,0,0 --out {out}", 0),
    ("generate --sig 0,3 --family bogus --out {out}", 2),
    ("generate --sig 0,3 --variant bogus --out {out}", 2),
    ("transport --steps 10 --sign 1 --out {out}", 2),
    ("generate --sig 0,3", 2),
    ("transport --steps 10", 2),
    ("generate --sig 0,3 --out {dir}", 2),
    ("transport --steps 10 --out {dir}", 2),
    ("generate --sig -1,3 --out {out}", 2),
    ("generate --var minus --sig 0,3 --out {out}", 2),
    ("classify --max-n abc", 2),
    ("classify --max-n 3 extra", 2),
    ("verify", 2),
    ("bogus", 2),
    ("", 2),
]


@pytest.mark.parametrize("line, code", PARSER_CASES)
def test_parser_edge_cases(tmp_path, line, code):
    out = tmp_path / "out.txt"
    result = run_cli([arg.format(out=out, dir=tmp_path) for arg in line.split()])
    assert result.exit_code == code, result.output
    assert out.exists() == (code == 0)


def test_negative_option_values_are_values(tmp_path):
    def rows(*args):
        out = tmp_path / "t.csv"
        assert run_cli(["transport", "--steps", "10", *args, "--out", str(out)]).exit_code == 0
        return out.read_text().splitlines()[1:]

    assert rows("--sign", "-1") == rows("--sign=-1") != rows("--sign", "+1")
    assert [float(r.split(",")[0]) for r in rows("--t0", "-0.5", "--t1", "0.5")][::5] == [-0.5, 0.0, 0.5]
    assert rows("--q0", "-1,0,0,0") != rows("--q0", "1,0,0,0")


def test_help_lists_the_commands():
    result = run_cli(["--help"])
    assert result.exit_code == 0
    assert all(name in result.stdout for name in ("generate", "verify", "classify", "transport"))


def _loaded_after(argv: list[str]) -> tuple[set[str], set[str]]:
    """The spinrep modules a fresh interpreter has loaded after running
    ``spinrep <argv>``, and the top-level names of every module the run
    loaded (the interpreter's own start-up modules excepted)."""
    src = str(Path(spinrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import contextlib, io, sys\n"
             "before = set(sys.modules)\n"
             "from spinrep.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
             f"    main({argv!r})\n"
             "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
             "print(*(m for m in sys.modules if m.startswith('spinrep')))\n"
             "print(*new)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    spinrep_line, new_line = done.stdout.split("\n")[:2]
    return set(spinrep_line.split()), set(new_line.split())


def test_commands_load_only_the_layers_they_use(tmp_path):
    gamma, csv = tmp_path / "g.json", tmp_path / "t.csv"
    base = {"spinrep", "spinrep.cli", "spinrep.errors"}
    exact = {"spinrep.structure", "spinrep.linalg"}
    recipe = base | exact | {"spinrep.recipe"}
    # the other families read the recipe's unit table and compile neither spinrep.algebras nor spinrep.clifford
    builders = recipe | {"spinrep.modules", "spinrep.files"}
    cases = [
        (["--help"], base),
        # the recipe family compiles neither the other families nor the commutant solve
        (["generate", "--sig", "1,1", "--out", str(gamma)], recipe | {"spinrep.files"}),
        (["generate", "--sig", "0,8", "--family", "octonion", "--out", str(tmp_path / "o.json")], builders),
        (["generate", "--sig", "0,4", "--family", "sqrt-space", "--out", str(tmp_path / "s.json")], builders),
        (["verify", str(gamma)], base | exact | {"spinrep.files"}),
        (["transport", "--steps", "50", "--out", str(csv)],
         base | {"spinrep.expressions", "spinrep.surfaces", "spinrep.files"}),
        (["classify", "--max-n", "3"], recipe | {"spinrep.kmatrix"}),
    ]
    for argv, expected in cases:
        loaded, new = _loaded_after(argv)
        assert loaded == expected, argv
        # the CLI runs on the standard library alone
        assert new - set(sys.stdlib_module_names) == {"spinrep"}, argv
        # and without dataclasses, which imports inspect: both cost every cold command
        assert not new & {"dataclasses", "inspect"}, argv
    assert gamma.is_file() and csv.is_file() and (tmp_path / "o.json").is_file() and (tmp_path / "s.json").is_file()


def test_every_export_resolves():
    # the package resolves its exports lazily from a name table, which
    # nothing else checks against the submodules
    missing = [name for name in spinrep.__all__ if not hasattr(spinrep, name)]
    assert not missing


def test_exported_values_compare_by_value():
    # the immutable exported values are equal (and, but for the dict-backed
    # ones, hashed) by their fields; Signature also reprs them
    sig = spinrep.Signature(0, 3)
    assert sig == spinrep.Signature(0, 3) and len({sig, spinrep.Signature(0, 3)}) == 1
    assert repr(sig) == "Signature(r=0, s=3)" and str(sig) == "Cl(0,3)"
    space = spinrep.GradedSpace("H", 2, (1, -1))
    assert space == spinrep.GradedSpace("H", 2, (1, -1)) != spinrep.GradedSpace("H", 2)
    assert hash(space) == hash(spinrep.GradedSpace("H", 2, (1, -1)))
    k = spinrep.kelem("C", (1, 2))
    assert k == spinrep.kelem("C", (1, 2)) and hash(k) == hash(spinrep.kelem("C", (1, 2)))
    x = spinrep.Multivector.make(sig, {0: 1, 3: Fraction(1, 2)})
    assert x == spinrep.Multivector.make(sig, {0: 1, 3: Fraction(1, 2)})
    g = spinrep.SpinElement.from_multivector(x)
    assert g == spinrep.SpinElement.from_multivector(x) != -g
