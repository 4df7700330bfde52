"""Command-line surface: generate gamma-matrix files, verify them, print the
classification table, and compute transport traces.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 I/O failure,
4 numerical integration failure.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING

import click

from .errors import InputError, IntegrationError, SpinrepError

if TYPE_CHECKING:
    from .clifford import Signature

# Each command imports the layers it uses (clifford, modules, files,
# surfaces, expressions), so that a command loads only its own code and
# ``--help`` loads none of it.

EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

FAMILIES = ("recipe", "sqrt-space", "octonion")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_sig(text: str) -> Signature:
    from .clifford import Signature

    try:
        r_str, s_str = text.split(",")
        return Signature(int(r_str), int(s_str))
    except (ValueError, InputError) as exc:
        raise InputError(f"bad signature {text!r}: expected R,S") from exc


def _build_module(sig: Signature, family: str, variant: str):
    from .modules import assemble_signature, octonion_module, sqrt_space_module

    if family == "recipe":
        return assemble_signature(sig.r, sig.s, variant)
    if family == "sqrt-space":
        if sig.r != 0 or not 1 <= sig.s <= 4:
            raise InputError("sqrt-space family exists for signatures 0,n with n <= 4")
        if variant != "plus":
            raise InputError("sqrt-space family has no variant flag")
        return sqrt_space_module(sig.s)
    if family == "octonion":
        if sig.r != 0 or not 4 <= sig.s <= 8:
            raise InputError("octonion family exists for signatures 0,k with 4 <= k <= 8")
        if variant != "plus":
            raise InputError("octonion family has no variant flag")
        return octonion_module(sig.s)
    raise InputError(f"unknown family {family!r}")


@click.group()
def main() -> None:
    """Exact spinor representations of Clifford algebras and spin transport."""


@main.command()
@click.option("--sig", "sig_text", required=True, help="Signature as R,S (e.g. 0,8).")
@click.option("--family", type=click.Choice(FAMILIES), default="recipe", show_default=True)
@click.option("--variant", type=click.Choice(["plus", "minus"]), default="plus", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def generate(sig_text: str, family: str, variant: str, out_path: str) -> None:
    """Build a module, self-verify it, and write the gamma JSON file."""
    from .files import dump_gamma_json, module_to_payload
    from .modules import verify_module

    try:
        sig = _parse_sig(sig_text)
        module = _build_module(sig, family, variant)
    except InputError as exc:
        _fail(EXIT_INPUT, str(exc))
    report = verify_module(module)
    bad = [(name, detail) for name, ok, detail in report.checks if not ok]
    if bad:
        for name, detail in bad:
            click.echo(f"FAIL {name}: {detail}", err=True)
        sys.exit(EXIT_VERIFY_FAILED)
    payload = module_to_payload(module, report.volume_sign)
    text = dump_gamma_json(payload)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {out_path}: {exc}")
    click.echo(
        f"wrote {out_path}: {module.signature} family={module.family} "
        f"variant={module.variant} K={module.field} real_dim={module.real_dim}"
    )


@main.command()
@click.argument("path", type=click.Path(exists=False))
def verify(path: str) -> None:
    """Re-verify a gamma JSON file; exit 0 only when every check passes."""
    from .files import payload_to_gamma
    from .modules import audit

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc}")
    try:
        payload = json.loads(raw)
        loaded = payload_to_gamma(payload)
    except (json.JSONDecodeError, InputError) as exc:
        _fail(EXIT_INPUT, f"malformed file: {exc}")
    report = audit(
        loaded.signature, loaded.generators, loaded.spin_metric, loaded.commutant_basis,
        loaded.grading, loaded.variant, loaded.volume_sign,
    )
    for name, ok, detail in report.checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        click.echo(f"{status} {name}{suffix}")
    sys.exit(0 if report.ok else EXIT_VERIFY_FAILED)


_K_TAGS = ["C", "H", "H", "H", "C", "R", "R", "R"]
_K_DIMS = [2, 4, 4, 4, 2, 1, 1, 1]
_K0_TAGS = ["M2(R)", "M2(C)", "H", "H", "H", "C", "R", "R"]
_K0_DIMS = [4, 8, 4, 4, 4, 2, 1, 1]


@main.command()
@click.option("--max-n", default=8, show_default=True, help="Largest Euclidean dimension (<= 16).")
def classify(max_n: int) -> None:
    """Compute dims and intertwiner algebras for Cl(0,n) against the tables."""
    from .modules import assemble_signature, expected_irreducible_dim, intertwiners

    if not 1 <= max_n <= 16:
        _fail(EXIT_INPUT, "--max-n must be between 1 and 16")
    header = f"{'n':>3} {'variant':>8} {'dim':>5} {'K':>6} {'K0':>6} {'expected':>16} match"
    click.echo(header)
    all_match = True
    for n in range(1, max_n + 1):
        variants = ["plus", "minus"] if n % 4 == 3 else ["plus"]
        for variant in variants:
            module = assemble_signature(0, n, variant)
            full = intertwiners(module)
            even = intertwiners(module, even_only=True)
            idx = (n - 1) % 8
            exp_dim = expected_irreducible_dim(0, n)
            ok = (
                module.real_dim == exp_dim
                and full.real_dimension == _K_DIMS[idx]
                and full.division_algebra == _K_TAGS[idx]
                and even.real_dimension == _K0_DIMS[idx]
                and even.division_algebra == _K0_TAGS[idx]
            )
            all_match &= ok
            expected = f"{exp_dim},{_K_TAGS[idx]},{_K0_TAGS[idx]}"
            click.echo(
                f"{n:>3} {variant:>8} {module.real_dim:>5} "
                f"{full.division_algebra:>6} {even.division_algebra:>6} "
                f"{expected:>16} {'MATCH' if ok else 'MISMATCH'}"
            )
    sys.exit(0 if all_match else EXIT_VERIFY_FAILED)


_Q0_SHORTHAND = {
    "1": (1.0, 0.0, 0.0, 0.0),
    "i": (0.0, 1.0, 0.0, 0.0),
    "j": (0.0, 0.0, 1.0, 0.0),
    "k": (0.0, 0.0, 0.0, 1.0),
}


def _parse_q0(text: str):
    if text in _Q0_SHORTHAND:
        return _Q0_SHORTHAND[text]
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad spinor {text!r}") from exc
    if len(parts) != 4:
        raise InputError("spinor must be w,x,y,z or one of 1,i,j,k")
    if not all(map(math.isfinite, parts)) or not any(parts):
        raise InputError(f"spinor {text!r} must be finite and nonzero")
    return tuple(parts)


@main.command()
@click.option("--surface", "surface_spec", default="unit-sphere", show_default=True,
              help="Builtin (unit-sphere, plane) or 'x=..; y=..; z=..' in u,v.")
@click.option("--curve", "curve_spec", default="great-circle", show_default=True,
              help="Builtin great-circle or 'u=..; v=..' in t.")
@click.option("--q0", "q0_text", default="i", show_default=True,
              help="Initial spinor: w,x,y,z or one of 1,i,j,k.")
@click.option("--steps", default=10000, show_default=True)
@click.option("--sign", type=click.Choice(["+1", "-1"]), default="+1", show_default=True)
@click.option("--t0", default=0.0, show_default=True)
@click.option("--t1", default=1.0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def transport(surface_spec, curve_spec, q0_text, steps, sign, t0, t1, out_path) -> None:
    """Spin-parallel-transport a spinor along a surface curve; write CSV."""
    from .expressions import compile_curve, compile_surface
    from .files import trace_to_csv
    from .surfaces import BUILTIN_CURVES, BUILTIN_SURFACES, spin_parallel_transport

    try:
        surface = compile_surface(BUILTIN_SURFACES.get(surface_spec, surface_spec))
        curve, velocity = compile_curve(BUILTIN_CURVES.get(curve_spec, curve_spec))
        q0 = _parse_q0(q0_text)
        if steps < 2:
            raise InputError("steps must be at least 2")
        if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
            raise InputError("--t0 and --t1 must be finite and different")
        initial_sign = 1 if sign == "+1" else -1
    except InputError as exc:
        _fail(EXIT_INPUT, str(exc))
    try:
        trace = spin_parallel_transport(
            surface, curve, q0, initial_sign=initial_sign, steps=steps,
            t0=t0, t1=t1, velocity=velocity,
        )
    except IntegrationError as exc:
        _fail(EXIT_NUMERIC, f"integration failed at t={exc.t}: {exc}")
    except InputError as exc:
        _fail(EXIT_INPUT, str(exc))
    except SpinrepError as exc:
        _fail(EXIT_NUMERIC, str(exc))
    text = trace_to_csv(trace)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {out_path}: {exc}")
    breaches = sum(1 for flag in trace.ok if not flag)
    suffix = f" ({breaches} rows breach tolerance)" if breaches else ""
    click.echo(f"wrote {out_path}: {len(trace)} samples{suffix}")


if __name__ == "__main__":
    main()
