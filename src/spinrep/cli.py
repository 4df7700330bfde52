"""Command-line surface: generate gamma-matrix files, verify them, print the
classification table, and compute transport traces.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 I/O failure,
4 numerical integration failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import InputError, IntegrationError, SpinrepError

if TYPE_CHECKING:
    from .structure import Signature

# Each command imports the layers it uses (structure, recipe, modules, files,
# surfaces, expressions), so that a command loads only its own code and
# ``--help`` loads none of it.

EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

FAMILIES = ("recipe", "sqrt-space", "octonion")


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _write(out_path: str, text: str) -> None:
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {out_path}: {exc}")


def _parse_sig(text: str) -> Signature:
    from .structure import Signature

    try:
        r_str, s_str = text.split(",")
        return Signature(int(r_str), int(s_str))
    except (ValueError, InputError) as exc:
        raise InputError(f"bad signature {text!r}: expected R,S") from exc


def _build_module(sig: Signature, family: str, variant: str):
    if family == "recipe":
        from .recipe import assemble_signature

        return assemble_signature(sig.r, sig.s, variant)
    from .modules import octonion_module, sqrt_space_module

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


def generate(sig_text: str, family: str, variant: str, out_path: str) -> None:
    """Build a module, self-verify it, and write the gamma JSON file."""
    from .files import dump_gamma_json, module_to_payload
    from .recipe import verify_module

    try:
        sig = _parse_sig(sig_text)
        module = _build_module(sig, family, variant)
    except InputError as exc:
        _fail(EXIT_INPUT, str(exc))
    report = verify_module(module)
    bad = [(name, detail) for name, ok, detail in report.checks if not ok]
    if bad:
        for name, detail in bad:
            print(f"FAIL {name}: {detail}", file=sys.stderr)
        sys.exit(EXIT_VERIFY_FAILED)
    payload = module_to_payload(module, report.volume_sign)
    _write(out_path, dump_gamma_json(payload))
    print(
        f"wrote {out_path}: {module.signature} family={module.family} "
        f"variant={module.variant} K={module.field} real_dim={module.real_dim}"
    )


def verify(path: str) -> None:
    """Re-verify a gamma JSON file; exit 0 only when every check passes."""
    from .files import payload_to_gamma
    from .structure import audit

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        _fail(EXIT_INPUT, f"malformed file: {exc}")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc}")
    try:
        loaded = payload_to_gamma(json.loads(raw))
    except (ValueError, RecursionError, InputError) as exc:  # JSONDecodeError is a ValueError
        _fail(EXIT_INPUT, f"malformed file: {exc}")
    report = audit(**loaded)
    for name, ok, detail in report.checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status} {name}{suffix}")
    for name, reason in report.skipped:
        print(f"SKIP {name}: {reason}")
    sys.exit(0 if report.ok else EXIT_VERIFY_FAILED)


_K0_TAGS = ["M2(R)", "M2(C)", "H", "H", "H", "C", "R", "R"]
_K0_DIMS = [4, 8, 4, 4, 4, 2, 1, 1]


def classify(max_n: int) -> None:
    """Compute dims and intertwiner algebras for Cl(0,n) against the tables."""
    from .recipe import assemble_signature, intertwiners
    from .structure import FIELD_DIM, expected_field, expected_irreducible_dim

    if not 1 <= max_n <= 16:
        _fail(EXIT_INPUT, "--max-n must be between 1 and 16")
    header = f"{'n':>3} {'variant':>8} {'dim':>5} {'K':>6} {'K0':>6} {'expected':>16} match"
    print(header)
    all_match = True
    for n in range(1, max_n + 1):
        variants = ["plus", "minus"] if n % 4 == 3 else ["plus"]
        for variant in variants:
            module = assemble_signature(0, n, variant)
            full = intertwiners(module)
            even = intertwiners(module, even_only=True)
            idx = (n - 1) % 8
            exp_dim, exp_k = expected_irreducible_dim(0, n), expected_field(0, n)
            ok = (
                module.real_dim == exp_dim
                and full.real_dimension == FIELD_DIM[exp_k]
                and full.division_algebra == exp_k
                and even.real_dimension == _K0_DIMS[idx]
                and even.division_algebra == _K0_TAGS[idx]
            )
            all_match &= ok
            expected = f"{exp_dim},{exp_k},{_K0_TAGS[idx]}"
            print(
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
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad spinor {text!r}: expected w,x,y,z or one of 1,i,j,k") from exc


def transport(surface_spec, curve_spec, q0_text, steps, sign, t0, t1, out_path) -> None:
    """Spin-parallel-transport a spinor along a surface curve; write CSV."""
    from .expressions import compile_curve, compile_surface
    from .files import trace_to_csv
    from .surfaces import BUILTIN_CURVES, BUILTIN_SURFACES, spin_parallel_transport

    try:
        surface = compile_surface(BUILTIN_SURFACES.get(surface_spec, surface_spec))
        curve, velocity = compile_curve(BUILTIN_CURVES.get(curve_spec, curve_spec))
        trace = spin_parallel_transport(
            surface, curve, _parse_q0(q0_text), initial_sign=1 if sign == "+1" else -1,
            steps=steps, t0=t0, t1=t1, velocity=velocity,
        )
    except IntegrationError as exc:
        _fail(EXIT_NUMERIC, f"integration failed at t={exc.t}: {exc}")
    except InputError as exc:
        _fail(EXIT_INPUT, str(exc))
    except SpinrepError as exc:
        _fail(EXIT_NUMERIC, str(exc))
    _write(out_path, trace_to_csv(trace))
    breaches = sum(1 for flag in trace.ok if not flag)
    suffix = f" ({breaches} rows breach tolerance)" if breaches else ""
    print(f"wrote {out_path}: {len(trace)} samples{suffix}")


def _out_path(text: str) -> str:
    """``--out``: a file to write; an existing directory is a usage error."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"file {text!r} is a directory")
    return text


def _parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the options that take a value (all but ``--help``)."""
    parser = argparse.ArgumentParser(prog="spinrep", allow_abbrev=False, description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    takes_value = set()

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)

        def option(flag, **kwargs):
            if "default" in kwargs:
                kwargs["help"] = kwargs.get("help", "") + " (default: %(default)s)"
            sub.add_argument(flag, **kwargs)
            if flag.startswith("--"):
                takes_value.add(flag)
        return option

    option = command(generate)
    option("--sig", dest="sig_text", required=True, help="Signature as R,S (e.g. 0,8).")
    option("--family", choices=FAMILIES, default="recipe")
    option("--variant", choices=("plus", "minus"), default="plus")
    option("--out", dest="out_path", required=True, type=_out_path)
    command(verify)("path")
    command(classify)("--max-n", type=int, default=8, help="Largest Euclidean dimension (<= 16).")
    option = command(transport)
    option("--surface", dest="surface_spec", default="unit-sphere",
           help="Builtin (unit-sphere, plane) or 'x=..; y=..; z=..' in u,v.")
    option("--curve", dest="curve_spec", default="great-circle", help="Builtin great-circle or 'u=..; v=..' in t.")
    option("--q0", dest="q0_text", default="i", help="Initial spinor: w,x,y,z or one of 1,i,j,k.")
    option("--steps", type=int, default=10000)
    option("--sign", choices=("+1", "-1"), default="+1")
    option("--t0", type=float, default=0.0)
    option("--t1", type=float, default=1.0)
    option("--out", dest="out_path", required=True, type=_out_path)
    return parser, takes_value


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one ``spinrep`` command on ``argv`` (default ``sys.argv[1:]``);
    usage errors exit 2.  ``standalone_mode`` is accepted and ignored: the
    benchmark's in-process runner passes it (ROADMAP item 1)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, takes_value = _parser()
    # An option's value is the next token even when it starts with "-"
    # (``--q0 -1,0,0,0``), which argparse would read as an option: pass it as
    # ``--q0=-1,0,0,0``.
    i = 0
    while i < len(argv) - 1 and argv[i] != "--":
        if argv[i] in takes_value:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        i += 1
    args = vars(parser.parse_args(argv))
    del args["command"]
    args.pop("run")(**args)


if __name__ == "__main__":
    main()
