"""spinrep: exact real spinor representations of Clifford algebras Cl(r,s),
Spin lifts of rotations, and spin parallel transport on surfaces.

The algebraic layer (division algebras, blade arithmetic, module assembly,
commutants, Spin lifts) is exact over the rationals; the geometric layer
(spin parallel transport of unit quaternion frames) is floating point.  See the CLI
entry point ``spinrep`` for the file-producing commands.

The names below are imported from their submodules on first access, so that
``import spinrep`` (and every ``spinrep`` command) loads only what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "algebras": ("KElement", "conj", "kelem", "mul", "norm_sq"),
    "clifford": ("Multivector", "blade_product", "euclidean", "hodge_star", "psi_embed", "volume_element"),
    "errors": ("InputError", "IntegrationError", "SpinrepError", "StructureError"),
    "expressions": ("ParametricSurface",),
    "kmatrix": ("Commutant", "commutant"),
    "linalg": ("QMat",),
    "modules": ("c4_action", "grading_from_volume", "hypersurface4_action", "octonion_module", "spinor_square",
                "split_clifford_action", "sqrt_space_module"),
    "recipe": ("GradedSpace", "SpinorModule", "assemble_euclidean", "assemble_positive", "assemble_signature",
               "intertwiners", "split_signature_module", "verify_module"),
    "spin": ("SpinCoordinateSystem", "SpinElement", "double_cover_check", "reflection", "spin_action",
             "spin_coordinate_system", "spin_lift", "twisted_adjoint_matrix"),
    "structure": ("CONVENTION", "Signature", "expected_irreducible_dim", "verify_clifford_condition"),
    "surfaces": ("TransportTrace", "spin_parallel_transport", "surface_frame", "unit_sphere"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Looked up on every access, not cached here, so the package attribute
    # always agrees with the submodule's (which may be rebound, e.g. wrapped).
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
