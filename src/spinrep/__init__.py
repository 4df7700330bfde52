"""spinrep: exact real spinor representations of Clifford algebras Cl(r,s),
Spin lifts of rotations, and spin parallel transport on surfaces.

The algebraic layer (division algebras, blade arithmetic, module assembly,
commutants, Spin lifts) is exact over the rationals; the geometric layer
(spin parallel transport of unit quaternion frames) is floating point.  See the CLI
entry point ``spinrep`` for the file-producing commands.
"""

from .algebras import KElement, conj, kelem, mul, norm_sq
from .clifford import (
    CONVENTION,
    Multivector,
    Signature,
    blade_product,
    euclidean,
    hodge_star,
    psi_embed,
    volume_element,
)
from .errors import InputError, IntegrationError, SpinrepError, StructureError
from .kmatrix import (
    Commutant,
    GradedSpace,
    KMatrix,
    commutant,
    graded_tensor_operator,
    tensor_module,
    verify_clifford_condition,
)
from .linalg import QMat
from .modules import (
    SpinorModule,
    assemble_euclidean,
    assemble_positive,
    assemble_signature,
    c4_action,
    expected_irreducible_dim,
    grading_from_volume,
    intertwiners,
    octonion_module,
    spin_metric_verify,
    spinor_square,
    split_clifford_action,
    split_signature_module,
    sqrt_space_module,
    verify_module,
)
from .spin import (
    SpinCoordinateSystem,
    SpinElement,
    double_cover_check,
    reflection,
    spin_action,
    spin_coordinate_system,
    spin_lift,
    twisted_adjoint,
    twisted_adjoint_matrix,
)
from .surfaces import (
    ParametricSurface,
    TransportTrace,
    hypersurface4_action,
    spin_parallel_transport,
    surface_frame,
    unit_sphere,
)

__version__ = "0.1.0"

__all__ = [
    "CONVENTION",
    "Commutant",
    "GradedSpace",
    "InputError",
    "IntegrationError",
    "KElement",
    "KMatrix",
    "Multivector",
    "ParametricSurface",
    "QMat",
    "Signature",
    "SpinCoordinateSystem",
    "SpinElement",
    "SpinorModule",
    "SpinrepError",
    "StructureError",
    "TransportTrace",
    "assemble_euclidean",
    "assemble_positive",
    "assemble_signature",
    "blade_product",
    "c4_action",
    "commutant",
    "conj",
    "double_cover_check",
    "euclidean",
    "expected_irreducible_dim",
    "graded_tensor_operator",
    "grading_from_volume",
    "hodge_star",
    "hypersurface4_action",
    "intertwiners",
    "kelem",
    "mul",
    "norm_sq",
    "octonion_module",
    "psi_embed",
    "reflection",
    "spin_action",
    "spin_coordinate_system",
    "spin_lift",
    "spin_metric_verify",
    "spin_parallel_transport",
    "spinor_square",
    "split_clifford_action",
    "split_signature_module",
    "sqrt_space_module",
    "surface_frame",
    "tensor_module",
    "twisted_adjoint",
    "twisted_adjoint_matrix",
    "unit_sphere",
    "verify_clifford_condition",
    "verify_module",
    "volume_element",
]
