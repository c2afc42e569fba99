"""Differential geometry of horizontally regular curves in the first
Heisenberg group: invariants, reconstruction, Cesàro immobility, surfaces
of revolution, Bertrand mates, and position-vector classification."""

from .heisenberg import H1Point, PshTransform, left_translate
from .expressions import EvalDomainError, ExpressionError, ScalarFn
from .curves import (
    HorizontalCurve,
    InvariantPair,
    ParamCurve,
    RegularityError,
    kappa_tau_arbitrary,
    psh_transform_curve,
    reparam_horizontal,
    verify_cesaro,
)
from .frenet import AlignmentError, InitialPose, find_psh_alignment, reconstruct, reconstruct_curve

__all__ = [
    "H1Point",
    "PshTransform",
    "left_translate",
    "EvalDomainError",
    "ExpressionError",
    "ScalarFn",
    "HorizontalCurve",
    "InvariantPair",
    "ParamCurve",
    "RegularityError",
    "kappa_tau_arbitrary",
    "psh_transform_curve",
    "reparam_horizontal",
    "verify_cesaro",
    "AlignmentError",
    "InitialPose",
    "find_psh_alignment",
    "reconstruct",
    "reconstruct_curve",
]
