"""Mixed discriminants, positive-map scaling, and Chern/Schur form positivity.

Desk-scale numerical machinery for cross-validating the positivity of the
double mixed discriminant of positive linear maps and of the characteristic
forms of Griffiths positive curvature data.
"""

from .discriminants import (mixed_discriminant, mixed_discriminant_polarized,
                            moment_exact, moment_mc, trace_expansion_r2,
                            trace_expansion_r3)
from .forms import (CurvatureTensor, Form, c3_principal_minors, chern_forms,
                    random_griffiths_curvature, restrict_fiber, schur_form,
                    standard_omega, twist_chern, volume_coefficient,
                    weak_positivity_min, wedge)
from .hermitian import det, herm_eigvals, is_positive_definite
from .phi import (PhiReport, c_matrix, phi_direct, phi_dual, phi_integral_r2,
                  phi_integral_r3, phi_r4_decomposition, rank2_norm_identity,
                  schur_delta)
from .posmap import (BlockMap, NotStrictlyPositiveError, ScalingResult,
                     apply_map, choi_fixture, from_curvature, from_kraus,
                     positivity_certificate, random_kraus_map, scale,
                     sinkhorn_normalize, trace_map)

__version__ = "0.1.0"

__all__ = [
    "BlockMap", "CurvatureTensor", "Form", "NotStrictlyPositiveError",
    "PhiReport", "ScalingResult", "apply_map", "c3_principal_minors",
    "c_matrix", "chern_forms", "choi_fixture", "det", "from_curvature",
    "from_kraus", "herm_eigvals", "is_positive_definite",
    "mixed_discriminant", "mixed_discriminant_polarized", "moment_exact",
    "moment_mc", "phi_direct", "phi_dual", "phi_integral_r2",
    "phi_integral_r3", "phi_r4_decomposition", "positivity_certificate",
    "random_griffiths_curvature", "random_kraus_map", "rank2_norm_identity",
    "restrict_fiber", "scale", "schur_delta", "schur_form",
    "sinkhorn_normalize", "standard_omega", "trace_expansion_r2",
    "trace_expansion_r3", "trace_map", "twist_chern", "volume_coefficient",
    "weak_positivity_min", "wedge",
]
