"""Magnetic fractional Gagliardo seminorms, the fractional magnetic
operator, and numerical verification of their nonlocal-to-local limits."""

__version__ = "0.1.0"

from .constants import (
    bbm_constant,
    fractional_constant,
    fractional_constant_limit,
)
from .corpus import resolve_field, resolve_potential
from .errors import ConditionViolation, ConfigurationError, IntegrationError
from .fields import (
    GaugeFunction,
    ScalarField,
    VectorPotential,
    gauge_transform,
    midpoint_phase,
    modulus_field,
    scaled_field,
)
from .functionals import (
    MollifierFamily,
    RadialMollifier,
    bbm_family,
    check_mollifier,
    fullspace_seminorm_sq,
    fullspace_seminorms_sq,
    gaussian_family,
    l2_norm_sq,
    local_magnetic_energy,
    magnetic_seminorm_sq,
    magnetic_seminorms_sq,
    mollified_functional,
    mollified_functionals,
    translation_difference_sq,
)
from .geometry import (
    Domain,
    TensorGrid,
    ball,
    box,
    direction,
    interval,
    tensor_grid,
)
from .harness import (
    SweepConfig,
    SweepReport,
    config_from_dict,
    default_spec,
    emit_report,
    extrapolate_limit,
    load_config,
    run_sweep,
)
from .operator import (
    OperatorSample,
    fractional_magnetic_apply,
    local_magnetic_apply,
    operator_limit_scan,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    double_integral_singular,
    pairwise_sum,
    tail_integral,
)
