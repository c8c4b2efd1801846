"""Error exponents of typical random trellis codes over discrete channels."""

from .channels import (
    Dmc,
    InputDist,
    NonStochasticRow,
    DimensionMismatch,
    NegativeEntry,
    validate_channel,
)
from .exponents import (
    ExponentCurve,
    NotBinaryInput,
    NotUniformQ,
    RateOutOfRange,
    RhoValue,
    costello_form_cex,
    critical_rate,
    cutoff_rate,
    exponent_curve,
    expurgated_ex,
    gallager_e0,
    solve_rho,
)
from .types_opt import (
    DominantEvent,
    JointType,
    csiszar_exponent,
    delta_s,
    divergence_qq,
    dominant_joint_type,
    z_of_rhat_direct,
    z_of_rhat_legendre,
)
from .memory import (
    MarkovChannel,
    build_tilted,
    extended_cutoff,
    extended_exponent,
    g_s,
    lift_memory,
    memoryless_lift,
    perron_frobenius,
)
from .sim import (
    EnsembleConfig,
    TrellisCode,
    encode,
    enumerate_pair_types,
    estimate_error_exponent,
    sample_code,
    transmit,
    typicality_audit,
    viterbi_decode,
)

__version__ = "0.1.0"
