"""Exact-arithmetic toolkit for concentration functions of sums of
independent integer random variables: extremal measures, rearrangements,
domination orders, couplings, progression/lattice structure, the discretized
Gaussian bridge, and a brute-force verification lab."""

from .dist import (
    IntDist,
    convolve,
    convolve_all,
    convolve_power,
    delta,
    is_log_concave,
    is_sharp_log_concave,
    is_unimodal,
    max_span,
    mean,
    modes,
    negate,
    q_interval,
    q_k,
    q_max,
    shift,
    squeeze,
    uniform,
    uniform_interval,
    variance,
)
from .domination import DominationReport, cor3_check, dominates, hlp_check, mww_check, q_profile
from .extremal import (
    AlphaSeq,
    extremal_enumerate,
    is_balanced,
    is_extremal,
    is_standard_extremal,
    is_strongly_balanced,
    nu,
    t_oracle,
    tse,
    tsebal,
    variance_nu,
)
from .rearrange import (
    BallFunction,
    IntMeasure,
    JointCoupling,
    MedianChain,
    ball_function,
    dominating_coupling,
    minus_rearrange,
    nested_medians,
    plus_rearrange,
    sym_rearrange,
)

__version__ = "0.1.0"
