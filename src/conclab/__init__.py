"""Exact-arithmetic toolkit for concentration functions of sums of
independent integer random variables: extremal measures, rearrangements,
domination orders, couplings, progression/lattice structure, the discretized
Gaussian bridge, and a brute-force verification lab.

The names below are the package's exports.  Each is imported from its
submodule on first access (PEP 562), so ``import conclab`` imports no
submodule and a command pays only for the layers it uses."""

import importlib

# export -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "IntDist",
            "convolve",
            "convolve_all",
            "convolve_power",
            "delta",
            "is_log_concave",
            "is_sharp_log_concave",
            "is_unimodal",
            "max_span",
            "mean",
            "modes",
            "negate",
            "q_interval",
            "q_k",
            "q_max",
            "shift",
            "squeeze",
            "uniform",
            "uniform_interval",
            "variance",
        ),
        "dist",
    ),
    **dict.fromkeys(("DominationReport", "cor3_check", "dominates", "hlp_check", "mww_check", "q_profile"), "domination"),
    **dict.fromkeys(
        (
            "AlphaSeq",
            "extremal_enumerate",
            "is_balanced",
            "is_extremal",
            "is_standard_extremal",
            "is_strongly_balanced",
            "nu",
            "t_oracle",
            "tse",
            "tsebal",
            "variance_nu",
        ),
        "extremal",
    ),
    **dict.fromkeys(
        (
            "BallFunction",
            "IntMeasure",
            "JointCoupling",
            "MedianChain",
            "ball_function",
            "dominating_coupling",
            "minus_rearrange",
            "nested_medians",
            "plus_rearrange",
            "sym_rearrange",
        ),
        "rearrange",
    ),
}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An export, imported from its submodule and bound here on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
