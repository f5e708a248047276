"""Double-Hopf bifurcation toolkit for the van der Pol oscillator with
extended delay feedback: critical-point detection, cubic normal form and
unfolding, amplitude-system predictions, and neutral-delay simulation."""

from .chareq import (
    HopfFrequencies,
    HopfLadders,
    StabilityWindows,
    SystemParams,
    WPoly,
    eval_char,
    hopf_frequencies,
    hopf_ladders,
    rightmost_roots,
    stability_windows,
    tau_branch,
    transversality_sign,
    w_poly,
)
from .hopf_hopf import (
    HopfHopfPoint,
    find_hopf_hopf,
    resonance_check,
    scan_hopf_curves,
)
from .normalform import (
    EigenBasis,
    NormalFormCoeffs,
    UnfoldingParams,
    ViaLines,
    bilinear_form,
    classify_unfolding,
    duality_residual,
    eigenbasis,
    nf_coefficients,
    region_of,
    unfolding_params,
    via_lines,
)
from .amplitude import (
    AmplitudeEquilibrium,
    AmplitudeState,
    AttractorPrediction,
    amplitude_rhs,
    equilibria,
    predict_attractor,
    simulate_amplitude,
)
from .nfde_sim import (
    PoincareSection,
    SimConfig,
    Trajectory,
    classify_section,
    divergence_exponent,
    line_T_scan,
    poincare,
    simulate_neutral,
    simulate_theta,
)

__version__ = "0.1.0"
