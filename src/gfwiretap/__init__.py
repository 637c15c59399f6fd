"""Wiretap coding over strictly nonlinear Gaussian random fields.

A numpy toolkit that (1) solves the decoupled-setting energy
minimization predicting the all-or-nothing collapse of exact Bayesian
decoding under random-field encoders, and (2) runs the full keyed coding
scheme at desk scale with an exact posterior-mean decoder, cross-validating
prediction against simulation.
"""

from ._version import __version__
from .channel import (
    LOG2,
    WiretapParams,
    awgn_capacity,
    bin_size,
    critical_rate_heuristic,
    key_length,
    secrecy_capacity,
)
from .codec import (
    BinningPlan,
    CodecConfig,
    EncodedFrame,
    bipolar_to_message,
    build_binning,
    decode,
    encode,
    message_to_bipolar,
    mmse_estimate,
    random_key,
)
from .errors import BracketError, BudgetError, ConfigurationError, NumericalError
from .field import (
    FieldSpec,
    GaussianField,
    covariance_probe,
    evaluate,
    sample_field,
)
from .replica import (
    ReplicaConfig,
    ReplicaSolution,
    energy,
    fixed_point_map,
    locate_critical_rate,
    make_config,
    scan_rates,
    solve_overlap,
)
from .simulate import (
    LeakageEstimate,
    SimReport,
    TrialRecord,
    estimate_leakage,
    run_experiment,
    run_trial,
    transmit,
)
