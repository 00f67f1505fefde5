"""Key rates and secure-distance limits for four-state QKD with realistic
heralded single-photon sources or weak coherent pulses."""

from .analysis import (
    OptimizationResult,
    ScanSeries,
    fit_power_law,
    lambda_opt_heralded,
    optimal_stage_count,
    optimize_lambda,
    scan_key_rate,
    short_distance_approx_rate,
    short_distance_key_rate,
    short_distance_lambda,
    tmin_bound_heralded,
    tmin_heralded,
    tmin_numerical,
    tmin_single_photon,
    tmin_wcp,
)
from .keyrate import (
    ChannelParams,
    KeyRateReport,
    key_rate,
    renormalized_key_rate,
)
from .protocol import (
    BB84,
    SARG04,
    ProtocolSpec,
    binary_entropy,
    eve_info_single,
    get_protocol,
    mutual_info_ab,
    pns_applicable,
    positivity_margin,
    solve_qber_threshold,
)
from .source_detector import (
    HeraldResponse,
    MultiplexedDetectorParams,
    PhotonStatistics,
    advantage_threshold,
    approx_distance_factor,
    brute_force_response,
    distance_factor,
    multiplexed_response,
    poisson_pair_stats,
    short_distance_factor,
    wcp_response,
)

__version__ = "0.1.0"
