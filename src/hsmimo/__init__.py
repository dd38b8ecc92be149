"""Hubbard-Stratonovich MIMO signal detection with deep-unfolding training.

Library layout:

* ``system_model`` -- Rayleigh channels, real-valued equivalent model,
  QPSK signals, SNR/noise mapping, reproducible RNG streams.
* ``detectors`` -- HS / trainable-HS / TPG-family / MMSE detectors and an
  exhaustive ML oracle.
* ``unfolding`` -- hand-differentiated deep-unfolding training (Adam,
  incremental deepening).
* ``evaluation`` -- Monte Carlo BER, convergence diagnostics, numerical
  validators, report persistence.
* ``cli`` -- ``hsmimo train|eval|diagnose|validate``.
"""

from .detectors import (
    DetectionResult,
    DetectorDivergenceError,
    DetectorTrace,
    HsParams,
    InstanceTooLargeError,
    LinearSolveError,
    ThsParams,
    TpgParams,
    brute_force_ml_detect,
    hard_decision,
    hs_detect,
    lmmse_like_matrix,
    ml_objective,
    mmse_detect,
    scalable_tpg_detect,
    ths_detect,
    ths_step,
    tpg_detect,
)
from .evaluation import (
    BerCurve,
    BerPoint,
    Detector,
    DiagnosticsRecord,
    QuadratureConfig,
    ValidationError,
    bit_flip_ratio,
    brute_force_expectation,
    estimate_ber,
    estimate_ber_paired,
    gradient_amplitude,
    make_hs_detector,
    make_ml_detector,
    make_mmse_detector,
    make_scalable_tpg_detector,
    make_ths_detector,
    make_tpg_detector,
    read_report,
    run_diagnostics,
    sweep_ber,
    sweep_ber_paired,
    verify_hs_identity,
    write_diagnostics,
    write_report,
)
from .system_model import (
    QPSK_SYMBOLS,
    NoiseModel,
    RngStream,
    SystemDims,
    TransmissionSample,
    derealify_vector,
    realify_channel,
    realify_vector,
    sample_channel,
    sample_signal,
    snr_to_sigma2,
    transmit,
)
from .unfolding import (
    AdamState,
    ThsGradient,
    TpgGradient,
    TrainingConfig,
    TrainingDivergedError,
    TrainingResult,
    TrainingWorkspace,
    adam_step,
    backward_gradients,
    config_fingerprint,
    finite_difference_gradient,
    forward_unrolled,
    incremental_train,
    load_params,
    save_params,
)

__version__ = "0.1.0"
