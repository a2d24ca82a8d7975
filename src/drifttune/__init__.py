"""Streaming drift detection with self-tuning alarm thresholds.

The package runs a chunk-based prequential loop: a Gaussian naive Bayes
classifier predicts each chunk, a drift monitor watches the error rate,
and on alarm either the baseline policy retrains in place or a short race
between candidate models picks the new model and alarm threshold.
"""

from .classifier import GaussianNB, adapt, evaluate, op_counts
from .detectors import DETECTOR_KINDS, DriftMonitor, ks_distance, make_monitor, params_from_dict
from .dtd import (Candidate, CandidateKind, DtdState, StepOutcome, TRAINING_MODES,
                  baseline_step, create_candidates, dtd_step, eval_candidates,
                  finalize_comparison)
from .errors import (ConfigError, DetectorError, DriftTuneError, IngestError,
                     ModelError, PhaseError, ReportError)
from .harness import (METHODS, ExperimentConfig, ExperimentResult, RunTrace,
                      baseline_trace, dtd_trace, load_config, load_config_dir,
                      render_table, run_experiment, run_policies, run_single, run_suite,
                      summarize, summarize_stored, write_result)
from .stream import (SEA_THRESHOLDS, STREAM_KINDS, Chunk, Stream,
                     StreamConfig, make_stream, sea_concept)
from .theory import (RecurrentDriftParams, SuddenDriftParams, ThresholdStrategy,
                     analytic_recurrent, analytic_sudden, check_sudden_identity,
                     simulate_recurrent_drift, validate_theorem3,
                     validate_theorem3_analytic, validate_theory)

__version__ = "0.1.0"

__all__ = [
    "Candidate", "CandidateKind", "Chunk", "ConfigError", "DETECTOR_KINDS",
    "DetectorError", "DriftMonitor", "DriftTuneError", "DtdState",
    "ExperimentConfig", "ExperimentResult", "GaussianNB", "IngestError",
    "METHODS", "ModelError", "PhaseError", "RecurrentDriftParams", "ReportError",
    "RunTrace", "SEA_THRESHOLDS", "STREAM_KINDS", "StepOutcome", "Stream",
    "StreamConfig", "SuddenDriftParams", "TRAINING_MODES", "ThresholdStrategy",
    "adapt", "analytic_recurrent", "analytic_sudden", "baseline_step", "baseline_trace",
    "check_sudden_identity", "create_candidates", "dtd_step", "dtd_trace",
    "eval_candidates", "evaluate", "finalize_comparison", "ks_distance",
    "load_config", "load_config_dir", "make_monitor",
    "make_stream", "op_counts", "params_from_dict",
    "render_table", "run_experiment", "run_policies", "run_single", "run_suite", "sea_concept",
    "simulate_recurrent_drift", "summarize", "summarize_stored",
    "validate_theorem3", "validate_theorem3_analytic", "validate_theory",
    "write_result",
]
