"""Music feature extraction and perception-study statistics.

The package covers one study pipeline end to end: parse MIDI corpora into
seconds-domain notes, compute symbolic features per instrumental role,
compute closed-form spectral features from WAV clips, summarize listener
panels (agreement, deviant raters, item means), and relate features to
ratings with ordinary least squares, latent-factor regression and repeated
cross-validation.  Everything is deterministic given its inputs and seed.
"""

from .audio_features import (
    AudioClip,
    extract_audio_features,
    read_wav,
    stft_magnitudes,
)
from .midi_features import (
    TableCalibration,
    default_calibration,
    extract_midi_features,
    filter_soft_notes,
)
from .regress import (
    CvReport,
    Design,
    OlsFit,
    PlsModel,
    adjusted_r2,
    ols_fit,
    pls_fit,
    repeated_kfold_cv,
)
from .smf import (
    NOTE_DTYPE,
    Song,
    TrackCategory,
    annotate_tracks,
    parse_smf,
)
from .stats import (
    AgreementReport,
    RatingMatrix,
    cronbach_alpha,
    cross_correlation_matrix,
    flag_outlier_raters,
    inter_rater_agreement,
    item_mean_ratings,
    pearson,
)
from .tdist import regularized_incomplete_beta, student_t_two_tailed

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "AudioClip",
    "CvReport",
    "Design",
    "NOTE_DTYPE",
    "OlsFit",
    "PlsModel",
    "RatingMatrix",
    "Song",
    "TableCalibration",
    "TrackCategory",
    "adjusted_r2",
    "annotate_tracks",
    "cronbach_alpha",
    "cross_correlation_matrix",
    "default_calibration",
    "extract_audio_features",
    "extract_midi_features",
    "filter_soft_notes",
    "flag_outlier_raters",
    "inter_rater_agreement",
    "item_mean_ratings",
    "ols_fit",
    "parse_smf",
    "pearson",
    "pls_fit",
    "read_wav",
    "regularized_incomplete_beta",
    "repeated_kfold_cv",
    "stft_magnitudes",
    "student_t_two_tailed",
]
