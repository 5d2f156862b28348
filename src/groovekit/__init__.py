"""groovekit: quantify drum groove timing and dynamics.

Pipeline: load and high-pass a drum track, extract the amplitude envelope,
pick onsets, classify inter-onset intervals against a shuffle metric grid,
then measure swing ratio, tempo drift, two-bar phrase profiles, and
long-range correlations via detrended fluctuation analysis. A synthetic
groove generator supplies ground truth for every metric.
"""

import importlib

from ._version import __version__
from .analysis import AnalysisParams, AnalysisResult, run_analysis, write_analysis_outputs
from .dfa import (
    FluctuationResult,
    default_scales,
    dfa_analyze,
    dfa_fluctuation,
    fit_alpha,
    fit_loglog,
    local_alpha,
)
from .errors import (
    EditError,
    EstimationError,
    FitError,
    FormatError,
    GrooveKitError,
    ParameterError,
)
from .groove import (
    PhraseProfile,
    PhraseTemplate,
    SwingReport,
    compute_drift,
    phrase_amplitude_profile,
    phrase_interval_profile,
    swing_ratio,
)
from .intervals import (
    BeatClass,
    IntervalSeries,
    Section,
    SectionMap,
    classify_intervals,
    estimate_base_unit,
    interval_stats,
    intervals,
)
from .onsets import (
    AnnotationEdit,
    Onset,
    OnsetSeries,
    apply_edits,
    detect_onsets,
    merge_close_onsets,
    read_edits_csv,
    read_onsets_csv,
    write_edits_csv,
    write_onsets_csv,
)

# The audio stack loads on first use (PEP 562): `import groovekit` and an
# annotation CSV analysis never import these three modules. This is the one
# list of their public names; `__all__` and `groovekit.cli` read it.
_LAZY = {
    "audio": ("AudioClip", "EnvelopeSignal", "envelope", "highpass", "load_audio", "save_audio"),
    "synth": ("GrooveSpec", "ShuffleGroundTruth", "bar_time_s", "gen_crossover_series",
              "gen_powerlaw_noise", "gen_shuffle_onsets", "render_clicks", "unit_duration_s"),
    "tempogram": ("NoveltyCurve", "Tempogram", "TempogramParams", "argmax_track",
                  "fourier_tempogram", "novelty_curve", "tempogram_summary", "write_tempogram_csv"),
}

__all__ = [
    "__version__",
    "AnalysisParams",
    "AnalysisResult",
    "AnnotationEdit",
    "BeatClass",
    "EditError",
    "EstimationError",
    "FitError",
    "FluctuationResult",
    "FormatError",
    "GrooveKitError",
    "IntervalSeries",
    "Onset",
    "OnsetSeries",
    "ParameterError",
    "PhraseProfile",
    "PhraseTemplate",
    "Section",
    "SectionMap",
    "SwingReport",
    "apply_edits",
    "classify_intervals",
    "compute_drift",
    "default_scales",
    "detect_onsets",
    "dfa_analyze",
    "dfa_fluctuation",
    "estimate_base_unit",
    "fit_alpha",
    "fit_loglog",
    "interval_stats",
    "intervals",
    "local_alpha",
    "merge_close_onsets",
    "phrase_amplitude_profile",
    "phrase_interval_profile",
    "read_edits_csv",
    "read_onsets_csv",
    "run_analysis",
    "swing_ratio",
    "write_analysis_outputs",
    "write_edits_csv",
    "write_onsets_csv",
    *(name for names in _LAZY.values() for name in names),
]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__all__})
