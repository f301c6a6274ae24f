"""Shared numeric, random-stream, and formatting utilities.

These helpers are deliberately dependency-free (standard library only) so the
core inference code stays portable; the heavier scientific stack is only used
by tests and benchmarks. The names are re-exported lazily
(:mod:`repro._lazy`): the serving process imports :mod:`repro.util.heap`,
and must not load :mod:`repro.util.rng`'s ``hashlib`` with it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "clamp": "repro.util.logmath",
    "clamp_probability": "repro.util.logmath",
    "derive_rng": "repro.util.rng",
    "format_histogram": "repro.util.tables",
    "format_table": "repro.util.tables",
    "log_odds": "repro.util.logmath",
    "pareto_int": "repro.util.rng",
    "safe_log": "repro.util.logmath",
    "sigmoid": "repro.util.logmath",
    "softmax_with_floor_mass": "repro.util.logmath",
    "weighted_choice": "repro.util.rng",
    "zipf_sizes": "repro.util.rng",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
