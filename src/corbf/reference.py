"""Published reference figures for the three benchmark tasks.

These constants reproduce the originating study's reported iris accuracy
table and quoted decibel figures so that ``compare_report`` can juxtapose
measured results against them. They are reporting targets, not oracles: the
report prints them next to measured values with their descriptive citation
strings and never uses them to alter a computation.

Conventions: accuracies are percentages; MSE figures are dB (10*log10 of
linear MSE).
"""

from __future__ import annotations

# (mean, std) percent, keyed by (architecture, phase).
REPORTED_IRIS_ACCURACY: dict[tuple[str, str], tuple[float, float]] = {
    ("manual", "training"): (97.71, 0.61),
    ("manual", "testing"): (97.00, 1.01),
    ("adaptive", "training"): (98.59, 1.12),
    ("adaptive", "testing"): (98.50, 4.68),
    ("co", "training"): (98.35, 0.12),
    ("co", "testing"): (99.13, 1.47),
}
REPORTED_IRIS_ACCURACY_CITATION = (
    "reported mean classification accuracy (percent, 100-run protocol), iris benchmark"
)

# Training-MSE narrative figures (dB), iris benchmark.
REPORTED_IRIS_MSE_DB = {
    "co_at_2000": -35.39,
    "baselines_at_2000": -33.33,
    "co_epochs_to_minus_30_17": 160,
    "baseline_epochs_to_minus_30_17": 240,
}
REPORTED_IRIS_MSE_CITATION = (
    "reported training-MSE milestones (dB), iris benchmark: -30.17 dB reached at "
    "epoch 160 by the co architecture vs epoch 240 by both baselines; final "
    "-35.39 dB vs -33.33 dB at epoch 2000"
)

# Final training MSE (dB) at epoch 2000, function approximation benchmark.
# Quoted for the source's stated target, which its own definition reduces to a
# constant; the shipped default target substitutes the evident intent, so these
# are context figures, not comparable quantities.
REPORTED_FUNAPPROX_MSE_DB = {
    "manual": -36.53,
    "adaptive": -20.5,
    "co": -39.83,
}
REPORTED_FUNAPPROX_BAND = {
    "manual": (-0.15, 0.15),
    "adaptive": (-3.0, 4.5),
    "co": (-0.1, 0.1),
}
REPORTED_FUNAPPROX_CITATION = (
    "reported final training MSE (dB) and test instantaneous-error bands at epoch "
    "2000, function-approximation benchmark (stated target reduces to a constant; "
    "not comparable to the shipped default target)"
)

# System identification: the magnitude is quoted twice with opposite signs
# (3.48 dB in the experiment text, -3.48 dB in the closing summary), so only
# orderings and deltas are meaningful.
REPORTED_SYSID_MSE_DB_MAGNITUDE = 3.48
REPORTED_SYSID_CITATION = (
    "reported minimum MSE magnitude (dB) on the system-identification benchmark; "
    "sign inconsistent between sections, all three architectures quoted identical"
)
