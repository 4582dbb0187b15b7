"""Published reference figures for the three benchmark tasks.

These constants reproduce the originating study's reported tables and quoted
decibel figures so that ``compare_report`` can juxtapose measured results
against them. They are reporting targets, not oracles: the report prints them
next to measured values with their descriptive citation strings and never uses
them to alter a computation.

Conventions: accuracies, sensitivities and specificities are percentages;
Youden indices are fractions; MSE figures are dB (10*log10 of linear MSE).
Class columns follow the reported order (virginica, versicolor, setosa).
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

# (mean, std) percent, keyed by (architecture, phase, class).
REPORTED_IRIS_SENSITIVITY: dict[tuple[str, str, str], tuple[float, float]] = {
    ("manual", "training", "virginica"): (97.10, 1.58),
    ("manual", "training", "versicolor"): (96.03, 1.24),
    ("manual", "training", "setosa"): (100.0, 0.00),
    ("manual", "testing", "virginica"): (100.0, 0.00),
    ("manual", "testing", "versicolor"): (100.0, 0.00),
    ("manual", "testing", "setosa"): (91.00, 3.02),
    ("adaptive", "training", "virginica"): (98.65, 1.644),
    ("adaptive", "training", "versicolor"): (97.13, 2.11),
    ("adaptive", "training", "setosa"): (100.0, 0.00),
    ("adaptive", "testing", "virginica"): (100.0, 0.00),
    ("adaptive", "testing", "versicolor"): (97.40, 13.83),
    ("adaptive", "testing", "setosa"): (98.10, 3.94),
    ("co", "training", "virginica"): (97.55, 0.35),
    ("co", "training", "versicolor"): (97.50, 0.00),
    ("co", "training", "setosa"): (100.0, 0.00),
    ("co", "testing", "virginica"): (100.0, 0.00),
    ("co", "testing", "versicolor"): (100.0, 0.00),
    ("co", "testing", "setosa"): (97.40, 4.41),
}
REPORTED_IRIS_SENSITIVITY_CITATION = (
    "reported mean per-class sensitivity (percent, 100-run protocol), iris benchmark"
)

REPORTED_IRIS_SPECIFICITY: dict[tuple[str, str, str], tuple[float, float]] = {
    ("manual", "training", "virginica"): (98.01, 0.62),
    ("manual", "training", "versicolor"): (98.55, 0.79),
    ("manual", "training", "setosa"): (100.0, 0.00),
    ("manual", "testing", "virginica"): (100.0, 0.00),
    ("manual", "testing", "versicolor"): (95.50, 1.51),
    ("manual", "testing", "setosa"): (100.0, 0.00),
    ("adaptive", "training", "virginica"): (98.56, 1.06),
    ("adaptive", "training", "versicolor"): (99.33, 0.82),
    ("adaptive", "training", "setosa"): (100.0, 0.00),
    ("adaptive", "testing", "virginica"): (98.70, 6.91),
    ("adaptive", "testing", "versicolor"): (99.05, 1.97),
    ("adaptive", "testing", "setosa"): (100.0, 0.00),
    ("co", "training", "virginica"): (98.75, 0.00),
    ("co", "training", "versicolor"): (98.78, 0.18),
    ("co", "training", "setosa"): (100.0, 0.00),
    ("co", "testing", "virginica"): (100.0, 0.00),
    ("co", "testing", "versicolor"): (98.70, 2.20),
    ("co", "testing", "setosa"): (100.0, 0.00),
}
REPORTED_IRIS_SPECIFICITY_CITATION = (
    "reported mean per-class specificity (percent, 100-run protocol), iris benchmark"
)

# Youden index fractions, keyed by (architecture, phase, class); no stds reported.
REPORTED_IRIS_YOUDEN: dict[tuple[str, str, str], float] = {
    ("manual", "training", "virginica"): 0.9511,
    ("manual", "training", "versicolor"): 0.9458,
    ("manual", "training", "setosa"): 1.0000,
    ("manual", "testing", "virginica"): 1.0000,
    ("manual", "testing", "versicolor"): 0.9550,
    ("manual", "testing", "setosa"): 0.9100,
    ("adaptive", "training", "virginica"): 0.9721,
    ("adaptive", "training", "versicolor"): 0.9646,
    ("adaptive", "training", "setosa"): 1.0000,
    ("adaptive", "testing", "virginica"): 0.9870,
    ("adaptive", "testing", "versicolor"): 0.9745,
    ("adaptive", "testing", "setosa"): 0.9810,
    ("co", "training", "virginica"): 0.9630,
    ("co", "training", "versicolor"): 0.9628,
    ("co", "training", "setosa"): 1.0000,
    ("co", "testing", "virginica"): 1.0000,
    ("co", "testing", "versicolor"): 0.9870,
    ("co", "testing", "setosa"): 0.9740,
}
REPORTED_IRIS_YOUDEN_CITATION = (
    "reported mean per-class Youden index (fraction, 100-run protocol), iris benchmark"
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
