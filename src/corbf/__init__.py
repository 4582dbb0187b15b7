"""Multi-kernel RBF networks with fixed, adaptive, and per-kernel local-weight
fusion, trained by per-sample gradient descent, plus benchmark tasks and
metrics."""

from types import ModuleType as _ModuleType

from .centers import (
    SubtractiveConfig,
    fixed_centers,
    grid_axes,
    grid_centers,
    subtractive_clustering,
)
from .errors import (
    CorbfError,
    DataFormatError,
    DimensionMismatchError,
    DivergenceError,
    EmptyInputError,
    InvalidConfigError,
    InvalidModelError,
    MissingArtifactsError,
    PartitionError,
)
from .kernels import (
    KERNEL_NAMES,
    CosineParams,
    GaussianParams,
    KernelBank,
    cosine_kernel,
    gaussian_kernel,
    kernel_matrix,
    kernel_vector,
)
from .metrics import (
    ConfusionCounts,
    ErrorSurface,
    accuracy,
    confusion,
    error_surface,
    format_percent,
    format_youden,
    mse_db,
    mse_db_from_linear,
    sensitivity_specificity_youden,
    write_metric_table,
)
from .model import (
    AdaptiveFusion,
    CoFusion,
    FixedFusion,
    FusionMode,
    MultiHeadRbfModel,
    RbfModel,
    Scenario4Center,
    center_contributions,
    discriminative_power,
    forward,
    forward_batch,
    load_model,
    multiclass_decision,
    save_model,
)
from .tasks import (
    DEFAULT_FUNAPPROX_TARGET,
    LabeledDataset,
    SysIdSignal,
    funapprox_target,
    gen_function_approx,
    gen_sysid,
    load_iris,
    plant_response,
    square_wave,
)
from .trainer import (
    DIVERGENCE_LIMIT,
    TrainConfig,
    TrainTrace,
    fit,
    learning_rate_bound,
    read_trace_csv,
    sgd_step,
    write_trace_csv,
)

__version__ = "0.1.0"

# bench reads __version__ for its manifests, so it must import after the
# assignment above.
from . import reference  # noqa: E402
from .bench import (  # noqa: E402
    ARCHITECTURES,
    TASKS,
    ExperimentConfig,
    bound_probe,
    compare_report,
    config_from_manifest,
    run_experiment,
)

# The names imported above are the public API, written once: __all__ is every
# one of them but the submodules that importing binds, plus reference and the
# version.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += ["reference", "__version__"]
