"""Privacy auditing for gradient sharing: closed-form estimates of how
much of a training sample an inversion attack can recover from its
(possibly perturbed) gradient, plus reference attacks and defenses."""

from .models import (
    Activation,
    Conv2d,
    Flatten,
    InitScheme,
    Linear,
    MixedJacobianOperator,
    ModelSpec,
    forward_loss,
    gradients,
    initialize_parameters,
    lenet_variant,
    linear_dot_model,
    materialize_jacobian,
    mixed_jvp,
    mixed_vjp,
    mlp_model,
    one_layer_model,
    train_model,
)
from .influence import (
    I2FReport,
    LipschitzEstimate,
    SolverConfig,
    SpectrumReport,
    dense_spectrum,
    estimate_lipschitz,
    expected_gaussian_risk,
    i2f_exact,
    i2f_lower_bound,
    lambda_max_power_iteration,
    theorem_bound,
)
from .attacks import (
    AttackConfig,
    AttackResult,
    gaussian_perturbation,
    prune_gradient,
    recovery_error,
    run_attack,
    singular_direction_perturbation,
)
from .data import Dataset, Sample, load_idx, read_pgm, synthetic_samples, write_pgm, write_report_csv

__version__ = "0.1.0"
