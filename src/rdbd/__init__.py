"""Delta-bar-delta learning-rate schedulers with a one-step revert, the
baseline optimizers they wrap, closed-form convergence-bound calculators,
and a seeded benchmark harness."""

from .core import (GradientEstimate, ParamVector, ScheduleState, StepOutcome,
                   TheoryParams, dot, validate_theory_params)
from .schedulers import (FlatSchedule, dbd_step, plain_step, rdbd_step,
                         revert_exactness_check)
from .baselines import AdamState, adam_advance, adam_rdbd_step, adam_step
from .problems import (Problem, estimate_sigma, finite_difference_gradient,
                       logistic_problem, mlp_problem, quadratic_problem,
                       rosenbrock_problem, with_gradient_noise)
from .data import (BatchSampler, Dataset, load_mnist, mnist_subset,
                   parse_idx, serialize_idx, synthetic_blobs)
from .theory import (BoundReport, alpha_envelope, dbd_hypergradient,
                     dbd_iteration_bound, descent_coefficient_bound,
                     measure_tau, rdbd_iteration_bound,
                     rdbd_theoretical_hyperparams,
                     steeper_descent_conditions)
from .harness import (ConfigError, MissingDataError, NumericError, RunConfig,
                      TraceRecord, compare, emit_plot_data, preset, run)

__version__ = "0.1.0"
