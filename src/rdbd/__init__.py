"""Delta-bar-delta learning-rate schedulers with a one-step revert, the
baseline optimizers they wrap, closed-form convergence-bound calculators,
and a seeded benchmark harness."""

from .schedulers import FlatSchedule
from .baselines import AdamState, adam_advance
from .problems import Problem
from .data import (Dataset, batch_stream, load_mnist, parse_idx,
                   stratified_rows, synthetic_blobs)
from .theory import (BoundReport, TheoryParams, alpha_envelope,
                     dbd_hypergradient, dbd_iteration_bound,
                     descent_coefficient_bound, measure_tau,
                     rdbd_iteration_bound, rdbd_theoretical_hyperparams,
                     steeper_descent_conditions)
from .harness import (ConfigError, MissingDataError, NumericError, RunConfig,
                      Trace, compare, emit_plot_data, preset, run)

__version__ = "0.1.0"
