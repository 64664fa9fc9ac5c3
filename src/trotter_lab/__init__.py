"""Numerical laboratory for splitting-error convergence on L^p([0, 1]).

The package studies how fast the n-step alternating product of the
right-shift semigroup and a multiplication semigroup e^{-tau q} converges
(or fails to converge) to the exact evolution, by reducing the operator
norm of the difference to worst-case left-Riemann-sum errors of q.
"""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, GridResolutionWarning,
                     ResourceLimitError, TrotterLabError)
from .potentials import (CantorConstruction, CantorIndicator, Constant,
                         HolderCertificate, HolderWeierstrass, Linear,
                         PiecewiseConstant, Potential, TentTrain,
                         build_cantor, build_tent_train, from_spec)
from .quadrature import (DeltaPair, PropagatorGap, integrate,
                         left_darboux_sum, left_darboux_sums, propagators,
                         riemann_error, riemann_errors)
from .sup_search import (SearchConfig, SearchReport, SearchTrace,
                         sup_riemann_error, sup_symbol, trotter_error_sandwich)
from .semigroup import (GridFunction, apply_exact, apply_mult_semigroup,
                        apply_shift, apply_trotter, operator_norm_oracle,
                        per_tau_operator_norm, strong_convergence_curve)
from .matrix_lie import (expm, lie_error, random_matrix_pair, spectral_norm,
                         telescoping_residual)
from .rates import (HolderCheck, RateFit, SlowConvergenceTable, fit_loglog,
                    holder_bound_check, slow_convergence_check)

__all__ = [
    "__version__",
    "TrotterLabError", "ResourceLimitError",
    "BudgetExceededError", "GridResolutionWarning",
    "Potential", "Constant", "Linear", "PiecewiseConstant",
    "HolderWeierstrass", "TentTrain", "CantorIndicator",
    "HolderCertificate", "CantorConstruction",
    "build_cantor", "build_tent_train", "from_spec",
    "DeltaPair", "PropagatorGap", "integrate", "left_darboux_sum",
    "left_darboux_sums", "riemann_error", "riemann_errors", "propagators",
    "SearchConfig", "SearchTrace", "SearchReport", "sup_riemann_error",
    "sup_symbol", "trotter_error_sandwich",
    "GridFunction", "apply_shift", "apply_mult_semigroup", "apply_exact",
    "apply_trotter", "per_tau_operator_norm", "operator_norm_oracle",
    "strong_convergence_curve",
    "expm", "spectral_norm", "telescoping_residual", "lie_error",
    "random_matrix_pair",
    "RateFit", "fit_loglog", "HolderCheck", "holder_bound_check",
    "SlowConvergenceTable", "slow_convergence_check",
]
