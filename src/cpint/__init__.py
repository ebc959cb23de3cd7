"""cpint: the continuous primitive integral, computable.

A distribution f is integrable here exactly when it is the
distributional derivative of a continuous function F on the extended
real line with F(-inf) = 0; then int_a^b f = F(b) - F(a), always two
evaluator calls.  The package carries every integrable object as its
primitive and builds norms, products with functions of bounded
variation, a Banach-lattice order, convergence diagnostics, and
half-plane Poisson / Laplace transforms on top of that single
representation.
"""

from .bv import (BVFunction, Piece, blocks, constant, from_callable,
                 from_knots, heaviside, indicator, monotone, normalize_nbv,
                 rs_integral, variation)
from .cfun import (ContinuousFunctionBar, TestFunction, build_continuous,
                   bump, extremes)
from .chart import INF, NEG_INF, compactify, decompactify, parse_extended
from .convergence import (ConvergenceReport, DistributionSequence, Verdict,
                          quasi_uniform_check, strong_distance,
                          theorem_checkers, weak_bv_report, weak_d_report)
from .errors import (BudgetExceeded, CpintError, DomainError, EvalError,
                     ExprSyntaxError, IntervalEmpty, MalformedPieces,
                     NoLimitAtInfinity, NonMonotone, NotContinuous,
                     ResidualTooLarge, UnknownFixture, UnknownFunction)
from .expr import compile_expr, evaluate, parse, unparse
from .lattice import (AbsNormResult, LatticeKind, Order, OrderResult,
                      abs_norm, compare, lattice_op, parts)
from .products import (HolderBound, TaylorInput, TaylorResult,
                       change_of_variables, holder_bound, integral_product,
                       multiply_bv, pair_with_test, second_mvt_xi,
                       taylor_expand)
from .quadrature import HakeResult, hake_from_integrand
from .space import (Distribution, NormKind, distribution_from_evaluator,
                    equal, hake_extend, integral, linear_combine, norm,
                    translate, try_from_primitive, zero)
from .transforms import (HalfPlanePoint, boundary_norm_gap, growth_probe,
                         laplace, laplace_derivative, laplacian_probe,
                         poisson, weighted_integral)

__version__ = "0.1.0"
