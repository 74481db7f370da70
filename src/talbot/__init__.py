"""talbot: numerics for dispersive evolutions on the torus.

Exact-arithmetic evaluation of truncated dispersive series e^{itω(n)+inx},
dyadic sup/L^p sweeps with refined maxima, Gauss-sum quantization at
rational times, oblique space-time slices, fractal estimators (box
dimension, Hölder exponent, dyadic-block Besov profiles), split-step
solvers for the Wick-ordered cubic NLS and for KdV, and exact calculators
for the theoretical exponents the measurements are compared against.
"""
from .acceptance import (AcceptanceReport, Check, CriterionResult,
                         run_acceptance)
from .bounds import (BoundReport, bound_table, exponent_pair_bound,
                     frac_nls_beta, heath_brown_exponent, oblique_interval,
                     strichartz_lower, t32_dimension_interval, t32_exponent,
                     vdc_beta, vinogradov_interval, weyl_exponent)
from .diophantine import (ContinuedFractionExpansion, continued_fraction,
                          ctr_constant, dirichlet_approx,
                          gauss_coefficient_sum, solve_time_for_ctr)
from .dispersion import (BenjaminOno, Boussinesq, DispersionRelation,
                         FractionalPower, Gravity, GravityCapillary,
                         IntPolynomial, TimePoint, kl_theta, linear_frac_array,
                         parse_relation, parse_theta, seeded_theta,
                         theta_omega_frac_array)
from .evolution import (QuantizeCheck, SampleGrid, SliceSpec, evolve_slice,
                        parse_slice, quantize_coefficients, quantize_verify)
from .expsum import (BlockSpec, BProcessComparison, ExponentFit, IdentityCheck,
                     QuadrupleCount, SweepResult, SweepRow,
                     airy_l4_identity_check, block_sum, bprocess_dual_compare,
                     fit_exponent, l4_quadruple_oracle, sup_norm_sweep)
from .fixedpoint import FRAC_BITS, FixedReal, golden_ratio, pi, sqrt2, two_pi
from .fractal import (BesovProfile, BoxCountResult, besov_profile,
                      box_dimension, holder_exponent, weierstrass)
from .initial_data import StepFunction, parse_datum, parse_position
from .nonlinear import (BlowUpError, SpectralField, Trajectory, kdv_solve,
                        linear_flow_modes, nls_wick_solve, smoothing_residual,
                        wick_constant, write_snapshot_csv)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
