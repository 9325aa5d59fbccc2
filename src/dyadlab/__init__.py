"""Exact dyadic windows, Haar shifts, and norm experiments.

The package is organised bottom-up:

* :mod:`dyadlab.exact` — arithmetic in the field extended by the square
  root of two, kept exact through Haar normalisations;
* :mod:`dyadlab.dyadic` — translated dyadic windows and their intervals;
* :mod:`dyadlab.signal` — step functions, Haar analysis and norms;
* :mod:`dyadlab.shifts` — Haar shift operators, slices, paraproducts;
* :mod:`dyadlab.schur` — interaction matrices and multiplier norms;
* :mod:`dyadlab.bellman` — martingale state trees and the grid gain oracle;
* :mod:`dyadlab.normlab` — operator norm probes and averaging studies;
* :mod:`dyadlab.cli` — the ``dyadlab`` command line driver.
"""

from .exact import Sqrt2Rational, as_exact, sqrt2_pow
from .dyadic import (DepthExhaustedError, DyadicError, DyadicInterval,
                     DyadicSystem, WindowError, sample_system)
from .signal import (SpaceSpec, StepFunction, haar_expand, haar_reconstruct,
                     pairing_integral, pointwise_product,
                     random_step_function)
from .shifts import (ShiftSpec, apply_shift, paraproduct,
                     paraproduct_adjoint, petermichl_shift,
                     random_extremal_shift, series_bound, shift_matrix,
                     shift_slice, slice_levels, slice_bilinear_sides,
                     symmetrize)
from .schur import (AlphaSequence, LambdaMatrix, equivalence_report,
                    find_alpha, lambda_matrix, multiplier_norm_lower,
                    norm1_lower, norm2, random_admissible_lambda,
                    random_sign_matrix, schur_product)
from .bellman import (BellmanConfig, BellmanTable, MartingalePoint,
                      MartingaleTree, bellman_oracle, concavity_gain_check,
                      lemma51_verify, modified_points, range_check,
                      tree_from_functions)
from .normlab import (NormEstimate, ScalingReport,
                      discrete_hilbert_transform, hilbert_demo,
                      opnorm_lp_lower, shift_scaling_study, umd_probe)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact
    "Sqrt2Rational", "as_exact", "sqrt2_pow",
    # dyadic
    "DepthExhaustedError", "DyadicError", "DyadicInterval", "DyadicSystem",
    "WindowError", "sample_system",
    # signal
    "SpaceSpec", "StepFunction", "haar_expand", "haar_reconstruct",
    "pairing_integral", "pointwise_product", "random_step_function",
    # shifts
    "ShiftSpec", "apply_shift", "paraproduct", "paraproduct_adjoint",
    "petermichl_shift", "random_extremal_shift", "series_bound",
    "shift_matrix", "shift_slice", "slice_levels", "slice_bilinear_sides",
    "symmetrize",
    # schur
    "AlphaSequence", "LambdaMatrix", "equivalence_report", "find_alpha",
    "lambda_matrix", "multiplier_norm_lower", "norm1_lower", "norm2",
    "random_admissible_lambda", "random_sign_matrix", "schur_product",
    # bellman
    "BellmanConfig", "BellmanTable", "MartingalePoint", "MartingaleTree",
    "bellman_oracle", "concavity_gain_check", "lemma51_verify",
    "modified_points", "range_check", "tree_from_functions",
    # normlab
    "NormEstimate", "ScalingReport", "discrete_hilbert_transform",
    "hilbert_demo", "opnorm_lp_lower", "shift_scaling_study",
    "umd_probe",
]
