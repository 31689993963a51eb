"""Exact computer algebra for conformal spinor representation theory.

The package realizes the conformal orthogonal Lie algebra as exact
differential operators on spinor-valued polynomials, computes and classifies
singular vectors of the associated generalized Verma modules, and constructs
and verifies the dual conformally equivariant operators (conformal powers of
the Dirac operator and twistor operators).  All arithmetic is exact over the
Gaussian rationals.
"""

from .exact import GaussianRational, SparseMatrix, qi, rational
from .clifford import Signature, GammaRep, build_gamma_rep
from .context import Context

__version__ = "0.1.0"
