"""Numeric thresholds used throughout the package.

All positive-semidefiniteness verdicts compare a minimum eigenvalue
against -PSD_TOL, and a violation only counts as a reportable witness
when it clears the stricter WITNESS_TOL band.  The gap between the two
is deliberate hysteresis so float dust can neither fail a true pass nor
mint a fake counterexample.
"""

# Eigenvalue floor for "positive semidefinite, numerically".
PSD_TOL = 1e-8

# A defect eigenvalue must drop below -WITNESS_TOL before the sample is
# reported as a genuine counterexample; convexity._violates is the one
# comparison with it.
WITNESS_TOL = 1e-6

# Hermiticity gate on tuple ingest; inputs farther than this from their
# adjoint are rejected rather than symmetrized.
HERMITIAN_INGEST_TOL = 1e-12

# Evaluated matrices claimed Hermitian may deviate this much from their
# adjoint before the hermitian_ok flag trips.
EVAL_HERMITIAN_TOL = 1e-9

# Coefficients below this magnitude are dropped after polynomial
# arithmetic so term maps stay canonical under float accumulation.
COEFF_DROP_TOL = 1e-14

# Unitarity gate for conjugation inputs.
UNITARY_TOL = 1e-10

# Hermiticity gate on the matrix arguments of the one-variable calculus
# (matrix_apply and kraus_eval).
ONEVAR_INGEST_TOL = 1e-10

# Slice-coefficient extraction: interpolation residual above this is an
# error; extracted coefficients above COEFF_ZERO_TOL count as nonzero.
EXTRACTION_RESIDUAL_TOL = 1e-6
COEFF_ZERO_TOL = 1e-7

# Largest direct-sum or unitary-conjugation deviation the nc-function
# axiom check accepts.
AXIOM_TOL = 1e-8

# Resolvent guard for the Kraus evaluator: min |1 - lambda*t| over
# atoms and spectrum must exceed this.
KRAUS_POLE_TOL = 1e-8
