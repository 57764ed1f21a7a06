"""Free noncommutative functions in two Hermitian variable classes.

Polynomials and truncated power series in letters a1..a_{g_a},
x1..x_{g_x}, evaluated on tuples of Hermitian matrices; randomized
matrix-convexity and operator-monotonicity testers with shrunken
witnesses; Kraus representation evaluators; and slice-based
certification that a matrix-convex function has x-degree at most 2.
"""

from .algebra import NcPolynomial, NcPowerSeries, Signature
from .convexity import (Report, test_convexity_at_A, test_convexity_at_CA,
                        verify_convexity_witness)
from .errors import (DomainError, ExtractionError, NcError, ParseError,
                     ResourceLimitError, ShapeError, SignatureError,
                     SingularityError, UnitarityError)
from .evaluate import (CallableNcFunction, NcFunction, PolynomialNcFunction,
                       SeriesNcFunction, check_nc_function_axioms, eval_poly)
from .onevar import (DiscreteMeasure, ScalarFn, convexity_test_1var,
                     g_transform, kraus_eval, loewner_monotone_test,
                     verify_convexity1_witness, verify_monotone_witness)
from .parsing import load_corpus, parse_polynomial
from .presets import KrausLiftFunction
from .slices import (certify_degree_two, extract_slice_coefficients,
                     slice_phi, test_slice_convexity_transfer)
from .tuples import HermTuple

__version__ = "0.1.0"

# the API the README documents; everything else is imported from its
# own module
__all__ = [
    "CallableNcFunction", "DiscreteMeasure", "DomainError",
    "ExtractionError", "HermTuple", "KrausLiftFunction", "NcError",
    "NcFunction", "NcPolynomial", "NcPowerSeries", "ParseError",
    "PolynomialNcFunction", "Report", "ResourceLimitError", "ScalarFn",
    "SeriesNcFunction", "ShapeError", "Signature", "SignatureError",
    "SingularityError", "UnitarityError", "certify_degree_two",
    "check_nc_function_axioms", "convexity_test_1var", "eval_poly",
    "extract_slice_coefficients", "g_transform", "kraus_eval",
    "load_corpus", "loewner_monotone_test", "parse_polynomial",
    "slice_phi", "test_convexity_at_A", "test_convexity_at_CA",
    "test_slice_convexity_transfer", "verify_convexity1_witness",
    "verify_convexity_witness", "verify_monotone_witness",
]
