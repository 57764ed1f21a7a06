"""Free noncommutative functions in two Hermitian variable classes.

Polynomials and truncated power series in letters a1..a_{g_a},
x1..x_{g_x}, evaluated on tuples of Hermitian matrices; randomized
matrix-convexity and operator-monotonicity testers with shrunken
witnesses; Kraus / Pick representation evaluators; and slice-based
certification that a matrix-convex function has x-degree at most 2.
"""

from .algebra import MatrixNcPolynomial, NcPolynomial, NcPowerSeries, Signature
from .convexity import (Report, test_convexity_at_A, test_convexity_at_CA,
                        verify_convexity_witness)
from .errors import (DomainError, ExtractionError, NcError, ParseError,
                     ResourceLimitError, ShapeError, SignatureError,
                     SingularityError, UnitarityError)
from .evaluate import (AxiomsReport, CallableNcFunction, NcFunction,
                       PolynomialNcFunction, SeriesNcFunction,
                       as_nc_function, check_nc_function_axioms, eval_poly,
                       eval_series)
from .onevar import (DiscreteMeasure, ScalarFn, convexity_test_1var,
                     g_transform, kraus_eval, kraus_scalar_fn, loewner_matrix,
                     loewner_monotone_test, matrix_apply, pick_eval,
                     verify_convexity1_witness, verify_monotone_witness)
from .parsing import infer_signature, load_corpus, parse, parse_polynomial
from .presets import (CORPUS, PRESET_NAMES, KrausLiftFunction, get_preset,
                      random_base_tuple, scalar_from_polynomial,
                      trace_evaluator)
from .slices import (VERDICT_CONSISTENT, VERDICT_HIGHER_ORDER,
                     VERDICT_HYPOTHESIS_FAILS, CertificationReport,
                     SliceCoefficients, certify_degree_two,
                     extract_slice_coefficients, slice_matrix, slice_phi,
                     slice_scalar, test_slice_convexity_transfer)
from .tuples import (CASetElement, HermTuple, ca_element, derived_rng,
                     haar_unitary, hermitian_with_spectrum_in, identity_tuple,
                     matrix_from_json, matrix_to_json, random_hermitian,
                     sample_x_ball, tuple_from_json, tuple_norm,
                     tuple_to_json, zero_tuple)

__version__ = "0.1.0"

__all__ = [
    "AxiomsReport", "CASetElement", "CallableNcFunction",
    "CertificationReport", "CORPUS", "DiscreteMeasure", "DomainError",
    "ExtractionError", "HermTuple", "KrausLiftFunction", "MatrixNcPolynomial",
    "NcError", "NcFunction", "NcPolynomial", "NcPowerSeries", "ParseError",
    "PolynomialNcFunction", "PRESET_NAMES", "Report", "ResourceLimitError",
    "ScalarFn", "SeriesNcFunction", "ShapeError", "Signature",
    "SignatureError", "SingularityError", "SliceCoefficients",
    "UnitarityError", "VERDICT_CONSISTENT", "VERDICT_HIGHER_ORDER",
    "VERDICT_HYPOTHESIS_FAILS", "as_nc_function", "ca_element",
    "certify_degree_two", "check_nc_function_axioms", "convexity_test_1var",
    "derived_rng", "eval_poly", "eval_series", "extract_slice_coefficients",
    "g_transform", "get_preset", "haar_unitary", "hermitian_with_spectrum_in",
    "identity_tuple", "infer_signature", "kraus_eval", "kraus_scalar_fn",
    "load_corpus", "loewner_matrix", "loewner_monotone_test", "matrix_apply",
    "matrix_from_json", "matrix_to_json", "parse", "parse_polynomial",
    "pick_eval", "random_base_tuple", "random_hermitian", "sample_x_ball",
    "scalar_from_polynomial", "slice_matrix", "slice_phi", "slice_scalar",
    "test_convexity_at_A", "test_convexity_at_CA",
    "test_slice_convexity_transfer", "trace_evaluator", "tuple_from_json",
    "tuple_norm", "tuple_to_json", "verify_convexity1_witness",
    "verify_convexity_witness", "verify_monotone_witness", "zero_tuple",
]
