"""Exact arithmetic for supertropical polynomials.

Scalars are max-plus with a tangible and a ghost copy of every rational
magnitude; addition is max with ties turning ghost, so `a + a = a^nu`.
The package provides one-variable polynomials with canonical full forms,
tangible root sets, factorization, Sylvester-permanent resultants,
relative-primeness decisions, division witnesses, and a grid-based
two-variable intersection probe, plus a parser and a CLI (`supertrop`).

Answers (root sets, factorizations, division witnesses, resultant and
Bezout reports) are slotted value records: immutable, compared and hashed
by their fields.  Importing the package loads only the modules its
answers need; `checks`, behind `supertrop selfcheck`, is imported on
demand.

`__all__` is the supported API, the list in the README's "Supported API"
section; `tests/test_api.py` keeps the two equal.
"""

from .bipoly import (BiPoly, BezoutReport, DEFAULT_STEP, DEFAULT_WINDOW,
                     bezout_report, common_roots_sample, partial_frobenius,
                     resultant_in_second)
from .divide import (DivisionWitness, divides_linear, radical_member_check,
                     verify_division)
from .element import Element, ONE, ZERO, ghost, tangible
from .factor import (Factorization, e_divides, expand, factor_min_ghosts,
                     left_ghost_factor, quadratic_factor, right_ghost_factor,
                     split_tan_intan)
from .intervals import IntervalSet, NEG_INF, POS_INF, RootSet
from .parse import (ParseError, bipoly_from_json, bipoly_to_json,
                    parse_bipoly, parse_element, parse_poly, poly_from_json,
                    poly_to_json)
from .poly import (CommonRoot, FullPoly, HalfTangible, NotGhostSum,
                   PiecewiseLinear, Poly, Side, add_shift, analyze_ghost_sum,
                   canonical_full, classify_half_tangible, e_equiv,
                   essential_part, frobenius, full_from_corners, ggraph,
                   is_ghost_poly, mul_shift, tangible_roots)
from .resultant import (RelPrimeReport, decide, resultant, resultant_nu,
                        resultant_nu_assignment, semitangible_blocks,
                        sylvester)

__all__ = [
    "BiPoly", "BezoutReport", "CommonRoot", "DEFAULT_STEP", "DEFAULT_WINDOW",
    "DivisionWitness", "Element", "Factorization", "FullPoly", "HalfTangible",
    "IntervalSet", "NEG_INF", "NotGhostSum", "ONE", "POS_INF", "ParseError",
    "PiecewiseLinear", "Poly", "RelPrimeReport", "RootSet", "Side", "ZERO",
    "add_shift", "analyze_ghost_sum", "bezout_report", "bipoly_from_json",
    "bipoly_to_json", "canonical_full", "classify_half_tangible",
    "common_roots_sample", "decide", "divides_linear", "e_divides", "e_equiv",
    "essential_part", "expand", "factor_min_ghosts", "frobenius",
    "full_from_corners", "ggraph", "ghost", "is_ghost_poly",
    "left_ghost_factor", "mul_shift", "parse_bipoly", "parse_element",
    "parse_poly", "partial_frobenius", "poly_from_json", "poly_to_json",
    "quadratic_factor", "radical_member_check", "resultant",
    "resultant_in_second", "resultant_nu", "resultant_nu_assignment",
    "right_ghost_factor", "semitangible_blocks", "split_tan_intan",
    "sylvester", "tangible", "tangible_roots", "verify_division",
]
