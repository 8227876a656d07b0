"""Exact-arithmetic toolkit for the super Catalan numbers.

Lattice-path families (Dyck, 2-Motzkin, ballot), their exhaustive
enumeration, the signed path counts whose difference gives T(m,n), the
constructive bijections between the families, and verification suites
that check every supported identity at desk scale.
"""

from .bijections import (
    DyckPair,
    SignedCount,
    StartClass,
    classify_start,
    dyck_to_motzkin,
    from_pair,
    g_intermediate,
    injection_f,
    injection_f_inverse,
    injection_g,
    injection_g_inverse,
    motzkin_to_dyck,
    pair_census,
    signed_count,
    signed_count_dyck,
    start_class_sizes,
    theorem4_census,
    theorem4_paths,
    to_pair,
    to_pair_all,
    weight,
)
from .enumeration import (
    enum_ballot,
    enum_ballot_even,
    enum_dyck,
    enum_motzkin2,
    enum_pairs_total,
)
from .errors import DomainError, ParseError, SupercatError
from .numbers import (
    ballot_number,
    ballot_sum_identity,
    ballot_sum_terms,
    catalan,
    super_catalan_s,
    super_catalan_t,
)
from .paths import (
    EMPTY_PATH,
    DyckPath,
    LatticePath,
    PathMarkers,
    TwoMotzkinPath,
    is_dyck,
    is_even_terminal_ballot,
    is_motzkin2,
    make_path,
    markers,
    parse_path,
    reverse,
)
from .render import render_svg
from .verify import Failure, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "DyckPair",
    "DyckPath",
    "EMPTY_PATH",
    "Failure",
    "LatticePath",
    "ParseError",
    "PathMarkers",
    "SignedCount",
    "StartClass",
    "SupercatError",
    "TwoMotzkinPath",
    "VerificationReport",
    "ballot_number",
    "ballot_sum_identity",
    "ballot_sum_terms",
    "catalan",
    "classify_start",
    "dyck_to_motzkin",
    "enum_ballot",
    "enum_ballot_even",
    "enum_dyck",
    "enum_motzkin2",
    "enum_pairs_total",
    "from_pair",
    "g_intermediate",
    "injection_f",
    "injection_f_inverse",
    "injection_g",
    "injection_g_inverse",
    "is_dyck",
    "is_even_terminal_ballot",
    "is_motzkin2",
    "make_path",
    "markers",
    "motzkin_to_dyck",
    "pair_census",
    "parse_path",
    "render_svg",
    "reverse",
    "signed_count",
    "signed_count_dyck",
    "start_class_sizes",
    "super_catalan_s",
    "super_catalan_t",
    "theorem4_census",
    "theorem4_paths",
    "to_pair",
    "to_pair_all",
    "weight",
]
