import supercat
from supercat import bijections, enumeration, errors, numbers, paths, render, verify

PUBLIC = [
    "DomainError", "DyckPair", "DyckPath", "EMPTY_PATH", "Failure", "LatticePath", "ParseError", "PathMarkers",
    "SignedCount", "StartClass", "SupercatError", "TwoMotzkinPath", "VerificationReport",
    "ballot_number", "ballot_sum_identity", "ballot_sum_terms", "catalan", "classify_start", "dyck_to_motzkin",
    "enum_ballot", "enum_ballot_even", "enum_dyck", "enum_motzkin2", "enum_pairs_total", "from_pair",
    "g_intermediate", "injection_f", "injection_f_inverse", "injection_g", "injection_g_inverse", "is_dyck",
    "is_even_terminal_ballot", "is_motzkin2", "markers", "motzkin_to_dyck", "pair_census",
    "parse_path", "render_svg", "reverse", "signed_count", "signed_count_dyck", "start_class_sizes",
    "super_catalan_s", "super_catalan_t", "theorem4_census", "theorem4_paths", "to_pair", "to_pair_all", "weight",
]


def test_public_surface_is_the_modules_all():
    assert len(set(PUBLIC)) == 49
    assert sorted(supercat.__all__) == PUBLIC  # so __all__ holds no name twice
    namespace = {}
    exec("from supercat import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    # each module declares what the package re-exports, as the very objects it binds;
    # verify's two records are the only names __init__ writes itself
    for module in (bijections, enumeration, errors, numbers, paths, render):
        for name in module.__all__:
            assert getattr(supercat, name) is getattr(module, name)
    assert supercat.Failure is verify.Failure and supercat.VerificationReport is verify.VerificationReport
