"""Exact linear algebra, subspace counting, and finite geometry over
products of residue class rings Z_{p^s}.

``import ringspace`` loads no submodule.  The first use of a public name
loads the whole library and binds every public name, so no later call pays
for an import.  A submodule name (``ringspace.geometry``) imports that
module, as ``import ringspace.geometry`` does.
"""

__version__ = "0.1.0"

# home module -> the public names it defines, in ``__all__`` order
_HOMES = {
    "errors": """BudgetExceededError DEFAULT_BUDGET DomainError
        HypothesisNotMetError InternalError NonCoprimeComponentsError NotACapError
        NotAnArcError NotASubspaceError NotFullRankError
        NotInvertibleError PayloadError RingMismatchError RingParseError
        ShapeMismatchError UntypedSubspaceError""",
    "ring": "Element LocalRing Ring parse_ring",
    "matrix": """Matrix completion extend_to_basis gl_inverse is_unimodular_rows
        mccoy_rank right_inverse""",
    "subspace": """DimensionStatus DualityStatus LinearSubset Subspace as_subspace
        dimension_formula_status dual duality_laws join meet subspace_span""",
    "counting": """count_full_rank count_full_rank_extension count_gl count_mt_in
        count_mt_over count_mt_subspaces count_subspaces count_subspaces_in
        count_subspaces_over""",
    "singular": """SingularSpace TypedSubspace canonical_mt_transform is_in_gl_nk
        type_of""",
    "geometry": """PointSet extend_arc extend_cap is_arc is_cap is_complete_arc
        is_complete_cap max_arc_size_formula max_cap_size_formula
        project_point_set search_max_arc search_max_cap""",
    "oracle": """EnumerationReport brute_force_dim
        count_full_rank_enumerated enumerate_mt_subspaces enumerate_points
        enumerate_subspaces mccoy_rank_oracle verify_counts""",
}
_MODULES = {*_HOMES, "zps"}

__all__ = [name for names in _HOMES.values() for name in names.split()]


def __getattr__(name: str):
    from importlib import import_module

    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for home, names in _HOMES.items():
        module = import_module(f"{__name__}.{home}")
        globals().update((n, getattr(module, n)) for n in names.split())
    return globals()[name]
