"""Exact representation-volume data for Seifert and graph 3-manifolds.

Everything is computed in exact arithmetic: volume coefficients are
``fractions.Fraction`` multiples of 4*pi^2, and the symbolic 3-form
machinery works over Gaussian rationals times integer powers of pi.

Every name in ``__all__`` resolves on first use: ``import repvol`` loads
none of the submodules, and ``repvol.X`` or ``from repvol import X``
imports the one module that defines ``X`` (PEP 562) and keeps ``X`` in
the package namespace, so later uses are plain lookups.  A short-lived
process, such as one ``repvol`` command, pays only for what it uses.
``_HOMES`` is the one list of public names: it maps each home module to
the names it defines, and both ``repvol.__all__`` and each home
module's own ``__all__`` are read from it.
"""

import importlib

__version__ = "0.1.0"

# The home module of each public name.
_HOMES = {
    "exact": (
        "ExactVolume",
        "GaussianRational",
        "NumericVolume",
        "PiScalar",
        "Rational",
        "Refusal",
        "ShapeRefusal",
        "VolumeValue",
        "render_volume",
        "volume_sum",
    ),
    "seifert": (
        "GeometryTag",
        "ParseError",
        "SeifertInvariants",
        "base_cover",
        "circle_bundle",
        "classify_geometry",
        "dehn_fill",
        "euler_number",
        "fiber_cover",
        "format_seifert",
        "orbifold_chi",
        "parse_seifert",
    ),
    "ehn": (
        "VolumeWitness",
        "foliation_exists",
        "seifert_volume_max",
        "volume_set",
        "volume_set_bruteforce",
        "witnesses_for",
    ),
    "liecs": (
        "ExteriorForm",
        "GramForm",
        "JacobiViolation",
        "LieAlgebraSpec",
        "algebra_from_json",
        "bracket_two_form",
        "chern_poly_coeffs",
        "cs_three_form",
        "d",
        "exactness_split",
        "format_form",
        "is_ad_invariant",
        "iso_sl2r_algebra",
        "iso_sl2r_gram",
        "mc_differential",
        "sl2c_algebra",
        "sl2c_gram",
        "validate_jacobi",
    ),
    "jsj": (
        "DirectVolume",
        "Edge",
        "FilledSeifert",
        "GraphManifoldSpec",
        "MotegiResult",
        "Piece",
        "RWResult",
        "SmallImage",
        "additivity_sum",
        "load_graph_document",
        "motegi_case",
        "motegi_spec",
        "rw_consistency",
        "validate_spec",
    ),
    "covers": (
        "ColoredMergeCounts",
        "MergeCounts",
        "TorusCoverDatum",
        "colored_merge_counts",
        "cover_intersection",
        "elevation_count",
        "merge_copy_counts",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
