"""Projectivity and equational-unification type classification for finite
bounded distributive lattices, Kleene algebras, and De Morgan algebras,
computed on their finite order duals."""

from .algebra import FiniteAlgebra, validate_algebra
from .duality import (
    demorgan_dual,
    demorgan_from_dual,
    downset_algebra,
    join_irreducibles,
)
from .errors import PreconditionError, SizeGuardError, ValidationError
from .involutive import (
    DIAMOND,
    InvMorphism,
    InvPoset,
    enumerate_inv_morphisms,
    enumerate_invposets_upto,
    find_inv_isomorphism,
    kleene_part,
    power,
    product,
    validate_inv_morphism,
    validate_involutive,
)
from .order import (
    MonotoneMap,
    Poset,
    enumerate_monotone_maps,
    enumerate_posets_upto,
    find_isomorphism,
    is_three_complete,
    lattice_report,
    validate_monotone_map,
    validate_poset,
)
from .projectivity import (
    ConditionReport,
    build_retraction,
    canonical_embedding,
    condition_report,
    is_projective_dual,
    oracle_retraction_search,
)
from .unification import (
    Certificate,
    MostGeneral,
    MuSet,
    NullPattern,
    UnifClassification,
    classify,
    demorgan_core,
    enumerate_unifiers_bounded,
    find_null_pattern,
    instantiate_witness,
    is_solvable,
    kleene_core,
    more_general,
    mu_set,
    verify_null_pattern,
    witness_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
