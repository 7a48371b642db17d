"""Skew polynomial rings, Petit quotient algebras, and skew polycyclic codes.

Provides finite coefficient rings, arithmetic in S[t; sigma, delta],
nonassociative quotient algebras, code construction from right divisors,
and equivalence / isometry classification of code classes.
"""

from .coeffring import (
    Automorphism,
    Element,
    RingContext,
    all_automorphisms,
    identity_aut,
    make_field,
    make_residue_ring,
    partial_norm,
)
from .skewpoly import (
    SkewPoly,
    TwistContext,
    enumerate_monic_right_divisors,
    left_divide,
    psi,
    right_divide,
    skew_mul,
)
from .petit import PetitAlgebra, StructureReport, probe_structure
from .codes import (
    LinearCode,
    apply_isometry_to_code,
    build_code,
    min_hamming_distance,
    shift_closure_check,
)
from .classify import (
    ClassificationResult,
    IsometryWitness,
    Relation,
    check_equivalence,
    check_isometry_k,
    classify_pair,
    count_constacyclic_classes,
    count_constacyclic_classes_formula,
    equivalence_class_of,
    fast_reject,
)

from .catalogue import partition_classes, run_catalogue

__version__ = "0.1.0"
