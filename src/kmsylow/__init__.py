"""Verification toolkit for truncated Kac-Moody Sylow models.

Classify generalized Cartan matrices, enumerate roots, build truncated
positive parts of Serre-presented Lie algebras, and verify group-theoretic
predictions (Frattini quotients, generation, filtrations, Tits axioms) in
two finite models: truncated BCH groups over F_q and congruence-filtered
special linear groups over F_q[t]/(t^k).
"""

from .affine import (
    AffineMatrixGroup,
    IwahoriSylow,
    borel_subgroup,
    commutator_identity_check,
    congruence_subgroup,
    enumerate_special_linear,
    iwahori_sylow_membership,
    monomial_subgroup,
    sylow_generators,
    sylow_order,
    sylow_table,
    verify_generation,
    verify_theorem1_affine,
    weyl_representatives,
)
from .bch import bch_lyndon_terms
from .errors import (
    AsymmetricZero,
    ChainNotNested,
    CharacteristicTooSmall,
    DiagonalNotTwo,
    EnumerationCapExceeded,
    GcmError,
    HeightExceedsCutoff,
    HypothesisViolated,
    KmError,
    NotAFiltration,
    NotPositiveRealRoot,
    PositiveOffDiagonal,
    TruncationTooShallow,
    UnknownLabel,
    ZeroVector,
)
from .fields import FqConfig, RationalField
from .gcm import GcmType, GeneralizedCartanMatrix, classify, validate_gcm
from .law import GroupOracle
from .lie import GradedLieAlgebra, bracket, build_positive_part
from .pgroup import (
    FiniteGroupTable,
    FrattiniCount,
    check_filtration_lemma,
    closure,
    normal_closure,
    subgroup_index,
    verify_tits_axioms,
)
from .roots import (
    IMAGINARY,
    NOT_ROOT,
    REAL,
    RootVector,
    positive_real_roots_up_to_height,
    positive_roots_up_to_height,
    root_status,
    roots_to_json,
    simple_root,
    weyl_apply,
)
from .unipotent import (
    UnipotentModel,
    frattini_dimension_linear,
    root_group_element,
    standard_generators,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMatrixGroup",
    "AsymmetricZero",
    "ChainNotNested",
    "CharacteristicTooSmall",
    "DiagonalNotTwo",
    "EnumerationCapExceeded",
    "FiniteGroupTable",
    "FqConfig",
    "GcmError",
    "GcmType",
    "GeneralizedCartanMatrix",
    "GradedLieAlgebra",
    "GroupOracle",
    "HeightExceedsCutoff",
    "HypothesisViolated",
    "IMAGINARY",
    "IwahoriSylow",
    "KmError",
    "NOT_ROOT",
    "NotAFiltration",
    "NotPositiveRealRoot",
    "PositiveOffDiagonal",
    "RationalField",
    "REAL",
    "RootVector",
    "TruncationTooShallow",
    "UnipotentModel",
    "UnknownLabel",
    "ZeroVector",
    "bch_lyndon_terms",
    "borel_subgroup",
    "bracket",
    "build_positive_part",
    "check_filtration_lemma",
    "classify",
    "closure",
    "commutator_identity_check",
    "congruence_subgroup",
    "enumerate_special_linear",
    "frattini_dimension_linear",
    "FrattiniCount",
    "iwahori_sylow_membership",
    "monomial_subgroup",
    "normal_closure",
    "positive_real_roots_up_to_height",
    "positive_roots_up_to_height",
    "root_group_element",
    "root_status",
    "roots_to_json",
    "simple_root",
    "standard_generators",
    "subgroup_index",
    "sylow_generators",
    "sylow_order",
    "sylow_table",
    "validate_gcm",
    "verify_generation",
    "verify_theorem1",
    "verify_theorem1_affine",
    "verify_tits_axioms",
    "weyl_apply",
    "weyl_representatives",
]
