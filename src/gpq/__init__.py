"""gpq: a combinatorial group-presentation engine.

Word and presentation calculus with involutive letters, Tietze moves,
pluggable word-problem oracles, string rewriting with confluence
certificates, metric balls in Cayley 2-complexes with bounded null-homotopy
searches, endomorphic presentations with their HNN extensions, finite-index
presentation induction, and the self-similar-group verification pipeline.
"""

from .words import (
    Alphabet,
    Substitution,
    Word,
    apply_substitution,
    free_reduce,
    iterate_substitution,
)
from .presentations import Presentation, T1, T2, T3, T4, apply_move, tietze
from .parsing import parse_document, parse_presentation, print_document
from .backends import (
    FiniteGroupTable,
    bs_oracle,
    dihedral_group,
    free_abelian_oracle,
    free_oracle,
)
from .rewriting import (
    RewritingSystem,
    ball_null_homotopy_witness,
    certify_local_confluence,
    critical_pairs,
    is_geodesic,
    reduce,
)
from .balls import (
    Ball,
    build_ball,
    build_sphere,
    geodesic_0_combing,
    null_homotopy_search,
    pi1_generators,
    pi1_kill_radius,
)
from .endo import (
    EndomorphicPresentation,
    britton_pinch_reduce,
    expand_relators,
    hnn_presentation,
    is_positive,
    order_less,
    sigma_decode,
    stable_projection,
)
from .induction import (
    SplitExtensionData,
    YLetter,
    basic_relation,
    conjugate_relation,
    hall_compose,
    induce_presentation,
    product_presentation,
)
from .grigorchuk import (
    GrigorchukData,
    make_grigorchuk_data,
    run_full_verification,
    verify_sigma_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
