"""Model-comparison games, game-comonad coalgebras, and an exact
preorder-refinement oracle for resource-bounded logic fragments over
finite structures.

Three mutually cross-validating routes decide preservation and equivalence
in bounded-rank first-order, finite-variable, and bounded-depth modal
fragments (full / existential / positive / existential-positive): game
solvers with strategy extraction, explicit coalgebra constructions with
morphism and (positive) bisimulation search, and a preorder-refinement
oracle.  When preservation fails, a verified distinguishing formula is
synthesized from the Spoiler winning strategy.
"""

from .structures import (Vocabulary, Structure, ParseError, StructureError,
                         parse_structure, serialize_structure,
                         is_homomorphism, is_embedding, gaifman,
                         expand_i, collapse_i, iter_homomorphisms,
                         are_isomorphic, EQUALITY_SYMBOL)
from .formulas import (Formula, FormulaError, parse_formula, serialize_formula,
                       classify, model_check, standard_translation,
                       and_, or_, dualize, free_vars,
                       TrueC, FalseC, Atom, NegAtom, Eq, NegEq, And, Or,
                       Exists, Forall, Prop, NegProp, Dia, Box, TRUE, FALSE)
from .games import (GameSpec, Verdict, Transcript, solve, replay,
                    GameResourceError, IllegalMoveError, pairs_condition)
from .synthesis import distinguish, DuplicatorWinsError
from .oracle import (FragmentSpec, OracleResult, OracleResourceError,
                     oracle_preserves, fo_rank_profile, ml_depth_profile)
from .coalgebras import (ForestCoalgebra, Violation, BOTTOM,
                         CoalgebraError, CoalgebraSizeError,
                         build_ef, build_modal, build_pebble_truncated,
                         build_cofree, counit, counit_map, coextend,
                         check_comonad_laws, validate_coalgebra,
                         forest_shape, parse_coalgebra, serialize_coalgebra)
from .morphisms import (MorphismWitness, find_morphism, verify_morphism,
                        factor_xo, check_open_by_squares,
                        check_open_cover_lifting, check_pathwise)
from .bisim import (BackForthSystem, PositiveBisimWitness, BisimWitness,
                    BisimVerificationError, back_forth, validate_back_forth,
                    build_positive_bisim, verify_positive_bisim,
                    build_bisim, verify_bisim, extract_back_forth)

__version__ = "0.1.0"
