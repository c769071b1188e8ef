"""2-class groups of real quadratic fields and the first layer of their
cyclotomic Z2-extensions: genus theory, Redei-Reichardt counts, Kuroda's
class number formula, congruence/symbol classifiers, and an independent
class-group oracle built on indefinite binary quadratic forms."""

from .arith import (
    FactoredSquarefree,
    factor_squarefree,
    is_prime,
    kronecker,
    sqrt_mod_prime,
    squarefree_range,
    two_power_residue_test,
)
from .biquad import (
    first_layer_rank,
    hasse_unit_index,
    kuroda_order,
    ramified_place_count,
    structure_from_rank_and_order,
)
from .classify import (
    FieldResult,
    PredictionReport,
    SymbolSpec,
    find_prime_tuple,
    predict,
    prime_tuples_up_to,
    shape_of,
    spec_for_ppqq_condition,
    spec_for_qqqq_condition,
    stable_rank_type,
    structure_condition_ppqq,
    structure_condition_qqqq,
    sweep,
    verify_against_oracle,
)
from .forms import (
    Abelian2Group,
    FormClassGroup,
    IndefiniteForm,
    compose,
    narrow_class_group,
    ordinary_class_group,
    reduce_form,
    reduced_forms,
    two_sylow,
)
from .genus import (
    genus_rank,
    narrow_genus_rank,
    prime_discriminants,
    starred_prime,
)
from .quadfield import (
    FundamentalUnit,
    discriminant,
    fundamental_unit,
    unit_norm,
)
from .redei import (
    Decomposition,
    elementary_transfer_applies,
    splitting_sets,
)

__version__ = "0.1.0"
