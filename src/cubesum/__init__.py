"""cubesum: exact Eisenstein-integer arithmetic and a theorem-cited decision
procedure for which targets M are sums of two cubes over Q and over Q(w).

The public surface:

  * eisenstein  -- the ring Z[w] and its fraction field, exact throughout
  * factorization -- prime splitting and unique factorization
  * criteria    -- condition (I), Exceptional A / Exceptional B
  * classifier  -- canonical cube-class forms and classify()
  * constructors -- Lucas identity, relation construction, tangent/secant,
                    and the executable 3-descent
  * search      -- rational and Eisenstein witness searches, exhaustive scans
  * verify      -- the ten acceptance criteria behind `cubesum verify`
  * cli         -- the `cubesum` command-line front end
"""

from .eisenstein import (
    BETA,
    ONE,
    UNITS,
    V,
    W,
    EisensteinInt,
    KElement,
    canonical_associate,
    eis_gcd,
    format_eisenstein,
    format_k,
    gcd_ext,
    is_primary,
    mod9_class,
    ord_beta,
    parse_eisenstein,
    parse_k,
)
from .factorization import (
    Factorization,
    PrimeClass,
    classify_rational_prime,
    factor,
    factor_int,
    is_cube_mod_p,
    is_prime,
    residue_split,
    split_prime,
)
from .criteria import (
    PrimeReport,
    condition_I,
    condition_I_table,
    exceptional_A,
    exceptional_A_set,
    exceptional_B,
    exceptional_B_set,
    first_exceptional_A_1mod9,
    prime_report,
)
from .classifier import CanonicalM, Verdict, canonicalize, classify, match_rule
from .constructors import (
    DescentTerminal,
    DescentTrace,
    Triple,
    TripleStructureError,
    cube_triple_structure,
    descent_step,
    descent_trace,
    lucas_pair,
    lucas_triple_search,
    lucas_witness,
    reduce_triple,
    secant_step,
    solution_from_relation,
    tangent_step,
    triple_from_solution,
)
from .search import (
    MordellReport,
    SearchBudget,
    cube_ap_exhaust,
    cube_roots,
    flt3_exhaust,
    mordell_check,
    relation_search,
    search_eisenstein,
    search_rational,
)

__version__ = "0.1.0"

__all__ = [
    "BETA",
    "ONE",
    "UNITS",
    "V",
    "W",
    "EisensteinInt",
    "KElement",
    "canonical_associate",
    "eis_gcd",
    "format_eisenstein",
    "format_k",
    "gcd_ext",
    "is_primary",
    "mod9_class",
    "ord_beta",
    "parse_eisenstein",
    "parse_k",
    "Factorization",
    "PrimeClass",
    "classify_rational_prime",
    "factor",
    "factor_int",
    "is_cube_mod_p",
    "is_prime",
    "residue_split",
    "split_prime",
    "PrimeReport",
    "condition_I",
    "condition_I_table",
    "exceptional_A",
    "exceptional_A_set",
    "exceptional_B",
    "exceptional_B_set",
    "first_exceptional_A_1mod9",
    "prime_report",
    "CanonicalM",
    "Verdict",
    "canonicalize",
    "classify",
    "match_rule",
    "DescentTerminal",
    "DescentTrace",
    "Triple",
    "TripleStructureError",
    "cube_triple_structure",
    "descent_step",
    "descent_trace",
    "lucas_pair",
    "lucas_triple_search",
    "lucas_witness",
    "reduce_triple",
    "secant_step",
    "solution_from_relation",
    "tangent_step",
    "triple_from_solution",
    "MordellReport",
    "SearchBudget",
    "cube_ap_exhaust",
    "cube_roots",
    "flt3_exhaust",
    "mordell_check",
    "relation_search",
    "search_eisenstein",
    "search_rational",
    "__version__",
]
