"""Processes with time-outs: parsing, operational semantics, branching
reactive equivalences, a matching modal logic, and equational laws.

The package decides (rooted) branching reactive bisimilarity two independent
ways, synthesises distinguishing formulas, minimises systems by equivalence
classes, and fuzzes an axiom catalogue against the checkers.
"""

from .axioms import AXIOMS, Axiom, AxiomResult, axiom_by_name, fuzz_axioms
from .encoding import EncState, encode, eps_label
from .equiv import (
    Analysis,
    CheckOptions,
    RelationStore,
    Verdict,
    brb,
    brb_partition,
    brb_x,
    process_universe,
    r_sr_branching,
    rbrb,
    rbrb_x,
    sr_branching,
    strong,
)
from .errors import (
    AlphabetLimitError,
    InvalidTermError,
    MethodDisagreementError,
    ParseError,
    StateBudgetError,
    TxbisimError,
    UndefinedNameError,
    UnguardedRecursionError,
    WitnessError,
)
from .gen import GenConfig, equivalent_pair, rand_context, rand_formula, rand_term
from .lts import Lts, Partition, export_aut, import_aut, quotient, tau_closure
from .modal import (
    And,
    Diamond,
    EnvDiamond,
    Eps,
    Formula,
    HatDiamond,
    Not,
    TOP,
    Top,
    conjunction,
    distinguish,
    formula_text,
    in_subclass,
    parse_formula,
    satisfies,
)
from .semantics import (
    deadend,
    derive,
    explore,
    init_set,
    is_stable,
    unfold,
)
from .terms import (
    EMPTY_ENV,
    NIL,
    TAU,
    TIMEOUT,
    Definitions,
    Term,
    alphabet,
    definitions_text,
    envset,
    mk_abstract,
    mk_choice,
    mk_par,
    mk_prefix,
    mk_psi,
    mk_reccall,
    mk_recspec,
    mk_rename,
    mk_theta,
    mk_var,
    parse_file,
    parse_term,
    spec_close,
    sum_of,
    summands,
    term_text,
    visible,
)

__version__ = "0.1.0"
