"""Supervisor reduction toolkit for discrete-event systems.

The package works with deterministic finite automata whose events carry
controllable/observable attributes.  Given a plant and a feasible
supervisor it extracts the per-state control data (enabled set, disabled
set, two marking indicators), groups states through control covers,
induces reduced control-equivalent supervisors, builds the finest
equivalent supervisor by subset construction, and compares supervisors
under the fineness order that predicts reduction rates.
"""

from .automata import (
    Alphabet,
    Automaton,
    Event,
    Lockstep,
    MorphismResult,
    control_equivalent,
    is_des_epimorphic,
    is_des_isomorphic,
    language_equivalent,
    parse_automaton,
    project_string,
    serialize_automata,
    serialize_automaton,
    sync_product,
    trim_reachable,
)
from .errors import (
    AlphabetMismatchError,
    CoverError,
    InfeasibleSupervisorError,
    ParseError,
    PreconditionError,
    SearchCapError,
    SupredError,
)
from .ordering import (
    OrderWitness,
    compare_full_vs_partial,
    compare_reductions,
    finer_than,
    verify_super_is_finest,
)
from .reduction import (
    Cover,
    ReductionReport,
    build_super,
    characterize_super_state,
    extract_cover_from_simsup,
    generate_equivalent_supervisor,
    induce_quotient,
    reduce_exact_minimum,
    reduce_heuristic,
    validate_cover,
)
from .supervision import (
    ControlData,
    check_control_existence,
    check_control_feasibility,
    compatible,
    control_data,
    is_normal,
    loop_controllable,
)

__version__ = "0.1.0"
