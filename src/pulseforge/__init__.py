"""Simulation and verification lab for content-oblivious leader
election on trees: pulses carry no content, only their arrival port
matters, and an adversary controls every delivery delay."""

from .topology import (
    TreeTopology,
    Layering,
    SubtreeIndex,
    SymmetryReport,
    ParseError,
    ParensError,
    parse_edge_list,
    layer_decomposition,
    compare_subtrees,
    enumerate_subtrees,
    is_edge_symmetric,
    encode_parens,
    decode_parens,
)
from .protocol import (
    LEADER,
    NONLEADER,
    UNDECIDED,
    RuleSet,
    NodeState,
    Send,
    SymmetricTreeError,
    OddDiameterError,
    RuleConsistencyError,
    compile_even_rules,
    compile_general_rules,
    init_node,
    on_deliver,
    init_stabilizing,
    stabilizing_step,
    match_trigger,
)
from .simulator import (
    NetworkState,
    Outcome,
    ModelCheckReport,
    TerminalClass,
    SeededRandom,
    RoundRobin,
    AdversaryScript,
    NoPulseInFlightError,
    StateCapExceededError,
    MissingIdsError,
    DuplicateIdsError,
    new_simulation,
    step,
    run,
    explore_all_schedules,
)
from .harness import (
    GeneratorSpec,
    ExperimentReport,
    GenerationError,
    generate,
    random_tree,
    random_asymmetric_tree,
    mirrored_tree,
    path_tree,
    star_tree,
    complete_binary_tree,
    oracle_expected_leader,
    expected_total_pulses,
    pulse_bound,
    verify_outcome,
    verify_model_check,
    sweep,
    resolve_tree,
)
from .cli import cli

__version__ = "0.1.0"
