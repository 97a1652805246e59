"""Temporal-logic verification of quantum programs over subspace propositions."""

from . import errors
from .linalg import CRat, Mat, Rational, invert, is_psd, kernel_basis, kron, rank
from .subspace import Subspace, SubspaceUnion, satisfies, support
from .superop import Measurement, MatrixRep, SuperOp, image, image_union, preimage, preimage_union
from .program import (
    CQState,
    ConcurrentProcess,
    ConcurrentProgram,
    LocationAction,
    QuantumAutomaton,
    SequentialProgram,
    embed,
    extract,
    initial_cq,
    selector_successors,
    simulate_deterministic,
    step_superop,
    successors,
    to_automaton,
)
from .qwhile import (
    QWhileProgram,
    WhileNormalForm,
    bohm_jacopini,
    compile_qwhile,
    compile_source,
    denote_bounded,
    denote_steps,
    parse,
    pretty_print,
    steps_for_depth,
)
from .formula import Atom, atom_from_blocks, formula_to_str, parse_formula
from .checker import (
    ExitVerdicts,
    OracleResult,
    ReachabilityResult,
    TerminationResult,
    Verdict,
    check,
    check_always_almost_until,
    check_always_eventually,
    check_always_until,
    check_eventually_always,
    check_exit_almost_eventually,
    check_exit_always,
    check_exit_eventually,
    check_exit_formulas,
    check_invariance,
    check_next,
    check_terminates,
    exit_atom_subspace,
    hoare_check,
    kleene_always,
    limit_states,
    maximal_extension,
    maximal_invariant,
    oracle_bfs,
    partial_correctness_subspace,
    reachability_superop,
    replay_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
