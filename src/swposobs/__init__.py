"""Interval reduced-order observers for uncertain switched positive systems.

Construct, certify, and simulate pairs of reduced-order observers that
bracket the unmeasured states of a switched positive linear plant whose
matrices and initial state are only known up to elementwise intervals.
"""

from .certify import Certificate, check_lambda, find_lambda
from .matcore import (
    DEFAULT_TOL,
    PartitionedBlocks,
    expm,
    is_metzler,
    is_nonneg,
    metzler_is_hurwitz,
    nonneg_is_schur,
    partition,
)
from .sim import (
    BracketReport,
    SimulationTrace,
    SwitchingSignal,
    TrueSystem,
    export_csv,
    make_switching_signal,
    sample_truth,
    simulate_continuous,
    simulate_discrete,
    validate_truth,
    verify_bracket,
)
from .synth import (
    CONTINUOUS,
    DISCRETE,
    ConditionReport,
    DesignError,
    GainSearchError,
    IntervalSystem,
    ObserverRealization,
    build_observer,
    check_conditions,
    search_gain,
    tight_omega,
)

__version__ = "0.1.0"

__all__ = [
    "BracketReport",
    "CONTINUOUS",
    "Certificate",
    "ConditionReport",
    "DEFAULT_TOL",
    "DISCRETE",
    "DesignError",
    "GainSearchError",
    "IntervalSystem",
    "ObserverRealization",
    "PartitionedBlocks",
    "SimulationTrace",
    "SwitchingSignal",
    "TrueSystem",
    "build_observer",
    "check_conditions",
    "check_lambda",
    "expm",
    "export_csv",
    "find_lambda",
    "is_metzler",
    "is_nonneg",
    "make_switching_signal",
    "metzler_is_hurwitz",
    "nonneg_is_schur",
    "partition",
    "sample_truth",
    "search_gain",
    "simulate_continuous",
    "simulate_discrete",
    "tight_omega",
    "validate_truth",
    "verify_bracket",
]
