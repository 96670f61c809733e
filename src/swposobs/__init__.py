"""Interval reduced-order observers for uncertain switched positive systems.

Construct, certify, and simulate pairs of reduced-order observers that
bracket the unmeasured states of a switched positive linear plant whose
matrices and initial state are only known up to elementwise intervals.
"""

from .certify import Certificate, find_lambda
from .matcore import DEFAULT_TOL
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
    "SimulationTrace",
    "SwitchingSignal",
    "TrueSystem",
    "build_observer",
    "check_conditions",
    "export_csv",
    "find_lambda",
    "make_switching_signal",
    "sample_truth",
    "search_gain",
    "simulate_continuous",
    "simulate_discrete",
    "validate_truth",
    "verify_bracket",
]
