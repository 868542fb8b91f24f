"""Detectability and opacity verification for labeled Petri nets."""

__version__ = "0.1.0"

from .net import (  # noqa: F401
    EPSILON,
    FiringError,
    InputError,
    LabeledPetriNet,
    NetError,
    enabled,
    fire,
    fire_sequence,
    leq,
    make_net,
    observation,
)
from .twin import TwinNet, build_twin, mismatch, project  # noqa: F401
from .explore import (  # noqa: F401
    Budget,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    OMEGA,
    Verdict,
    Witness,
    build_km_tree,
    build_reachability_graph,
    coverable,
    estimate,
    search_pattern,
)
from .analyze import (  # noqa: F401
    AssumptionError,
    AssumptionReport,
    Observer,
    build_observer,
    check_assumptions,
    check_opacity,
    check_strong,
    check_strong_oracle,
    check_weak,
)
from .gadgets import (  # noqa: F401
    GadgetOutput,
    coverability_to_strong,
    inclusion_to_weak,
    secret_marking,
    selfloop_unobservable,
)
