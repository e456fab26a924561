"""Exact combinatorics of unipotent symbol correspondences for dual pairs."""

from .symbols import (
    BOT,
    TOP,
    Bipartition,
    SpecialSymbol,
    Symbol,
    enumerate_special,
    enumerate_symbols,
    parse,
    render,
    special_closure,
)
from .relations import (
    RelationSet,
    CorePair,
    b_natural,
    cores,
    in_B,
    in_D,
    interlace_oracle,
    moveback_chain,
    moveback_normalize,
    moveback_step,
    prec,
    relation_set,
)
from .cells import Arrangement, Cell, arrangements, cell, separating_pair, singleton_intersection
from .derivative import DerivativeChain, DerivativeStep, derive_full, derive_once, scan_first, transport
from .uniform import pairing, r_vector, verify_thm0310
from .branching import (
    ThetaMap,
    cuspidal_symbol,
    omega_minus,
    omega_plus,
    theta_cuspidal,
    theta_general,
    theta_set,
    theta_star,
    witness_partner,
)
from .tables import CorrespondenceTable, correspondence, render_table
from .suites import SUITES, run_suite

__version__ = "0.1.0"
