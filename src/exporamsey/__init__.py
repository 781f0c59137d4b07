"""exporamsey: a workbench for exponential Ramsey-type structures.

Exact power-form arithmetic, finite-sum/product and exponential-tower
generators, exponential-triple hypergraphs with k-colorability search and
DIMACS export, windowed IP/IP* probes, and greedy oracle-driven
constructions, all behind one CLI.
"""

from .config import Caps, DEFAULT_CAPS
from .errors import (
    CapacityError,
    DomainError,
    OracleRangeError,
    RuleEvaluationError,
    RuleSyntaxError,
    WorkbenchError,
)
from .tower import (
    EQ,
    GT,
    LT,
    PowerForm,
    compare,
    evaluate,
    is_perfect_power,
    normalize,
    power,
    try_evaluate,
)
from .structures import FeLevel, fe1, fe2, fp, fs, pow_image_base, pow_image_exp
from .triples import (
    ExpTriple,
    TripleHypergraph,
    enumerate_triples,
    exp_closure,
    sub_hypergraph,
    triples_within,
)
from .coloring import (
    ColorRule,
    Coloring,
    check_coloring,
    count_mono_triples,
    export_dimacs,
    parse_rule,
    solve_colorability,
)
from .ipsets import (
    IpStarVerdict,
    SeedSearchResult,
    SetSpec,
    WindowSet,
    find_fp_seed,
    find_fs_seed,
    find_geometric_progressions,
    find_power_progressions,
    is_ip_star_window,
    parse_set_spec,
    transform,
    window_set,
)
from .greedy import (
    FeCertificate,
    FecorReport,
    GreedyFailure,
    GreedyState,
    SearchOutcome,
    greedy_fe1,
    greedy_fe2,
    search_fegen1,
    search_fegen2,
    verify_fe_certificate,
    verify_fecor,
)

__version__ = "0.1.0"
