"""Well-spread random (D+1)-colorings of bounded-degree graphs.

The pipeline regularizes the graph, splits it into sparse vertices and
near-clique clusters, colors the sparse part through a conditioned
random labeling plus slack greedy, and matches each cluster to its
legal colors.  Exact oracles (enumeration, rational containment
probabilities, hypergraph cost) and Monte Carlo auditors quantify how
spread the resulting distributions are.
"""
from .audit import (
    ExplicitDistribution,
    SpreadReport,
    SpreadValue,
    check_composition,
    estimate_containment,
    exact_spread,
    spread_report,
    wilson_interval,
)
from .clusters import (
    ClusterContext,
    Pipeline,
    PipelineResult,
    build_cluster_context,
    color_cluster,
    color_graph_spread,
    process_pair_coloring,
)
from .decompose import Decomposition, sparse_dense_decompose, verify_decomposition
from .errors import (
    CapExceeded,
    EmptyChoiceSet,
    HypothesisViolated,
    MaxTriesExceeded,
    NegativeR,
    NoKeptSamples,
    SpreadColorError,
    StuckVertex,
    VerificationFailed,
)
from .graphs import (
    Graph,
    gen_random_regular,
    neighborhood_complement_edges,
    regularize,
)
from .greedy import (
    build_counterexample,
    enumerate_colorings,
    exact_containment_uniform,
    random_greedy_exact_probability,
    random_greedy_sample,
    slack_greedy_sample,
)
from .matching import (
    Bigraph,
    Matching,
    kout_subgraph,
    perfect_matching,
    spread_matching_dense,
    spread_X_perfect_matching,
)
from .params import Params
from .sparse_phase import (
    LabelingStats,
    label_statistics,
    sample_conditioned_labeling,
    sparse_phase_color,
)
from .thresholds import (
    Hypergraph,
    SparsificationCurve,
    cost_bruteforce,
    decide_list_colorable,
    expense,
    sparsification_scan,
)

__version__ = "0.1.0"
