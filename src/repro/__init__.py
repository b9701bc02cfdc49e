"""repro — Node-differentially private estimation of connected components.

A full reproduction of *"Node-Differentially Private Estimation of the
Number of Connected Components"* (Kalemaj, Raskhodnikova, Smith,
Tsourakakis; PODS 2023).

Quickstart
----------
Private release on a small object graph:

>>> import numpy as np
>>> from repro import PrivateConnectedComponents
>>> from repro.graphs.generators import planted_components
>>> rng = np.random.default_rng(0)
>>> graph = planted_components([30] * 5, internal_p=0.2, rng=rng)
>>> estimator = PrivateConnectedComponents(epsilon=1.0)
>>> release = estimator.release(graph, rng)
>>> release.true_value
5

The fast path for large graphs: :class:`CompactGraph` stores the
adjacency in numpy CSR arrays, the ``*_compact`` generators sample it
directly, and the statistics (``f_cc``, ``f_sf``, spanning forests,
star numbers) route to vectorized array kernels automatically:

>>> from repro import CompactGraph, f_cc
>>> from repro.graphs.generators import erdos_renyi_compact
>>> big = erdos_renyi_compact(100_000, 2e-5, rng)   # ~50 ms
>>> f_cc(big) == big.number_of_connected_components()
True

Batched experiments: describe each ``(graph, epsilon, seed)`` cell with
a :class:`TrialConfig` and run them all in one call (optionally across
a process pool) with :func:`run_trial_batch`:

>>> from repro import TrialConfig, run_trial_batch
>>> def factory(cfg):
...     return PrivateConnectedComponents(epsilon=cfg.epsilon)
>>> configs = [TrialConfig(graph, epsilon=e, seed=0, n_trials=5)
...            for e in (0.5, 1.0)]
>>> [round(r.summary.true_value) for r in run_trial_batch(factory, configs)]
[5, 5]

Public surface: the :class:`Graph` substrate, the :class:`CompactGraph`
array kernel and statistics (``repro.graphs``), the
Lipschitz-extension family and Algorithm 1 (``repro.core``), DP
mechanisms (``repro.mechanisms``), the flow/LP machinery
(``repro.flow``, ``repro.lp``), and the experiment harness with the
batched trial engine (``repro.analysis``).
"""

from .graphs import (
    Graph,
    CompactGraph,
    as_compact,
    as_object_graph,
    connected_components,
    number_of_connected_components,
    spanning_forest_size,
    f_cc,
    f_sf,
    spanning_forest,
    spanning_forest_with_max_degree,
    star_number,
    read_edge_list,
    write_edge_list,
)

# Bumped whenever cell semantics change or any bit of an f_Δ value can
# move: it is the only code coordinate of the sweep result store's keys
# and of the extension caches' keys, so stored sweeps and tables are
# never silently reused across releases that sample or compute
# differently (1.2.0: geometric/planted cells now draw from the compact
# samplers; 1.4.0: the warm-started cutting plane and the seed-master
# certificate of repro.lp.forest_core; 1.5.0: spanning-tree certificates
# settle f_Δ = n − 1 before the LP, and f_1 is a double-cover matching;
# 1.6.0: the cutting plane runs to its certificate, with no stall exit,
# half-integral snap or seed-master certificate; 1.7.0: a Hamiltonian
# path settles f_2 = n − 1 before the LP).
__version__ = "1.7.0"

from .core import (
    extension_for,
    evaluate_lipschitz_extension,
    PrivateSpanningForestSize,
    PrivateConnectedComponents,
    SpanningForestRelease,
    ConnectedComponentsRelease,
    down_sensitivity_spanning_forest,
    theorem_1_3_bound,
    EdgeDPConnectedComponents,
    NaiveNodeDPConnectedComponents,
    NonPrivateBaseline,
)
from .mechanisms import (
    LaplaceMechanism,
    exponential_mechanism,
    generalized_exponential_mechanism,
    PrivacyAccountant,
)

# Imported after __version__ is bound: repro.analysis.report reads it.
from .analysis import (
    TrialConfig,
    BatchTrialResult,
    run_trial_batch,
)

# The sweep orchestration layer (also after __version__: result-store
# cache keys fold the library version in).
from .experiments import (
    SweepSpec,
    ResultStore,
    SweepResult,
    load_sweep_spec,
    run_sweep,
    report_from_store,
)

# The unified estimator registry and the amortized serving layer.
from .estimators import (
    Release,
    create_estimator,
    estimator_names,
)
from .service import ReleaseSession, serve_jsonl

__all__ = [
    "Graph",
    "CompactGraph",
    "as_compact",
    "as_object_graph",
    "TrialConfig",
    "BatchTrialResult",
    "run_trial_batch",
    "SweepSpec",
    "ResultStore",
    "SweepResult",
    "load_sweep_spec",
    "run_sweep",
    "report_from_store",
    "connected_components",
    "number_of_connected_components",
    "spanning_forest_size",
    "f_cc",
    "f_sf",
    "spanning_forest",
    "spanning_forest_with_max_degree",
    "star_number",
    "read_edge_list",
    "write_edge_list",
    "extension_for",
    "evaluate_lipschitz_extension",
    "PrivateSpanningForestSize",
    "PrivateConnectedComponents",
    "SpanningForestRelease",
    "ConnectedComponentsRelease",
    "down_sensitivity_spanning_forest",
    "theorem_1_3_bound",
    "EdgeDPConnectedComponents",
    "NaiveNodeDPConnectedComponents",
    "NonPrivateBaseline",
    "LaplaceMechanism",
    "exponential_mechanism",
    "generalized_exponential_mechanism",
    "PrivacyAccountant",
    "Release",
    "create_estimator",
    "estimator_names",
    "ReleaseSession",
    "serve_jsonl",
    "__version__",
]
