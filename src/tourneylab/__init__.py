"""tourneylab: tournament Hamiltonicity under random vertex sampling.

Generators for the extremal families, exact and Monte Carlo estimation of
P[T[S] Hamiltonian] under p-biased subsets, and the structural toolkit
(almost-directed cuts, good partitions, connectors, B->A matchings).
"""

__version__ = "0.1.0"

from .core import (SemidegreeProfile, Tournament, VertexSubset, edge_count,
                   format_trn1, induced, parse_trn1, read_trn1, semidegrees,
                   validate, write_trn1)
from .generators import (ExtremalSpec, extremal_main, extremal_main_blocks,
                         extremal_theorem1_even, extremal_theorem1_odd,
                         near_regular_tournament, random_tournament,
                         rotational_tournament, transitive_tournament)
from .hamilton import (HamiltonCertificate, SccDecomposition,
                       brute_force_hamiltonian, check_certificate,
                       hamilton_cycle, hamiltonian_batch,
                       hamiltonian_on_subset, is_hamiltonian,
                       is_valid_certificate, scc, strongly_connected)
from .sampling import (BoundSpec, EstimateReport, SamplePlan,
                       estimate_hamiltonian_probability, estimate_sweep,
                       exact_hamiltonian_probability, sample_subset,
                       theoretical_bound, trial_subset,
                       uniform_subset_probability, wilson_interval)
from .structure import (BadEventFlags, CutResult, GoodnessReport,
                        MatchingCover, Partition, RefineResult, bad_events,
                        balanced_cut_search, clean_to_good_partition,
                        default_connector_k, evaluate_goodness,
                        hamiltonicity_from_no_bad_events, k_connectors,
                        low_indegree_census, max_BA_matching,
                        refine_partition, removal_sets)

__all__ = [
    "__version__",
    "Tournament", "VertexSubset", "SemidegreeProfile",
    "validate", "induced", "semidegrees", "edge_count",
    "parse_trn1", "format_trn1", "read_trn1", "write_trn1",
    "HamiltonCertificate", "SccDecomposition", "scc", "is_hamiltonian",
    "strongly_connected", "hamilton_cycle", "brute_force_hamiltonian",
    "check_certificate", "is_valid_certificate", "hamiltonian_batch",
    "hamiltonian_on_subset",
    "ExtremalSpec", "rotational_tournament", "near_regular_tournament",
    "transitive_tournament", "random_tournament", "extremal_theorem1_even",
    "extremal_theorem1_odd", "extremal_main", "extremal_main_blocks",
    "SamplePlan", "EstimateReport", "BoundSpec", "sample_subset",
    "trial_subset", "estimate_hamiltonian_probability", "estimate_sweep",
    "exact_hamiltonian_probability", "uniform_subset_probability",
    "theoretical_bound", "wilson_interval",
    "Partition", "GoodnessReport", "CutResult", "MatchingCover",
    "BadEventFlags", "RefineResult", "balanced_cut_search",
    "clean_to_good_partition", "evaluate_goodness", "refine_partition",
    "k_connectors", "max_BA_matching", "bad_events",
    "hamiltonicity_from_no_bad_events", "low_indegree_census",
    "removal_sets", "default_connector_k",
]
