"""Desk-scale laboratory for contrastive representation learning on finite
positive-pair graphs: exact graph spectra, constrained loss minimization,
linear-probe evaluation, and scripted guarantee checks.
"""

__version__ = "0.1.0"

from .errors import PairLabError
from .posgraph import (
    Partition,
    PositivePairGraph,
    build_graph,
    connected_components,
    cross_cluster_mass,
    from_augmentation_process,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    partition_from_labels,
    restrict,
    save_graph,
)
from .spectral import (
    INFINITE,
    SpectralDecomposition,
    eigendecompose,
    expansion_Q,
    is_eigenfunction,
    laplacian_apply,
    min_expansion_over_class,
    pair_discrepancy,
)
from .synthdata import (
    LabeledGraph,
    example1_graph,
    example2_labels,
    example3_graph,
    example4_graph,
    random_graph,
    two_level_graph,
)
from .funclass import (
    CLASS_TAGS,
    FunctionClassSpec,
    RepresentationModel,
    forward,
    grad_params,
    lipschitz_constant,
    load_model,
    save_model,
    spec_for_graph,
)
from .objective import (
    TrainConfig,
    linear_min_oracle,
    loss_gradient,
    population_loss,
    tabular_min_oracle,
    train,
    train_grid,
    whiten,
)
from .probe import (
    AssumptionReport,
    EigenspaceReport,
    ProbeResult,
    fit_linear_head,
    measure_assumptions,
    measure_eigenspace_quantities,
    probe_error,
    theorem31_bound,
    theorem42_bound,
    theorem56_bound,
)
from .septest import (
    DEFAULT_LAMBDA_GRID,
    SeparabilityReport,
    br_oracle_tabular,
    br_table,
    estimate_br,
)

__all__ = [name for name in dir() if not name.startswith("_")]
