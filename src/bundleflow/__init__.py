"""Metric heat flow on flat complex vector bundles over structured lattices."""

from .mesh import LatticeDomain, build_domain, integrate, laplacian, sublevel_domain, sublevel_mask
from .bundle import (
    FlatConnection,
    LoopSpec,
    SplitMetric,
    SubBundleSpec,
    centered_components,
    codifferential,
    connection_from_transports,
    covariant_d,
    from_monodromy,
    invariant_subbundles,
    loop_holonomy,
    plaquette_holonomies,
    split_metric,
    tension,
)
from .flow import (
    ExhaustionMonitor,
    FlowState,
    RunReport,
    SolveOptions,
    exhaustion_solve,
    solve_harmonic,
    solve_poisson,
)
from .analysis import (
    StabilityReport,
    alpha1_period,
    axis_loop,
    degree,
    donaldson_distance,
    identity_residuals,
    stability_report,
    theta_apply,
)
from .hodge import (
    HiggsData,
    complex_split,
    flat_from_higgs,
    higgs_degree_stability,
    higgs_from_harmonic,
    hitchin_residuals,
    parallel_section_residual,
)
from .oracle import (
    brute_force_tension,
    circle_harmonic_exact,
    rectangle_harmonic_exact,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .cli import run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
