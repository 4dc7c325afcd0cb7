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
    energy,
    flatness_residual,
    from_monodromy,
    gauge_transform,
    gauge_transform_metric,
    invariant_subbundles,
    loop_holonomy,
    plaquette_holonomies,
    psi_centered,
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
    bochner_residual,
    degree,
    donaldson_distance,
    identity_residuals,
    polystable_split,
    stability_report,
    theta_apply,
    theta_apply_pair,
)
from .hodge import (
    HiggsData,
    complex_split,
    flat_from_higgs,
    higgs_degree_stability,
    higgs_from_harmonic,
    higgs_from_parts,
    hitchin_residuals,
    parallel_section_residual,
)
from .oracle import (
    CircleRankOneSolution,
    brute_force_tension,
    circle_harmonic_exact,
    circle_rank1_degree,
    rectangle_harmonic_exact,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .cli import run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
