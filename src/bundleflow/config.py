"""Run configuration: a YAML file with nested blocks, validated into dataclasses.

Monodromy matrices are written as nested arrays of ``[re, im]`` pairs in
row-major order. The reference-metric block selects identity, a smooth
diagonal profile, a seeded smooth random metric, or a checkpoint file. A key
that no block reads is refused, so a misspelt or retired field cannot fall
back to its default unnoticed.

``load_config`` parses with PyYAML's libyaml loader (``yaml.CSafeLoader``)
where PyYAML has it, else with the pure-Python ``yaml.SafeLoader``; both read
the YAML 1.1 safe schema to the same dict. PyYAML is imported there, on the
first config read, so ``import bundleflow`` does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import linalg as la
from .bundle import FlatConnection, from_monodromy
from .checkpoint import load_checkpoint
from .flow import SolveOptions
from .mesh import LatticeDomain, build_domain

SCENARIOS = (
    "solve_harmonic",
    "solve_poisson",
    "exhaustion",
    "stability",
    "higgs_roundtrip",
)

# ``smooth_random_metric`` draws Fourier modes 0..SMOOTH_MODES along each axis.
SMOOTH_MODES = 2


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending field."""


@dataclass
class DomainConfig:
    kind: str
    sites: tuple[int, ...]
    lengths: tuple[float, ...]


@dataclass
class BundleConfig:
    rank: int
    monodromy: list[np.ndarray] = field(default_factory=list)


@dataclass
class MetricConfig:
    kind: str = "identity"            # identity | diagonal | random_smooth | checkpoint
    amplitudes: list[float] | None = None
    modes: list[int] | None = None
    amplitude: float = 0.3
    path: str | None = None


@dataclass
class OutputConfig:
    directory: str = "out"
    csv_cadence: int = 1
    checkpoint_cadence: int = 0


@dataclass
class ExhaustionConfig:
    levels: list[float] = field(default_factory=list)


@dataclass
class RunConfig:
    scenario: str
    domain: DomainConfig
    bundle: BundleConfig
    reference_metric: MetricConfig
    solver: SolveOptions
    output: OutputConfig
    exhaustion: ExhaustionConfig


# The dataclass each block fills, and under "" the top level's: a block accepts its fields.
_BLOCKS = {"": RunConfig, **get_type_hints(RunConfig)}


def _need(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where + '.' if where else ''}{key}: missing field")
    return block[key]


def _known(block: dict, where: str) -> None:
    """Refuse the first key of ``block`` that is no field of its dataclass, ``_BLOCKS[where]``."""
    names = tuple(f.name for f in fields(_BLOCKS[where]))
    for key in block:
        if key not in names:
            raise ConfigError(f"{where + '.' if where else ''}{key}: unknown field")


def _block(raw: dict, key: str, default: dict | None = None) -> dict:
    """The mapping under ``key``, or ``default`` when an optional block is absent."""
    if key not in raw and default is not None:
        return default
    block = _need(raw, key, "")
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected a mapping, got {block!r}")
    _known(block, key)
    return block


def _number(kind, value, where: str):
    """``kind(value)`` for int or float, with a malformed value as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}") from exc


def _numbers(kind, value, where: str) -> list:
    """A number or a flat list of numbers, each through ``_number``."""
    return [_number(kind, v, where) for v in (value if isinstance(value, list) else [value])]


def _default(block: dict, defaults, key: str):
    """``block[key]``, or the field's default in the dataclass instance ``defaults``."""
    return block.get(key, getattr(defaults, key))


def _typed(value, kind: type, where: str, optional: bool = False):
    """``value`` when it is a ``kind`` (or None, if ``optional``), else a ConfigError."""
    if isinstance(value, kind) or (optional and value is None):
        return value
    raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")


def _parse_matrix(entry, rank: int, where: str) -> np.ndarray:
    try:
        arr = np.asarray(entry, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: entries must be numbers: {exc}") from exc
    if arr.shape != (rank, rank, 2):
        raise ConfigError(
            f"{where}: expected a {rank}x{rank} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def load_config(path) -> RunConfig:
    import yaml  # only a config file needs it: ``import bundleflow`` stays without it

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)   # libyaml, where PyYAML has it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse as YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    _known(raw, "")
    scenario = _need(raw, "scenario", "")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}")

    dom_block = _block(raw, "domain")
    kind = _typed(_need(dom_block, "kind", "domain"), str, "domain.kind")
    domain = DomainConfig(
        kind=kind,
        sites=tuple(_numbers(int, _need(dom_block, "sites", "domain"), "domain.sites")),
        lengths=tuple(_numbers(float, _need(dom_block, "lengths", "domain"), "domain.lengths")),
    )

    bun_block = _block(raw, "bundle")
    rank = _number(int, _need(bun_block, "rank", "bundle"), "bundle.rank")
    if rank < 1:
        raise ConfigError(f"bundle.rank: must be 1 or more, got {rank}")
    # The generator count per domain kind is checked by ``make_connection``.
    mono_raw = _typed(bun_block.get("monodromy", []), list, "bundle.monodromy")
    monodromy = [
        _parse_matrix(m, rank, f"bundle.monodromy[{i}]") for i, m in enumerate(mono_raw)
    ]
    bundle_cfg = BundleConfig(rank=rank, monodromy=monodromy)

    met_block = _block(raw, "reference_metric", {})
    met_defaults = MetricConfig()
    met_kind = _default(met_block, met_defaults, "kind")
    if met_kind not in ("identity", "diagonal", "random_smooth", "checkpoint"):
        raise ConfigError(f"reference_metric.kind: unknown kind {met_kind!r}")
    amps, modes = met_block.get("amplitudes"), met_block.get("modes")
    metric_cfg = MetricConfig(
        kind=met_kind,
        amplitudes=None if amps is None else _numbers(float, amps, "reference_metric.amplitudes"),
        modes=None if modes is None else _numbers(int, modes, "reference_metric.modes"),
        amplitude=_number(float, _default(met_block, met_defaults, "amplitude"),
                          "reference_metric.amplitude"),
        path=_typed(_default(met_block, met_defaults, "path"), str, "reference_metric.path",
                    optional=True),
    )
    if met_kind == "checkpoint" and not metric_cfg.path:
        raise ConfigError("reference_metric.path: required for checkpoint metrics")

    sol_block = _block(raw, "solver", {})
    defaults = SolveOptions()

    def sol_num(kind, key):
        return _number(kind, _default(sol_block, defaults, key), f"solver.{key}")

    solver = SolveOptions(
        tolerance=sol_num(float, "tolerance"),
        max_steps=sol_num(int, "max_steps"),
        dt_growth_every=sol_num(int, "dt_growth_every"),
        divergence_threshold=sol_num(float, "divergence_threshold"),
    )
    try:
        solver.validate()
    except ValueError as exc:   # each message starts with the name of its field
        raise ConfigError(f"solver.{exc}") from exc

    out_block = _block(raw, "output", {})
    out_defaults = OutputConfig()
    output = OutputConfig(
        directory=_typed(_default(out_block, out_defaults, "directory"), str, "output.directory"))
    for key, least in (("csv_cadence", 1), ("checkpoint_cadence", 0)):
        value = _number(int, _default(out_block, out_defaults, key), f"output.{key}")
        if value < least:
            raise ConfigError(f"output.{key}: must be {least} or more, got {value}")
        setattr(output, key, value)

    exh_block = _block(raw, "exhaustion", {})
    levels = _typed(exh_block.get("levels", []), list, "exhaustion.levels")
    exhaustion = ExhaustionConfig(levels=_numbers(float, levels, "exhaustion.levels"))
    if scenario == "exhaustion" and not exhaustion.levels:
        raise ConfigError("exhaustion.levels: required for the exhaustion scenario")

    return RunConfig(
        scenario=scenario,
        domain=domain,
        bundle=bundle_cfg,
        reference_metric=metric_cfg,
        solver=solver,
        output=output,
        exhaustion=exhaustion,
    )


def make_domain(cfg: RunConfig) -> LatticeDomain:
    try:
        return build_domain(cfg.domain.kind, cfg.domain.sites, cfg.domain.lengths)
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc


def make_connection(cfg: RunConfig, domain: LatticeDomain) -> FlatConnection:
    try:
        return from_monodromy(domain, cfg.bundle.monodromy, rank=cfg.bundle.rank)
    except ValueError as exc:
        raise ConfigError(f"bundle.monodromy: {exc}") from exc


def make_reference_metric(
    cfg: RunConfig, domain: LatticeDomain, seed: int | None = None
) -> np.ndarray:
    """The configured reference metric; a field that is not finite is a config error.

    A large amplitude overflows ``exp``. That is refused here, without numpy's
    overflow warnings, so the run stops before it makes its output directory.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        metric = _reference_metric(cfg, domain, seed)
    if not np.all(np.isfinite(metric)):
        raise ConfigError("reference_metric: the metric field is not finite")
    return metric


def _reference_metric(cfg: RunConfig, domain: LatticeDomain, seed: int | None) -> np.ndarray:
    r = cfg.bundle.rank
    mc = cfg.reference_metric
    n = domain.n_sites
    if mc.kind == "identity":
        return np.broadcast_to(np.eye(r, dtype=complex), (n, r, r)).copy()
    if mc.kind == "diagonal":
        amps = mc.amplitudes if mc.amplitudes is not None else [mc.amplitude] * r
        modes = mc.modes if mc.modes is not None else [1] * r
        if len(amps) != r or len(modes) != r:
            raise ConfigError("reference_metric: need one amplitude and mode per diagonal entry")
        x = domain.coords()
        out = np.zeros((n, r, r), dtype=complex)
        for j in range(r):
            out[:, j, j] = np.exp(amps[j] * np.cos(2.0 * np.pi * modes[j] * x[:, 0]
                                                   / domain.lengths[0]) * (
                np.cos(2.0 * np.pi * modes[j] * x[:, 1] / domain.lengths[1])
                if domain.dim == 2 else 1.0))
        return out
    if mc.kind == "random_smooth":
        return smooth_random_metric(domain, r, seed if seed is not None else 0, mc.amplitude)
    if mc.kind == "checkpoint":
        try:
            ck = load_checkpoint(mc.path)
        except ValueError as exc:
            raise ConfigError(f"reference_metric.path: {exc}") from exc
        if ck.rank != r or ck.sites != n:
            raise ConfigError("reference_metric: checkpoint rank/sites do not match the domain")
        return ck.metric
    raise ConfigError(f"reference_metric.kind: unknown kind {mc.kind!r}")


def smooth_random_metric(
    domain: LatticeDomain, rank: int, seed: int, amplitude: float = 0.3
) -> np.ndarray:
    """exp of a seeded Hermitian field of Fourier modes 0..SMOOTH_MODES; resolution-consistent.

    Coefficients are drawn once from the seed, independent of the grid size,
    so the same seed samples the same smooth field at every resolution. On
    bounded axes the profiles use half-period cosines, keeping them smooth up
    to the boundary.
    """
    rng = np.random.default_rng(seed)
    x = domain.coords()
    n = domain.n_sites
    a_field = np.zeros((n, rank, rank), dtype=complex)
    for b in la.hermitian_basis(rank):
        for kx in range(SMOOTH_MODES + 1):
            wave = np.ones(n)
            for a in range(domain.dim):
                t = x[:, a] / domain.lengths[a]
                if domain.periodic[a]:
                    c, s = rng.normal(size=2)
                    wave = wave * (c * np.cos(2 * np.pi * kx * t) + s * np.sin(2 * np.pi * kx * t))
                else:
                    c = rng.normal()
                    wave = wave * (c * np.cos(np.pi * kx * t))
            a_field += wave[:, None, None] * b
    norm = max(float(np.max(np.abs(a_field))), 1e-12)
    a_field *= amplitude / norm
    w, v = np.linalg.eigh(la.hermitize(a_field))
    return la.hermitize((v * np.exp(w)[..., None, :]) @ la.dagger(v))
