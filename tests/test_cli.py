import copy
import gc
import io
import os
import re
import subprocess
import sys
import textwrap
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import bundle, cli, flow, hodge
from bundleflow import linalg as la
from bundleflow.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from bundleflow.cli import main, run_scenario
from bundleflow.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    load_config,
    make_connection,
    make_domain,
    make_reference_metric,
)
from bundleflow.flow import SolveOptions

from util import loaders_agree, write_yaml

GEN2 = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
JORDAN = [[[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]


def write_config(path, **overrides):
    cfg = {
        "scenario": "solve_harmonic",
        "domain": {"kind": "circle", "sites": [24], "lengths": [1.0]},
        "bundle": {"rank": 2, "monodromy": [GEN2]},
        "reference_metric": {"kind": "identity"},
        "solver": {"tolerance": 1e-8},
        "output": {"directory": "out"},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    return write_yaml(path, cfg)


def test_harmonic_scenario_converges(tmp_path):
    cfg = write_config(tmp_path / "run.yaml")
    out = tmp_path / "o"
    assert run_scenario(cfg, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "converged" in report
    assert "trace: trial steps" in report
    assert (out / "run.csv").exists()
    assert (out / "final.ckpt").exists()


def test_jordan_scenario_diverges(tmp_path):
    cfg = write_config(
        tmp_path / "run.yaml",
        bundle={"rank": 2, "monodromy": JORDAN},
        solver={"tolerance": 1e-30, "divergence_threshold": 18.0, "max_steps": 20000},
    )
    out = tmp_path / "o"
    assert run_scenario(cfg, out_dir=out) == 2
    assert "diverged" in (out / "report.txt").read_text()


def test_jordan_runaway_resumes_bit_exactly(tmp_path):
    # Below the implicit floor the Jordan circle keeps the heat flow, and dt
    # doubles from about step 157 to 193. A run resumed from its step-175
    # checkpoint, inside that stretch, ends on the unsplit run's bytes.
    cfg = write_config(
        tmp_path / "run.yaml",
        domain={"kind": "circle", "sites": [16], "lengths": [1.0]},
        bundle={"rank": 2, "monodromy": JORDAN},
        solver={"tolerance": 1e-30, "divergence_threshold": 18.0, "dt_growth_every": 5},
        output={"directory": "out", "checkpoint_cadence": 25},
    )
    full, part = tmp_path / "full", tmp_path / "part"
    assert run_scenario(cfg, out_dir=full) == 2
    mid = full / "step00000175.ckpt"
    assert mid.exists() and load_checkpoint(mid).latch
    assert run_scenario(cfg, out_dir=part, resume_path=mid) == 2
    assert (full / "final.ckpt").read_bytes() == (part / "final.ckpt").read_bytes()
    for out in (full, part):
        report = (out / "report.txt").read_text()
        assert "verdict: diverged" in report and "note: dt doubled on " in report
    trace = next(ln for ln in report.splitlines() if ln.startswith("trace: "))
    assert re.search(r" \(explicit step\), .*, CG iterations 0 \(max 0 in a trial\), .*"
                     r"; BLAS threads (\d+|unknown); seconds: ", trace)


def test_closed_latch_survives_a_resume(tmp_path):
    # A converging heat-flow run whose threshold (0.4) puts the runaway gate
    # below its sup|log h|: dt doubles until the first rejection closes the
    # latch. Resumed from step 300 with the latch closed, the run ends on the
    # unsplit run's bytes; a latch reopened on resume would double dt again.
    cfg = write_config(
        tmp_path / "run.yaml",
        domain={"kind": "circle", "sites": [5], "lengths": [1.0]},
        reference_metric={"kind": "random_smooth", "amplitude": 0.25},
        solver={"tolerance": 8e-14, "divergence_threshold": 0.4},
        output={"directory": "out", "checkpoint_cadence": 300},
    )
    full, part = tmp_path / "full", tmp_path / "part"
    assert run_scenario(cfg, out_dir=full, seed=3) == 0
    mid = full / "step00000300.ckpt"
    assert mid.exists() and not load_checkpoint(mid).latch
    assert "note: dt doubled on " in (full / "report.txt").read_text()
    assert run_scenario(cfg, out_dir=part, seed=3, resume_path=mid) == 0
    assert (full / "final.ckpt").read_bytes() == (part / "final.ckpt").read_bytes()


def test_jordan_floor_exits_3(tmp_path):
    # dt grown on every accepted step takes the runaway to its roundoff floor
    # in a few hundred steps instead of thousands. The checkpoint carries
    # sup|log h| before the last accepted step, so a run resumed from the
    # final.ckpt sees the metric still growing and keeps the verdict.
    cfg = write_config(
        tmp_path / "run.yaml",
        domain={"kind": "circle", "sites": [8], "lengths": [1.0]},
        bundle={"rank": 2, "monodromy": JORDAN},
        solver={"tolerance": 1e-30, "dt_growth_every": 1},
    )
    out, again = tmp_path / "o", tmp_path / "again"
    assert main(["--config", str(cfg), "--out", str(out)]) == 3
    assert main(["--config", str(cfg), "--out", str(again),
                 "--resume", str(out / "final.ckpt")]) == 3
    for o in (out, again):
        assert "verdict: precision_floor" in (o / "report.txt").read_text()


def test_resume_from_a_max_steps_final_checkpoint_is_bit_exact(tmp_path):
    # final.ckpt holds the run's state: the next step's dt, the growth count,
    # the streak and the latch. A 300-step explicit Jordan run resumed from
    # its final.ckpt with a 600-step limit ends on the unsplit 600-step run's
    # bytes; a final.ckpt carrying the last step's dt took one step more.
    def config(name, max_steps):
        return write_config(
            tmp_path / name,
            domain={"kind": "circle", "sites": [16], "lengths": [1.0]},
            bundle={"rank": 2, "monodromy": JORDAN},
            solver={"tolerance": 1e-30, "dt_growth_every": 5, "max_steps": max_steps},
        )
    short, long = config("short.yaml", 300), config("long.yaml", 600)
    first, full, part = tmp_path / "first", tmp_path / "full", tmp_path / "part"
    run_scenario(short, out_dir=first)
    assert "verdict: max_steps" in (first / "report.txt").read_text()
    status = run_scenario(long, out_dir=full)
    assert run_scenario(long, out_dir=part, resume_path=first / "final.ckpt") == status
    assert load_checkpoint(full / "final.ckpt").step > 300
    assert (full / "final.ckpt").read_bytes() == (part / "final.ckpt").read_bytes()


# A solve_poisson run on a 5x5 rectangle, whose bundle has no loops to give its rank.
RANKLESS_RECTANGLE = {
    "scenario": "solve_poisson",
    "domain": {"kind": "rectangle", "sites": [5, 5], "lengths": [1.0, 1.0]},
}


@pytest.mark.parametrize("block, fields", [
    ("domain", {"sites": ["abc"]}),
    ("domain", {"lengths": [None]}),
    ("bundle", {"rank": "two"}),
    ("solver", {"tolerance": "small"}),
    ("solver", {"dt_growth_every": [1]}),
    ("solver", {"dt_growth_every": 0}),
    ("domain", 5),
    ("solver", 5),
    ("solver", [1]),
    ("output", 3),
    ("reference_metric", 7),
    ("exhaustion", 2),
    ("domain", {"kind": ["circle"]}),
    ("bundle", {"monodromy": 5}),
    ("exhaustion", {"levels": 3}),
    ("reference_metric", {"kind": "diagonal", "amplitudes": 0.2}),
    ("reference_metric", {"kind": "checkpoint", "path": 0}),
    ("solver", {"det_normalize": "no"}),
    ("solver", {"dt_policy": 3}),
    ("solver", {"boundary": ["dirichlet"]}),
    ("output", {"directory": 5}),
    ("solver", {"tolerence": 1e-8}),
    ("solvers", {"tolerance": 1e-8}),
    ("domain", {"complex": True}),
    ("solver", {"dt": 0}),
    ("solver", {"dt": -1.0}),
    ("solver", {"dt": float("nan")}),
    ("solver", {"tolerance": float("nan")}),
    ("solver", {"tolerance": float("inf")}),
    ("solver", {"divergence_threshold": float("nan")}),
    ("solver", {"max_steps": -5}),
    ("output", {"csv_cadence": -4}),
    ("output", {"csv_cadence": 0}),
    ("output", {"checkpoint_cadence": -1}),
    (None, {"scenario": "stability", "solver": {"tolerance": float("nan"), "max_steps": -5}}),
    (None, RANKLESS_RECTANGLE | {"bundle": {"rank": 0, "monodromy": []}}),
    (None, RANKLESS_RECTANGLE | {"bundle": {"rank": -1, "monodromy": []}}),
    # One generator for the torus's two loops: the count is checked where the
    # connection is built, from the domain kind's periodic axes.
    (None, {"domain": {"kind": "torus", "sites": [6, 6], "lengths": [1.0, 1.0]}}),
    # A non-finite generator entry is refused where the connection is built,
    # before its logarithm is taken.
    (None, {"domain": {"kind": "circle", "sites": [8], "lengths": [1.0]},
            "bundle": {"rank": 2, "monodromy": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("inf"), 0.0]]]]}}),
    (None, {"domain": {"kind": "circle", "sites": [8], "lengths": [1.0]},
            "bundle": {"rank": 2, "monodromy": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]]]}}),
    # A reference metric that overflows exp, or is NaN, is refused at set-up.
    ("reference_metric", {"kind": "diagonal", "amplitude": 800}),
    ("reference_metric", {"kind": "random_smooth", "amplitude": 1e300}),
    ("reference_metric", {"kind": "diagonal", "amplitude": float("nan")}),
])
def test_malformed_value_is_one_error_line(tmp_path, capsys, block, fields):
    # A case without a block gives its overrides of the whole config.
    cfg = write_config(tmp_path / "run.yaml", **({block: fields} if block else fields))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "o").exists()


VALID_BLOCKS = {
    "scenario": "solve_harmonic",
    "domain": {"kind": "circle", "sites": [8], "lengths": [1.0]},
    "bundle": {"rank": 2, "monodromy": [GEN2]},
    "reference_metric": {"kind": "identity"},
    "solver": {"tolerance": 1e-8},
    "output": {"directory": "out"},
    "exhaustion": {"levels": [2.0]},
}
JUNK = st.one_of(st.integers(), st.lists(st.integers(), max_size=3), st.text(max_size=4),
                 st.just(float("nan")), st.none())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(VALID_BLOCKS)), JUNK))
def test_config_blocks_of_any_type_give_a_config_or_a_config_error(junk):
    try:
        cfg = config_from_dict(dict(VALID_BLOCKS, **junk))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


FIELDS = {
    "domain": ("kind", "sites", "lengths"),
    "bundle": ("rank", "monodromy"),
    "reference_metric": ("kind", "amplitudes", "modes", "amplitude", "path"),
    "solver": ("tolerance", "max_steps", "dt_growth_every", "divergence_threshold"),
    "output": ("directory", "csv_cadence", "checkpoint_cadence"),
    "exhaustion": ("levels",),
}
# Fields taken as they are, without conversion: a value of another type is refused.
TYPED_FIELDS = {("domain", "kind"): str, ("reference_metric", "path"): (str, type(None)),
                ("output", "directory"): str}
# Small integers only: a junk site count must not allocate a huge lattice.
SMALL_JUNK = st.one_of(st.integers(-2, 9), st.lists(st.integers(-2, 9), max_size=3),
                       st.text(max_size=4), st.floats(-3.0, 3.0), st.just(float("nan")),
                       st.none(), st.just({"a": 1}), st.just([[1.0, 0.0]]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([(b, k) for b in FIELDS for k in FIELDS[b]]),
                          SMALL_JUNK), min_size=1, max_size=3))
def test_config_values_of_any_type_give_a_set_up_or_a_config_error(junk):
    raw = copy.deepcopy(dict(VALID_BLOCKS, reference_metric={
        "kind": "diagonal", "amplitudes": [0.2, -0.2], "modes": [1, 1]}))
    for (block, key), value in junk:
        raw[block][key] = value
    try:
        cfg = config_from_dict(raw)
        domain = make_domain(cfg)
        make_connection(cfg, domain)
        make_reference_metric(cfg, domain)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for (block, key), kind in TYPED_FIELDS.items():
        if key in raw[block]:
            assert isinstance(raw[block][key], kind), (block, key, raw[block][key])


def _site_checkpoint(path, sites, keep_lines=None):
    rng = np.random.default_rng(0)
    save_checkpoint(path, Checkpoint(rank=2, sites=sites, time=0.0, step=3, dt=0.01, streak=0,
                                     metric=np.broadcast_to(np.eye(2), (sites, 2, 2))
                                     + 0.01 * rng.normal(size=(sites, 2, 2))))
    if keep_lines is not None:
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:keep_lines]) + "\n")
    return path


@pytest.mark.parametrize("keep_lines, message", [
    (10, "checkpoint line 11: the file ends after 9 of 24 site lines"),
    (0, "checkpoint is empty"),
])
def test_malformed_resume_checkpoint_is_one_error_line(tmp_path, capsys, keep_lines, message):
    cfg = write_config(tmp_path / "run.yaml")
    ckpt = _site_checkpoint(tmp_path / "cut.ckpt", 24, keep_lines)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--resume", str(ckpt)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {message}"]


@pytest.mark.parametrize("dt", ["nan", "inf", "-0.5"])
def test_resume_checkpoint_with_a_bad_dt_is_one_error_line(tmp_path, capsys, dt):
    cfg = write_config(tmp_path / "run.yaml")
    ckpt = _site_checkpoint(tmp_path / "edited.ckpt", 24)
    ckpt.write_text(ckpt.read_text().replace(", dt 0.01,", f", dt {dt},", 1))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--resume", str(ckpt)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: checkpoint line 1: time, dt and logh_prev must be finite"), err


@pytest.mark.parametrize("text", ["garbage\n1 2 3\n", "", "rank 2, sites 24, time 0.0\n"])
def test_malformed_reference_checkpoint_is_one_error_line(tmp_path, capsys, text):
    (tmp_path / "ref.ckpt").write_text(text)
    cfg = write_config(tmp_path / "run.yaml", reference_metric={
        "kind": "checkpoint", "path": str(tmp_path / "ref.ckpt")})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: reference_metric.path: "), err


def test_missing_monodromy_is_input_error(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", bundle={"rank": 2, "monodromy": []})
    assert run_scenario(cfg, out_dir=tmp_path / "o") == 1


def test_diagonal_reference_reads_its_amplitude(tmp_path):
    # Without per-entry amplitudes, every diagonal entry is exp(A cos cos)
    # with the block's one amplitude A (0.3 when absent).
    domain = {"kind": "torus", "sites": [6, 6], "lengths": [1.0, 1.0]}
    angle = 2.0 * np.pi * np.arange(6) / 6
    cos_cos = np.outer(np.cos(angle), np.cos(angle)).ravel()
    metrics = {}
    for amplitude in (0.9, None):
        block = {"kind": "diagonal"} if amplitude is None else {"kind": "diagonal",
                                                               "amplitude": amplitude}
        cfg = load_config(write_config(tmp_path / "run.yaml", domain=domain,
                                       bundle={"rank": 2, "monodromy": [GEN2, GEN2]},
                                       reference_metric=block))
        metrics[amplitude] = make_reference_metric(cfg, make_domain(cfg))
    for amplitude, a in ((0.9, 0.9), (None, 0.3)):
        expected = np.exp(a * cos_cos)
        for j in range(2):
            assert np.abs(metrics[amplitude][:, j, j] - expected).max() <= 1e-15 * expected.max()
    assert np.abs(metrics[0.9] - metrics[None]).max() > 0.1


def test_config_validation_names_fields(tmp_path):
    path = write_config(tmp_path / "run.yaml", scenario="warp")
    with pytest.raises(ConfigError, match="scenario"):
        load_config(path)
    path = write_config(tmp_path / "r2.yaml", exhaustion={"levels": []}, scenario="exhaustion")
    with pytest.raises(ConfigError, match="levels"):
        load_config(path)
    # A key no block reads is refused by name: a typo, a retired field, a block.
    for overrides, message in (({"solver": {"tolerence": 1e-8}}, "solver.tolerence"),
                               ({"solver": {"boundary": "none"}}, "solver.boundary"),
                               ({"solver": {"dt": 0.01}}, "solver.dt"),
                               ({"solver": {"dt_policy": "fixed"}}, "solver.dt_policy"),
                               ({"domain": {"complex": True}}, "domain.complex"),
                               ({"solvers": {"tolerance": 1e-8}}, "solvers")):
        path = write_config(tmp_path / "r3.yaml", **overrides)
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}: unknown field$"):
            load_config(path)
    # A missing field is named the same way, top-level fields without a prefix.
    with pytest.raises(ConfigError, match=r"^scenario: missing field$"):
        config_from_dict({"domain": {}})
    with pytest.raises(ConfigError, match=r"^domain\.kind: missing field$"):
        config_from_dict({"scenario": "solve_harmonic", "domain": {}})
    # A rank below one is named by its own field: rank 0 once ran to a
    # converged verdict with a NaN Poisson function, and rank -1 failed in
    # the monodromy parser.
    for rank in (0, -1):
        path = write_config(tmp_path / "r4.yaml", **RANKLESS_RECTANGLE,
                            bundle={"rank": rank, "monodromy": []})
        with pytest.raises(ConfigError, match=rf"^bundle\.rank: must be 1 or more, got {rank}$"):
            load_config(path)


def test_only_load_config_imports_yaml(tmp_path):
    # ``import bundleflow`` does not load the YAML parser; reading a config does.
    code = """
import sys
import bundleflow
from bundleflow.config import load_config
print("yaml" in sys.modules)
load_config(sys.argv[1])
print("yaml" in sys.modules)
"""
    path = write_config(tmp_path / "run.yaml")
    out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), check=True)
    assert out.stdout.split() == ["False", "True"]


ROOT = Path(__file__).resolve().parent.parent


def _ci_configs() -> list[str]:
    """The YAML configs that the CI workflow writes with ``cat > NAME.yaml <<'YAML'``."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    return [textwrap.dedent(body) for body in
            re.findall(r"cat > \S+\.yaml <<'YAML'\n(.*?)\n *YAML\n", workflow, flags=re.S)]


def _benchmark_configs(tmp_path, monkeypatch) -> list[str]:
    """The configs that the benchmark's CLI workloads write at set-up."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    import bundleflow as bf

    texts = []
    for name in ("circle-harmonic", "torus-higgs"):
        work = tmp_path / name
        work.mkdir()
        wl = workloads.WORKLOADS[name]()
        wl.setup(bf, np.random.default_rng(1), work)
        texts.append(wl.config.read_text())
    return texts


def test_configs_parse_alike_under_both_loaders(tmp_path, monkeypatch):
    # ``load_config`` parses with libyaml where PyYAML has it. Every config
    # that the tests write goes through ``write_yaml``, which checks the two
    # loaders agree on it; here the CI's, the README's and the benchmark's
    # do, with YAML 1.1 scalars that the two scanners must read alike.
    ci = _ci_configs()
    assert len(ci) == 4 and all("scenario:" in text for text in ci)
    readme = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    scalars = ["a: [1e-8, 1.0e-8, .5, -.inf, .NaN, 0x1F, 0o17, 017, 1_000, yes, No, ~, "
               "'quoted', 2001-12-14, 1:30]\n"]
    texts = ci + readme + _benchmark_configs(tmp_path, monkeypatch) + scalars
    for text in texts:
        assert loaders_agree(text), text
    if hasattr(yaml, "CSafeLoader"):
        path = tmp_path / "ci.yaml"
        path.write_text(ci[0])
        c_config = load_config(path)
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert repr(load_config(path)) == repr(c_config)


@pytest.mark.parametrize("pure_python", [False, True])
@pytest.mark.parametrize("text", [
    "scenario: [a, b\ndomain: {kind: x\n",
    "scenario: solve_harmonic\ndomain: kind: circle\n",
    "\tscenario: solve_harmonic\n",
    "scenario: 'solve_harmonic\n",
])
def test_malformed_yaml_is_one_error_line(tmp_path, capsys, monkeypatch, text, pure_python):
    # Either loader refuses the file with exactly one stderr line, ``error:``
    # and the parser's message with its line marks joined onto it, and status 1.
    if pure_python:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "run.yaml"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config does not parse as YAML: ")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert "line 1" in err or "line 2" in err
    assert not (tmp_path / "o").exists()


@pytest.fixture
def fresh_blas_probe():
    """An empty cache of ``cli._openblas_getter`` before and after the test."""
    cli._openblas_getter.cache_clear()
    yield
    cli._openblas_getter.cache_clear()


def test_blas_getter_is_found_once_and_read_on_every_report(tmp_path, monkeypatch,
                                                            fresh_blas_probe):
    # The maps file is read and the library loaded once per process; the
    # getter is called on each report, so it reads the count in effect.
    real_open, maps_reads, loaded = open, [], []

    def fake_open(path, *args, **kwargs):
        if path == "/proc/self/maps":
            maps_reads.append(path)
            return io.StringIO("7f00-7f01 r-xp 0 0:0 0  /lib/libscipy_openblas64_-a1.so\n")
        return real_open(path, *args, **kwargs)

    class Getter:
        calls = 0

        def __call__(self):
            self.calls += 1
            return self.calls

    getter = Getter()

    def fake_cdll(path):
        loaded.append(path)
        return types.SimpleNamespace(scipy_openblas_get_num_threads64_=getter)

    monkeypatch.setattr(cli, "open", fake_open, raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    cfg = write_config(tmp_path / "run.yaml", domain={"kind": "circle", "sites": [8],
                                                      "lengths": [1.0]})
    threads = []
    for out in ("a", "b", "c"):
        assert run_scenario(cfg, out_dir=tmp_path / out) == 0
        trace = (tmp_path / out / "report.txt").read_text()
        threads += re.findall(r"; BLAS threads (\d+); ", trace)
    assert threads == ["1", "2", "3"]
    assert maps_reads == ["/proc/self/maps"]
    assert loaded == ["/lib/libscipy_openblas64_-a1.so"] and getter.calls == 3


def test_blas_threads_read_unknown_without_a_getter(monkeypatch, fresh_blas_probe):
    def no_maps(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(cli, "open", no_maps, raising=False)
    assert cli._blas_threads() == "unknown"
    monkeypatch.undo()
    assert cli._blas_threads() == "unknown"    # cached: the maps are not read again


def test_identical_runs_identical_csv(tmp_path):
    cfg = write_config(
        tmp_path / "run.yaml",
        reference_metric={"kind": "random_smooth", "amplitude": 0.25},
        solver={"tolerance": 1e-6},
    )
    o1, o2 = tmp_path / "a", tmp_path / "b"
    assert run_scenario(cfg, out_dir=o1, seed=9) == 0
    assert run_scenario(cfg, out_dir=o2, seed=9) == 0
    assert (o1 / "run.csv").read_bytes() == (o2 / "run.csv").read_bytes()


def test_resume_reproduces_unsplit_run(tmp_path):
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="solve_poisson",
        domain={"kind": "circle", "sites": [24], "lengths": [1.0]},
        reference_metric={"kind": "random_smooth", "amplitude": 0.3},
        solver={"tolerance": 1e-6},
        output={"directory": "out", "checkpoint_cadence": 2},
    )
    full, part = tmp_path / "full", tmp_path / "part"
    assert run_scenario(cfg, out_dir=full, seed=4) == 0
    mid = full / "step00000002.ckpt"
    assert mid.exists()
    assert run_scenario(cfg, out_dir=part, seed=4, resume_path=mid) == 0
    a = load_checkpoint(full / "final.ckpt")
    b = load_checkpoint(part / "final.ckpt")
    assert a.step == b.step > 2
    assert np.abs(a.metric - b.metric).max() <= 1e-12
    assert "resumed from step 2" in (part / "report.txt").read_text()


def test_resume_wrong_rank_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "run.yaml",
        output={"directory": "out", "checkpoint_cadence": 2},
        reference_metric={"kind": "random_smooth", "amplitude": 0.3},
        solver={"tolerance": 1e-6},
    )
    full = tmp_path / "full"
    assert run_scenario(cfg, out_dir=full, seed=4) == 0
    rank1 = write_config(
        tmp_path / "r1.yaml",
        bundle={"rank": 1, "monodromy": [[[[2.0, 0.0]]]]},
    )
    mid = full / "step00000002.ckpt"
    assert mid.exists()
    capsys.readouterr()
    assert run_scenario(rank1, out_dir=tmp_path / "x", resume_path=mid) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "rank" in err[0], err


@pytest.mark.parametrize("scenario, overrides", [
    ("stability", {}),
    ("exhaustion", {"domain": {"kind": "annulus", "sites": [16, 9],
                               "lengths": [6.283185307179586, 1.0]},
                    "exhaustion": {"levels": [4, 6]}}),
])
def test_resume_is_refused_where_no_flow_resumes(tmp_path, capsys, scenario, overrides):
    # These scenarios would load the checkpoint and then start afresh: refused
    # with one error line before any output is written.
    cfg = write_config(tmp_path / "run.yaml", scenario=scenario, **overrides)
    sites = 24 if scenario == "stability" else 144
    ckpt = _site_checkpoint(tmp_path / "any.ckpt", sites)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "--resume", str(ckpt)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --resume: the {scenario} scenario runs no flow to resume"]
    assert not out.exists()


def test_readme_config_example_parses():
    # The README's documented config goes through the parser as it stands.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = config_from_dict(yaml.safe_load(blocks[0]))
    assert cfg.scenario == "solve_poisson" and cfg.exhaustion.levels == [9, 11, 13, 15]
    assert cfg.solver == SolveOptions(tolerance=1e-8, max_steps=200000, dt_growth_every=20,
                                      divergence_threshold=50.0)


def test_stability_scenario_writes_table(tmp_path):
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="stability",
        bundle={"rank": 2, "monodromy": [[[[4.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [0.25, 0.0]]]]},
    )
    out = tmp_path / "o"
    assert run_scenario(cfg, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "verdict" in report and "sub-bundles" in report


def test_exhaustion_scenario(tmp_path):
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="exhaustion",
        domain={"kind": "annulus", "sites": [16, 9], "lengths": [6.283185307179586, 1.0]},
        reference_metric={"kind": "diagonal", "amplitudes": [0.2, -0.2], "modes": [1, 1]},
        exhaustion={"levels": [4, 6, 8]},
    )
    out = tmp_path / "o"
    assert run_scenario(cfg, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "sup|log h|" in report and "cauchy sup" in report
    rows = [ln.split(", ") for ln in report.splitlines() if ln.startswith("  ")]
    assert [row[0].strip() for row in rows] == ["4", "6", "8"]
    assert rows[0][-1] == "nan" and all(float(row[-1]) >= 0.0 for row in rows[1:])


def test_higgs_roundtrip_scenario(tmp_path):
    gen_b = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / 3.0, 0.0]]]
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="higgs_roundtrip",
        domain={"kind": "torus", "sites": [12, 12],
                "lengths": [6.283185307179586, 6.283185307179586]},
        bundle={"rank": 2, "monodromy": [GEN2, gen_b]},
    )
    out = tmp_path / "o"
    assert run_scenario(cfg, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "eigenvalue drift" in report
    ck = load_checkpoint(out / "final.ckpt")
    assert ck.theta is not None


def test_higgs_roundtrip_resumes_its_poisson_solve_bit_exactly(tmp_path):
    gen_b = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / 3.0, 0.0]]]
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="higgs_roundtrip",
        domain={"kind": "torus", "sites": [8, 8], "lengths": [1.0, 1.0]},
        bundle={"rank": 2, "monodromy": [GEN2, gen_b]},
        reference_metric={"kind": "random_smooth", "amplitude": 0.3},
        output={"directory": "out", "checkpoint_cadence": 2},
    )
    full, part = tmp_path / "full", tmp_path / "part"
    assert run_scenario(cfg, out_dir=full, seed=2) == 0
    assert run_scenario(cfg, out_dir=part, seed=2, resume_path=full / "step00000002.ckpt") == 0
    assert (part / "run.csv").read_text().splitlines()[2].startswith("2,")
    assert load_checkpoint(full / "final.ckpt").theta is not None
    assert (full / "final.ckpt").read_bytes() == (part / "final.ckpt").read_bytes()


def test_higgs_roundtrip_inverts_each_transport_stack_once(tmp_path, monkeypatch):
    # The metric connection takes V^{-1} from the split and the composite
    # connection carries its own inverse, so the round trip inverts one
    # stack, the composite transports, in connection_from_transports;
    # from_monodromy inverts one generator fraction per torus axis. The Higgs
    # data builds its composite connection once, and takes dbar theta at
    # every site and the holonomy of every composite plaquette once, in site
    # tiles (two, with tiles of 32 sites): the residuals and flat_from_higgs's
    # curvature check share them. The flow splits the connection at the
    # reference and takes its tension (one codifferential); det normalization
    # carries that split to the normalized metric by the conformal law, which
    # takes neither, and the Higgs extraction reads the carried split and its
    # tension: one split and one codifferential in all.
    inverted = []
    counts = {"composite": 0, "split": 0, "codifferential": 0}
    tiles = {"dbar": [], "plaquettes": []}
    real_inv = np.linalg.inv

    def inv(a):
        inverted.append(sys._getframe(1).f_code.co_name)
        return real_inv(a)

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def recording(key, fn):
        def wrapped(conn, *args):
            tiles[key].append(args[-1])
            return fn(conn, *args)
        return wrapped

    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(la, "TILE", 32)
    monkeypatch.setattr(hodge, "_dbar_site_field", recording("dbar", hodge._dbar_site_field))
    monkeypatch.setattr(hodge, "composite_transports",
                        counting("composite", hodge.composite_transports))
    monkeypatch.setattr(hodge, "plaquette_holonomies",
                        recording("plaquettes", bundle.plaquette_holonomies))
    split = counting("split", bundle.split_metric)
    for module in (bundle, flow):
        monkeypatch.setattr(module, "split_metric", split)
    monkeypatch.setattr(bundle, "codifferential",
                        counting("codifferential", bundle.codifferential))
    gen_b = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / 3.0, 0.0]]]
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="higgs_roundtrip",
        domain={"kind": "torus", "sites": [8, 8], "lengths": [1.0, 1.0]},
        bundle={"rank": 2, "monodromy": [GEN2, gen_b]},
    )
    assert run_scenario(cfg, out_dir=tmp_path / "o") == 0
    assert inverted == ["from_monodromy"] * 2 + ["connection_from_transports"]
    assert counts == {"composite": 1, "split": 1, "codifferential": 1}
    for key in tiles:
        assert len(tiles[key]) == 2
        assert np.array_equal(np.sort(np.concatenate(tiles[key])), np.arange(64))


def test_higgs_roundtrip_lets_the_poisson_split_go(tmp_path, monkeypatch):
    # The Higgs data holds what it needs of the Poisson run's split (the
    # metric transports and the scaled root), so the split itself, with its
    # psi, shift and tension, is freed before the residuals are taken.
    refs, alive = [], []
    extract, residuals = hodge.higgs_from_harmonic, hodge.hitchin_residuals

    def extracting(sm, **kwargs):
        refs.append(weakref.ref(sm))
        return extract(sm, **kwargs)

    def collecting(hd):
        gc.collect()
        alive.extend(ref() is not None for ref in refs)
        return residuals(hd)

    monkeypatch.setattr(hodge, "higgs_from_harmonic", extracting)
    monkeypatch.setattr(hodge, "hitchin_residuals", collecting)
    gen_b = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / 3.0, 0.0]]]
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="higgs_roundtrip",
        domain={"kind": "torus", "sites": [16, 16], "lengths": [1.0, 1.0]},
        bundle={"rank": 2, "monodromy": [GEN2, gen_b]},
    )
    assert run_scenario(cfg, out_dir=tmp_path / "o") == 0
    assert len(refs) == 1 and alive == [False]


def test_higgs_roundtrip_refuses_above_ten_times_the_tolerance(tmp_path, monkeypatch):
    # The extraction refuses a trace-free tension above 10 tension_tol and
    # flat_from_higgs a curvature above 10 tol: both receive the solver
    # tolerance itself, so both refuse above 10x it.
    received = {}

    def recording(key, fn, name):
        def wrapped(*args, **kwargs):
            received[key] = kwargs[name]
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(hodge, "higgs_from_harmonic", recording(
        "extraction", hodge.higgs_from_harmonic, "tension_tol"))
    monkeypatch.setattr(hodge, "flat_from_higgs", recording(
        "flatten", hodge.flat_from_higgs, "tol"))
    gen_b = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / 3.0, 0.0]]]
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="higgs_roundtrip",
        domain={"kind": "torus", "sites": [8, 8], "lengths": [1.0, 1.0]},
        bundle={"rank": 2, "monodromy": [GEN2, gen_b]},
        solver={"tolerance": 3e-9},
    )
    assert run_scenario(cfg, out_dir=tmp_path / "o") == 0
    assert received == {"extraction": 3e-9, "flatten": 3e-9}


def test_higgs_roundtrip_refuses_a_curved_composite(tmp_path, capsys, monkeypatch):
    # One bent edge curves the composite connection by about 1e-3, far above
    # the solver tolerance; the round trip refuses to flatten it.
    real = hodge.composite_transports

    def bent(hd):
        composite = real(hd)
        transport = composite.transport.copy()
        transport[0, 5] = transport[0, 5] @ np.diag([1.001, 1.0])
        return bundle.connection_from_transports(composite.domain, transport)

    monkeypatch.setattr(hodge, "composite_transports", bent)
    gen_b = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0 / 3.0, 0.0]]]
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="higgs_roundtrip",
        domain={"kind": "torus", "sites": [8, 8], "lengths": [1.0, 1.0]},
        bundle={"rank": 2, "monodromy": [GEN2, gen_b]},
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: composite curvature"), err


def test_dirichlet_runs_repeat_and_resume_bit_exactly(tmp_path):
    # A domain with a boundary is a Dirichlet problem, solved by the implicit
    # step: a repeated run writes the same CSV bytes, and a run resumed from
    # its step-3 checkpoint ends on the same bytes.
    cfg = write_config(
        tmp_path / "run.yaml",
        scenario="solve_poisson",
        domain={"kind": "rectangle", "sites": [9, 9], "lengths": [1.0, 1.0]},
        bundle={"rank": 2, "monodromy": []},
        reference_metric={"kind": "random_smooth", "amplitude": 0.3},
        output={"directory": "out", "checkpoint_cadence": 3},
    )
    full, rerun, part = tmp_path / "full", tmp_path / "rerun", tmp_path / "part"
    assert run_scenario(cfg, out_dir=full, seed=5) == 0
    assert run_scenario(cfg, out_dir=rerun, seed=5) == 0
    assert (full / "run.csv").read_bytes() == (rerun / "run.csv").read_bytes()
    assert load_checkpoint(full / "final.ckpt").step > 3
    assert run_scenario(cfg, out_dir=part, seed=5, resume_path=full / "step00000003.ckpt") == 0
    assert (full / "final.ckpt").read_bytes() == (part / "final.ckpt").read_bytes()
    report = (full / "report.txt").read_text()
    assert "verdict: converged" in report
    trace = next(ln for ln in report.splitlines() if ln.startswith("trace: "))
    assert "; seconds: diagnostics " in trace and ", solve " in trace and ", io " in trace
    assert re.search(r", CG iterations [1-9]\d* \(max [1-9]\d* in a trial\), ", trace)


def test_closed_runs_name_their_step_and_resume_bit_exactly(tmp_path):
    # Above the implicit step's roundoff floor a closed circle takes that step:
    # a run resumed from its step-2 checkpoint ends on the same bytes. At or
    # below the floor it keeps the heat flow and a note says why.
    cfg = write_config(
        tmp_path / "run.yaml",
        reference_metric={"kind": "random_smooth", "amplitude": 0.3},
        solver={"tolerance": 1e-7},
        output={"directory": "out", "checkpoint_cadence": 2},
    )
    full, part = tmp_path / "full", tmp_path / "part"
    assert run_scenario(cfg, out_dir=full, seed=6) == 0
    mid = full / "step00000002.ckpt"
    assert mid.exists() and load_checkpoint(full / "final.ckpt").step > 2
    assert run_scenario(cfg, out_dir=part, seed=6, resume_path=mid) == 0
    assert (full / "final.ckpt").read_bytes() == (part / "final.ckpt").read_bytes()
    report = (full / "report.txt").read_text()
    assert "trace: trial steps " in report and " (implicit step), rejected " in report
    assert "note: " not in report

    fixed = write_config(
        tmp_path / "fixed.yaml",
        bundle={"rank": 2, "monodromy": [[[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
        solver={"tolerance": 1e-14},
    )
    assert run_scenario(fixed, out_dir=tmp_path / "heat") == 0
    report = (tmp_path / "heat" / "report.txt").read_text()
    assert " (explicit step), rejected " in report
    assert ("note: explicit heat-flow step: tolerance 1.000e-14 is at or below the implicit "
            "step's roundoff floor ") in report
