import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
spec = importlib.util.spec_from_file_location("benchkit", SCRIPTS / "benchkit.py")
benchkit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchkit)
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS")


def test_bench_scripts_heat_flows_converge():
    # bench_closed.py and bench_dirichlet.py call flow._drive directly in their
    # `heat` helpers. Each script is loaded under a name other than __main__
    # (its imports run, its main does not), in a fresh process because it pins
    # the BLAS threads and extends sys.path, and its `heat` runs on a small
    # problem of the kind it benches.
    code = """
import runpy, sys
closed = runpy.run_path(sys.argv[1], run_name="loaded")
dirichlet = runpy.run_path(sys.argv[2], run_name="loaded")
import numpy as np
import bundleflow as bf
from bundleflow.config import smooth_random_metric
circle = bf.build_domain("circle", 5, 1.0)
conn = bf.from_monodromy(circle, [np.diag([2.0, 0.5]).astype(complex)])
rep = closed["heat"](conn, smooth_random_metric(circle, 2, 44, 0.25), 1e-7)
print(rep.verdict, rep.step_kind)
rect = bf.build_domain("rectangle", (5, 5), (1.0, 1.0))
rep = dirichlet["heat"](bf.from_monodromy(rect, [], rank=2), smooth_random_metric(rect, 2, 3, 0.3))
print(rep.verdict, rep.step_kind)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(SCRIPTS / "bench_closed.py"),
                          str(SCRIPTS / "bench_dirichlet.py")],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split("\n") == ["converged explicit", "converged explicit", ""]


def test_alternate_flips_the_first_side_on_every_repeat():
    calls = []
    sides = {name: lambda name=name: calls.append(name) or len(calls) for name in "abc"}
    times, results = benchkit.alternate(sides, 4, {"c": 1})
    assert calls == ["a", "b", "c", "b", "a", "a", "b", "b", "a"]
    assert results == {"a": [1, 5, 6, 9], "b": [2, 4, 7, 8], "c": [3]}
    assert [len(times[side]["wall_s"]) for side in "abc"] == [4, 4, 1]
    assert times["a"]["wall_s_median"] == statistics.median(times["a"]["wall_s"])
    times, results = benchkit.alternate(sides, 2, {"c": 0})
    assert list(times) == list(results) == ["a", "b"]


def test_run_worker_pins_threads_and_imports_from_the_given_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    script = tmp_path / "worker.py"
    script.write_text("import json, os, sys\n"
                      "print('a line before the record')\n"
                      "print(json.dumps({**os.environ, 'argv': sys.argv[1:]}))\n")
    record = benchkit.run_worker(script, tmp_path / "tree", ["--worker", "x"])
    assert {var: record[var] for var in PINNED} == dict.fromkeys(PINNED, "1")
    assert record["PYTHONPATH"] == str(tmp_path / "tree")
    assert record["argv"] == ["--worker", "x"]


def test_failed_worker_raises_with_its_stderr(tmp_path):
    script = tmp_path / "worker.py"
    script.write_text("import no_such_module_anywhere\n")
    with pytest.raises(RuntimeError, match="ModuleNotFoundError: No module named"):
        benchkit.run_worker(script, tmp_path, [])
    # End to end: a baseline tree whose bundleflow cannot be imported.
    (tmp_path / "bundleflow").mkdir()
    (tmp_path / "bundleflow" / "__init__.py").write_text("import no_such_module_anywhere\n")
    out = subprocess.run([sys.executable, str(SCRIPTS / "bench_import.py"), "--runs", "1",
                          "--baseline-src", str(tmp_path), "--out", str(tmp_path / "out.json")],
                         capture_output=True, text=True)
    assert out.returncode != 0
    assert "ModuleNotFoundError: No module named 'no_such_module_anywhere'" in out.stderr
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("script, flags", [
    ("bench_implicit.py", ["--sizes", "5", "--annulus", "8", "3"]),
    ("bench_import.py", ["--runs", "1"]),
    ("bench_checkpoint.py", ["--repeats", "1"]),
])
def test_baseline_without_bundleflow_is_refused_before_any_run(tmp_path, script, flags):
    out = subprocess.run([sys.executable, str(SCRIPTS / script), *flags, "--baseline-src",
                          str(tmp_path), "--out", str(tmp_path / "out.json")],
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"error: no bundleflow sources under {tmp_path}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("bench", sorted(p.name for p in SCRIPTS.parent.glob("BENCH_*.json")))
def test_write_keeps_the_layout_of_the_bench_files(tmp_path, bench):
    path = SCRIPTS.parent / bench
    benchkit.write(tmp_path / bench, json.loads(path.read_text(encoding="utf-8")))
    assert (tmp_path / bench).read_bytes() == path.read_bytes()


def test_checkpoint_bench_refuses_trees_that_write_different_bytes(tmp_path):
    # A baseline whose writer puts two spaces between values still loads
    # bit-exactly, but its files differ: nothing is timed and nothing written.
    src = SCRIPTS.parent / "src" / "bundleflow"
    (tmp_path / "bundleflow").mkdir()
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "checkpoint.py":
            assert text.count('" ".join') == 1
            text = text.replace('" ".join', '"  ".join')
        (tmp_path / "bundleflow" / path.name).write_text(text, encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPTS / "bench_checkpoint.py"), "--repeats", "1",
                          "--baseline-src", str(tmp_path), "--out", str(tmp_path / "out.json")],
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: site-constant: the two trees write different checkpoint bytes\n"
    assert not (tmp_path / "out.json").exists()
