import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
