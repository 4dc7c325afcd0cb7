"""Scenario runner: one config in, CSV diagnostics, a report, and checkpoints out.

Exit status: 0 for converged/completed runs, 2 for a diverged verdict, 3 for
a precision_floor verdict, 1 for input errors. Given a fixed BLAS thread count
(set through the environment, e.g. ``OMP_NUM_THREADS``, before the process
starts), identical configs reproduce identical CSV bytes. A checkpoint is the
flow state (``checkpoint.Checkpoint.of``): a run resumed from any checkpoint,
periodic or ``final.ckpt``, continues bit-exactly as the unsplit run does.
The ``stability`` and ``exhaustion`` scenarios run no resumable flow and
refuse ``--resume``.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
import time
from pathlib import Path

import numpy as np

from .linalg import spectrum_distance

_VERDICT_STATUS = {"diverged": 2, "precision_floor": 3}
_RESUMABLE = ("solve_harmonic", "solve_poisson", "higgs_roundtrip")


def _fmt(x: float) -> str:
    return repr(float(x))


def _blas_threads() -> str:
    """The thread count of numpy's bundled OpenBLAS, read through ctypes, else ``unknown``.

    The library is found among the process's mapped files; a BLAS without the
    ``scipy_openblas_get_num_threads64_`` symbol, or a system without
    ``/proc/self/maps``, reads ``unknown``.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            get_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return str(get_threads())
    return "unknown"


def _trace(report, blas_threads: str) -> str:
    """Trials, step, rejections, energy rises, CG iterations, dt range, BLAS threads, phases."""
    dts = report.history[1:, 2]
    dt_range = f"dt min {dts.min():.6e} max {dts.max():.6e}" if dts.size else "no steps"
    phases = ", ".join(f"{name} {sec:.3f}" for name, sec in report.phase_seconds.items())
    return (f"trial steps {report.trial_steps} ({report.step_kind} step), "
            f"rejected {report.rejected_steps}, energy rises {report.energy_rises}, "
            f"CG iterations {report.cg_iterations} (max {report.cg_iterations_max} in a trial), "
            f"{dt_range}; BLAS threads {blas_threads}; seconds: {phases}")


class _CsvWriter:
    def __init__(self, path: Path, cadence: int):
        self.path = path
        self.cadence = cadence
        self.rows: list[str] = []

    def header(self, columns) -> None:
        self.rows.append("# bundleflow run history v1")
        self.rows.append(",".join(columns))

    def add(self, row) -> None:
        step = int(row[0])
        if step % self.cadence == 0:
            self.rows.append(",".join([str(step)] + [_fmt(v) for v in row[1:]]))

    def flush(self) -> None:
        self.path.write_text("\n".join(self.rows) + "\n", encoding="ascii", newline="\n")


def run_scenario(
    config_path,
    out_dir=None,
    resume_path=None,
    seed: int | None = None,
) -> int:
    from . import analysis, hodge
    from .bundle import invariant_subbundles
    from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
    from .config import (
        ConfigError,
        load_config,
        make_connection,
        make_domain,
        make_reference_metric,
    )
    from .flow import (
        HISTORY_COLUMNS,
        FlowState,
        exhaustion_solve,
        solve_harmonic,
        solve_poisson,
    )

    try:
        cfg = load_config(config_path)
        domain = make_domain(cfg)
        conn = make_connection(cfg, domain)
        reference = make_reference_metric(cfg, domain, seed=seed)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    notes: list[str] = []
    # The run's one flow state: the flow advances it in place, and checkpoints are of it.
    state = FlowState(time=0.0, metric=reference.copy(), dt=0.0)
    if resume_path is not None:
        if cfg.scenario not in _RESUMABLE:
            print(f"error: --resume: the {cfg.scenario} scenario runs no flow to resume",
                  file=sys.stderr)
            return 1
        try:
            ck = load_checkpoint(resume_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if ck.rank != cfg.bundle.rank or ck.sites != domain.n_sites:
            print("error: checkpoint rank/sites do not match the config", file=sys.stderr)
            return 1
        state = ck.state()
        notes.append(f"resumed from step {ck.step}")

    out = Path(out_dir) if out_dir is not None else Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    csv = _CsvWriter(out / "run.csv", cfg.output.csv_cadence)
    csv.header(HISTORY_COLUMNS)
    report_lines = [f"scenario: {cfg.scenario}"]

    ckpt_every = cfg.output.checkpoint_cadence
    io_seconds = 0.0

    def io(write, *args) -> None:
        """``write(*args)``, its wall time added to ``io_seconds``."""
        nonlocal io_seconds
        start = time.perf_counter()
        write(*args)
        io_seconds += time.perf_counter() - start

    def on_step(state) -> None:
        if ckpt_every and state.step and state.step % ckpt_every == 0:
            io(save_checkpoint, out / f"step{state.step:08d}.ckpt", Checkpoint.of(state))

    status = 0
    traced = []     # (label, RunReport) of each flow run, for the trace lines
    try:
        if cfg.scenario in ("solve_harmonic", "solve_poisson"):
            solver = solve_poisson if cfg.scenario == "solve_poisson" else solve_harmonic
            report = solver(conn, reference, cfg.solver, init=state, callback=on_step)
            report_lines += [
                f"verdict: {report.verdict}",
                f"verdict reason: {report.verdict_reason}",
                f"steps: {report.steps}",
                f"flow time: {_fmt(report.time)}",
                f"final residual_sup: {_fmt(report.residual_sup)}",
                f"final tracefree_residual_sup: {_fmt(report.tracefree_residual_sup)}",
                f"final energy: {_fmt(report.energy)}",
                f"final sigma to reference: {_fmt(report.sigma_sup)}",
                f"final sup |log h|: {_fmt(report.logh_sup)}",
            ]
            traced.append(("trace", report))
            if report.poisson_function is not None:
                report_lines.append(
                    f"poisson function sup: {_fmt(float(np.abs(report.poisson_function).max()))}"
                )
            notes.extend(report.notes)
            io(save_checkpoint, out / "final.ckpt", Checkpoint.of(state))
            status = _VERDICT_STATUS.get(report.verdict, 0)
        elif cfg.scenario == "exhaustion":
            reports, monitors = exhaustion_solve(
                conn, reference, cfg.exhaustion.levels, cfg.solver
            )
            report_lines.append(
                "level, sites, verdict, sup|log h|, ||Dh||_L2, cauchy sup (previous level)"
            )
            for rep, mon in zip(reports, monitors):
                report_lines.append(
                    f"  {mon.level:g}, {mon.n_sites}, {rep.verdict}, "
                    f"{_fmt(mon.sup_log_h)}, {_fmt(mon.dh_l2)}, {_fmt(mon.cauchy_sup)}"
                )
            traced += [(f"level {mon.level:g} trace", rep) for rep, mon in zip(reports, monitors)]
            status = max(_VERDICT_STATUS.get(r.verdict, 0) for r in reports)
            final = reports[-1]
            last = FlowState(time=final.time, metric=final.metric,
                             dt=float(final.history[-1, 2]), step=final.steps)
            io(save_checkpoint, out / "final.ckpt", Checkpoint.of(last))
        elif cfg.scenario == "stability":
            subs = invariant_subbundles(conn, reference)
            rep = analysis.stability_report(conn, reference, subs)
            report_lines.append(rep.to_text())
            io(save_checkpoint, out / "final.ckpt",
               Checkpoint.of(FlowState(time=0.0, metric=reference, dt=0.0)))
        elif cfg.scenario == "higgs_roundtrip":
            run = solve_poisson(conn, reference, cfg.solver, init=state, callback=on_step)
            report_lines.append(f"poisson verdict: {run.verdict}")
            report_lines.append(f"verdict reason: {run.verdict_reason}")
            traced.append(("poisson trace", run))
            if run.verdict != "converged":
                status = _VERDICT_STATUS.get(run.verdict, 0)
                report_lines.append("round trip aborted: no Poisson metric")
            else:
                hd = hodge.higgs_from_harmonic(run.split, tension_tol=cfg.solver.tolerance)
                run.split = None    # the Higgs data holds the transports and root it needs
                res = hodge.hitchin_residuals(hd)
                report_lines += [
                    f"holomorphy residual: {_fmt(res['holomorphy'])}",
                    f"composite curvature sup: {_fmt(res['hs_curvature_sup'])}",
                    f"contracted curvature sup: {_fmt(res['lambda_F_sup'])}",
                ]
                # Refused above 10x the solver tolerance, as the Higgs extraction.
                back = hodge.flat_from_higgs(hd, tol=cfg.solver.tolerance)
                report_lines.append("loop, eigenvalue drift (matched multisets)")
                for lp, lp_back in zip(conn.loops, back.loops):
                    drift = spectrum_distance(lp_back.generator, lp.generator)
                    report_lines.append(f"  axis {lp.axis}: {_fmt(drift)}")
                io(save_checkpoint, out / "final.ckpt", Checkpoint.of(state, theta=hd.theta))
        else:  # pragma: no cover - guarded by config validation
            raise AssertionError(cfg.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for _, rep in traced:
        for row in rep.history:
            io(csv.add, row)
    io(csv.flush)
    if traced:
        # The CSV and checkpoint I/O is charged to the last flow run reported.
        traced[-1][1].phase_seconds["io"] = io_seconds
    blas_threads = _blas_threads()
    report_lines += [f"{label}: {_trace(rep, blas_threads)}" for label, rep in traced]
    for note in notes:
        report_lines.append(f"note: {note}")
    (out / "report.txt").write_text("\n".join(report_lines) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bundleflow",
        description="Metric heat flow scenarios on flat bundles over lattice domains.",
    )
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--resume", default=None, help="checkpoint to continue from")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for random reference metrics")
    args = parser.parse_args(argv)
    return run_scenario(args.config, out_dir=args.out, resume_path=args.resume, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
