"""The four workloads: seeded inputs, a set-up, and one round of checked operations.

A round is the same list of verdict-producing calls every time, so every run
attempts whole rounds. Only those calls are timed (``Round.call``); building
inputs, clearing output directories and the closed-form checks in
``checks.py`` are not.
"""
from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks
import hostspeed
from checks import require


class Round:
    """Tally of one round: time inside verdict-producing calls, and operations.

    The host's speed is sampled while the calls run (``hostspeed.Sampler``);
    ``solve_s`` is their wall time less the time the probes took.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.sampler = hostspeed.Sampler()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def solve_s(self) -> float:
        return self.wall_s - self.sampler.spent_s

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            with self.sampler:
                return fn(*args, **kwargs)
        finally:
            self.wall_s += time.perf_counter() - start

    def op(self, name: str, body) -> None:
        """Run one operation; it fails if it raises or a check does not hold."""
        self.attempted += 1
        try:
            body()
        except Exception as exc:  # any fault of the program counts as a failed operation
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")


def unitary(rng: np.random.Generator, r: int) -> np.ndarray:
    z = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    q, upper = np.linalg.qr(z)
    d = np.diag(upper)
    return q * (d / np.abs(d))


def conditioned(rng: np.random.Generator, singular_values) -> np.ndarray:
    """A seeded non-normal matrix with fixed singular values (so fixed condition)."""
    r = len(singular_values)
    return unitary(rng, r) @ np.diag(singular_values) @ unitary(rng, r)


def hermitian_exp(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.exp(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def smooth_metric(rng: np.random.Generator, x: np.ndarray, length: float, rank: int,
                  amplitude: float, modes: int = 2) -> np.ndarray:
    """exp of a smooth Hermitian field with Fourier modes 0..modes on a circle."""
    field = np.zeros((x.size, rank, rank), dtype=complex)
    for k in range(modes + 1):
        for wave in (np.cos(2 * np.pi * k * x / length), np.sin(2 * np.pi * k * x / length)):
            c = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
            field += wave[:, None, None] * (c + np.conj(c.T))
    field *= amplitude / np.abs(np.linalg.eigvalsh(field)).max()
    return hermitian_exp(field)


def matrix_entry(m: np.ndarray) -> list:
    """A matrix as the config's nested [re, im] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def reset(*dirs: Path) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def save_metric(bf, path: Path, metric: np.ndarray) -> None:
    n, r, _ = metric.shape
    bf.save_checkpoint(path, bf.Checkpoint(rank=r, sites=n, time=0.0, step=0, dt=0.0,
                                           streak=0, metric=metric))


class CircleHarmonic:
    """CLI solve_harmonic, rank 3, with a CSV row every step and periodic checkpoints.

    A resume from the last periodic checkpoint is not part of the round: the
    transports that ``from_monodromy`` builds for this non-normal monodromy
    differ in their last bits from call to call, so the resumed run matches
    the unsplit one only now and then.
    """

    sites, length, tolerance, cadence = 12, 1.0, 1e-7, 200
    lambdas = np.array([4.0, 1.0, 0.25])

    def setup(self, bf, rng, work: Path) -> None:
        self.gen_s = conditioned(rng, (1.0, 1.6, 2.5))
        mono = self.gen_s @ np.diag(self.lambdas) @ np.linalg.inv(self.gen_s)
        x = self.length * np.arange(self.sites) / self.sites
        save_metric(bf, work / "reference.ckpt", smooth_metric(rng, x, self.length, 3, 0.25))
        self.config = work / "run.yaml"
        self.config.write_text(json.dumps({
            "scenario": "solve_harmonic",
            "domain": {"kind": "circle", "sites": [self.sites], "lengths": [self.length]},
            "bundle": {"rank": 3, "monodromy": [matrix_entry(mono)]},
            "reference_metric": {"kind": "checkpoint", "path": str(work / "reference.ckpt")},
            "solver": {"tolerance": self.tolerance},
            "output": {"csv_cadence": 1, "checkpoint_cadence": self.cadence},
        }))
        self.full = work / "full"

    def round(self, bf, rnd: Round) -> None:
        reset(self.full)

        def solve() -> None:
            status = rnd.call(bf.cli.run_scenario, self.config, out_dir=self.full)
            require(status == 0, f"exit status {status}")
            checks.check_energy_nonincreasing(checks.csv_column(self.full / "run.csv", "energy"))
            metric, _ = checks.read_checkpoint(self.full / "final.ckpt")
            checks.check_circle_harmonic(metric, self.gen_s, self.lambdas, self.length)

        rnd.op("solve", solve)


class CircleRunaway:
    """solve_harmonic on the Jordan monodromy: no harmonic metric, verdict diverged.

    The inputs are fixed: the unipotent monodromy and the identity start are
    the case itself, and no seeded variation of them keeps it a runaway. The
    step size grows every 5 accepted steps instead of every 20, which reaches
    the same runaway (residual near 1e-33 beyond sup|log h| 50) in about a
    quarter of the steps.
    """

    sites, length, tolerance, threshold, growth_every = 16, 1.0, 1e-45, 50.0, 5

    def setup(self, bf, rng, work: Path) -> None:
        dom = bf.build_domain("circle", self.sites, self.length)
        self.conn = bf.from_monodromy(dom, [np.array([[1.0, 1.0], [0.0, 1.0]])])
        self.reference = np.broadcast_to(np.eye(2, dtype=complex), (self.sites, 2, 2)).copy()
        self.opts = bf.SolveOptions(tolerance=self.tolerance,
                                    divergence_threshold=self.threshold,
                                    dt_growth_every=self.growth_every)

    def round(self, bf, rnd: Round) -> None:
        def solve() -> None:
            rep = rnd.call(bf.solve_harmonic, self.conn, self.reference, self.opts)
            checks.check_runaway(rep.verdict, rep.logh_sup, rep.history[:, 4], rep.energy,
                                 rep.metric, self.length, self.tolerance, self.threshold)

        rnd.op("solve", solve)


class AnnulusExhaustion:
    """exhaustion_solve on annulus bands whose boundary data is the identity."""

    # Radial spacing 0.1 puts a site on r = 0.2, where phi peaks at 0.3; bands
    # 5 and 7 end at r = 0.5 and 0.7, beyond the support of phi.
    sites, lengths, levels, tolerance = (48, 11), (2 * np.pi, 1.0), [5.0, 7.0], 1e-8

    def setup(self, bf, rng, work: Path) -> None:
        # A seeded unit (Frobenius) traceless Hermitian matrix, kept off the diagonal.
        while True:
            a, b, c = rng.normal(size=3)
            if b * b + c * c >= 0.25 * (a * a + b * b + c * c):
                break
        gen_a = np.array([[a, b + 1j * c], [b - 1j * c, -a]])
        self.gen_a = gen_a / np.linalg.norm(gen_a)
        dom = bf.build_domain("annulus", self.sites, self.lengths)
        self.conn = bf.from_monodromy(dom, [np.diag([2.0, 0.5]).astype(complex)])
        r = dom.coords()[:, 1]
        phi = np.where(r < 0.4, 0.3 * np.sin(np.pi * r / 0.4) ** 2, 0.0)
        self.reference = hermitian_exp(phi[:, None, None] * self.gen_a)
        self.radial = np.arange(dom.n_sites) % self.sites[1]
        self.opts = bf.SolveOptions(tolerance=self.tolerance)

    def round(self, bf, rnd: Round) -> None:
        def solve() -> None:
            reports, monitors = rnd.call(bf.exhaustion_solve, self.conn, self.reference,
                                         self.levels, self.opts)
            require(len(reports) == len(self.levels), f"{len(reports)} level reports")
            for level, rep, mon in zip(self.levels, reports, monitors):
                band = self.reference[self.radial <= level]
                require(rep.metric.shape == band.shape, f"level {level:g}: band shape")
                checks.check_annulus_level(rep.verdict, rep.metric, band, mon.sup_log_h,
                                           self.gen_a, self.tolerance)

        rnd.op("exhaustion", solve)


class TorusHiggs:
    """CLI higgs_roundtrip from the closed-form harmonic metric (S S^dag)^-1."""

    sites, length, mu = 128, 1.0, (2.0, 3.0)

    def setup(self, bf, rng, work: Path) -> None:
        self.gen_s = conditioned(rng, (1.0, 2.0))
        s_inv = np.linalg.inv(self.gen_s)
        gens = [self.gen_s @ np.diag([m, 1.0 / m]) @ s_inv for m in self.mu]
        n = self.sites * self.sites
        harmonic = np.linalg.inv(self.gen_s @ np.conj(self.gen_s.T))
        save_metric(bf, work / "reference.ckpt", np.broadcast_to(harmonic, (n, 2, 2)))
        self.config = work / "run.yaml"
        self.config.write_text(json.dumps({
            "scenario": "higgs_roundtrip",
            "domain": {"kind": "torus", "sites": [self.sites, self.sites],
                       "lengths": [self.length, self.length]},
            "bundle": {"rank": 2, "monodromy": [matrix_entry(g) for g in gens]},
            "reference_metric": {"kind": "checkpoint", "path": str(work / "reference.ckpt")},
            "solver": {"tolerance": 1e-8},
            "output": {"csv_cadence": 1, "checkpoint_cadence": 0},
        }))
        self.out = work / "out"

    def round(self, bf, rnd: Round) -> None:
        reset(self.out)

        def roundtrip() -> None:
            status = rnd.call(bf.cli.run_scenario, self.config, out_dir=self.out)
            checks.check_torus_higgs(status, self.out, self.gen_s, *self.mu, self.length)

        rnd.op("higgs_roundtrip", roundtrip)


WORKLOADS = {
    "circle-harmonic": CircleHarmonic,
    "circle-runaway": CircleRunaway,
    "annulus-exhaustion": AnnulusExhaustion,
    "torus-higgs": TorusHiggs,
}
