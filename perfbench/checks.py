"""Closed-form checks of bundleflow's outputs, written without bundleflow.

Every check reads the program's outputs (files or arrays) and compares them
with a quantity derived here from the workload's inputs alone: numpy and
mpmath do the arithmetic, and the checkpoint and CSV readers below parse the
documented text formats on their own. A check raises ``CheckError`` with a
message naming the first property that does not hold.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

# A run's energy column may rise by this share of itself on an accepted step:
# the flow's documented allowance for rounding in the energy sum.
ENERGY_RTOL = 1e-12


class CheckError(AssertionError):
    """An output of the program disagrees with its closed form."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_checkpoint(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(metric, theta) of a bundleflow text checkpoint; theta is None without a theta block."""
    text = Path(path).read_text(encoding="ascii")
    head, _, body = text.partition("\n")
    header = {}
    for chunk in head.split(","):
        key, val = chunk.strip().split(" ", 1)
        header[key] = val.strip()
    rank, sites = int(header["rank"]), int(header["sites"])
    metric_text, marker, theta_text = body.partition("theta\n")

    def block(s: str) -> np.ndarray:
        vals = np.array(s.split(), dtype=float)
        require(vals.size == sites * rank * rank * 2, f"{path}: block has {vals.size} values")
        return (vals[0::2] + 1j * vals[1::2]).reshape(sites, rank, rank)

    return block(metric_text), block(theta_text) if marker else None


def csv_column(path, name: str) -> np.ndarray:
    """One column of a run history CSV (v1: a comment line, a header, then rows)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    require(lines[:1] == ["# bundleflow run history v1"], f"{path}: missing v1 header")
    index = lines[1].split(",").index(name)
    return np.array([float(row.split(",")[index]) for row in lines[2:]])


def edge_energy(metric: np.ndarray, transport: np.ndarray, spacing: float) -> float:
    """Circle edge energy sum_e h |psi_e|^2 with psi_e = -log(P_e) / (2h).

    ``P_e`` is the comparison of ``U^dag H(x+1) U`` with ``H(x)``; its
    eigenvalues are the generalized eigenvalues of that pencil, found here
    through a Cholesky factor of ``H(x)``.
    """
    head = np.roll(metric, -1, axis=0)
    pulled = np.conj(transport.T) @ head @ transport
    c_inv = np.linalg.inv(np.linalg.cholesky(metric))
    pencil = c_inv @ pulled @ np.conj(np.swapaxes(c_inv, -1, -2))
    mu = np.linalg.eigvalsh(0.5 * (pencil + np.conj(np.swapaxes(pencil, -1, -2))))
    require(bool(np.all(mu > 0)), "edge comparison is not positive")
    return float(np.sum(np.log(mu) ** 2) / (4.0 * spacing))


def check_circle_harmonic(
    final_metric: np.ndarray, gen_s: np.ndarray, lambdas: np.ndarray, length: float,
    rtol: float = 1e-10,
) -> None:
    """The energy of a harmonic metric with monodromy S diag(lambda) S^-1.

    Every harmonic metric on the circle has the edge energy of the evenly
    spread connection in the frame where it is diagonal and the metric is
    the identity: sum_j (ln lambda_j)^2 / L, independent of S and of the
    sites.
    """
    n = final_metric.shape[0]
    u = gen_s @ np.diag(lambdas ** (1.0 / n)) @ np.linalg.inv(gen_s)
    got = edge_energy(final_metric, u, length / n)
    want = float(np.sum(np.log(lambdas) ** 2) / length)
    require(abs(got - want) <= rtol * want,
            f"final edge energy {got!r} differs from closed form {want!r}")


def check_energy_nonincreasing(energy: np.ndarray) -> None:
    rise = np.diff(energy) - ENERGY_RTOL * energy[:-1]
    bad = np.flatnonzero(rise > 0)
    require(bad.size == 0, f"energy rises after accepted row {bad[:1].tolist()}")


def jordan_energy(metric: np.ndarray, length: float, dps: int = 50) -> float:
    """Circle edge energy for the transport U = [[1, 1/n], [0, 1]], in mpmath.

    The comparison pencil ``(U^dag H(y) U, H(x))`` is 2 x 2, so its
    eigenvalues solve ``det(H(x)) mu^2 - b mu + det(U^dag H(y) U) = 0`` with
    ``b = a11 h22 + a22 h11 - 2 Re(a12 conj(h12))``; at ``dps`` digits the
    cancellation in ``mu - 1`` leaves the logarithms resolved.
    """
    import mpmath

    n = metric.shape[0]
    with mpmath.workdps(dps):
        c = mpmath.mpf(1) / n
        total = mpmath.mpf(0)

        def entries(m):
            return (mpmath.mpf(float(m[0, 0].real)), mpmath.mpc(complex(m[0, 1])),
                    mpmath.mpf(float(m[1, 1].real)))

        for x in range(n):
            p, q, r = entries(metric[x])
            yp, yq, yr = entries(metric[(x + 1) % n])
            # U^dag H(y) U for U = [[1, c], [0, 1]].
            a11 = yp
            a12 = c * yp + yq
            a22 = c * c * yp + 2 * c * mpmath.re(yq) + yr
            det_h = p * r - abs(q) ** 2
            det_a = yp * yr - abs(yq) ** 2
            b = a11 * r + a22 * p - 2 * mpmath.re(a12 * mpmath.conj(q))
            disc = mpmath.sqrt(b * b - 4 * det_h * det_a)
            for mu in ((b + disc) / (2 * det_h), (b - disc) / (2 * det_h)):
                total += mpmath.log(mu) ** 2
        return float(total * n / (4 * mpmath.mpf(length)))


def check_runaway(verdict: str, logh_sup: float, residuals: np.ndarray, energy: float,
                  metric: np.ndarray, length: float, tolerance: float, threshold: float,
                  rtol: float = 1e-10) -> None:
    require(verdict == "diverged", f"verdict {verdict!r}, expected 'diverged'")
    require(logh_sup > threshold, f"sup|log h| {logh_sup!r} not beyond {threshold}")
    low = np.flatnonzero(~(residuals > tolerance))
    require(low.size == 0, f"recorded residual at or below tolerance in row {low[:1].tolist()}")
    want = jordan_energy(metric, length)
    require(abs(energy - want) <= rtol * want,
            f"reported energy {energy!r} differs from the 50-digit value {want!r}")


def annulus_closed_form(gen_a: np.ndarray) -> float:
    """sup ||log eig(K^-1 H)|| for H = I and K = exp(phi A), max phi = 0.3."""
    return float(0.3 * np.sqrt(2.0) * np.abs(np.linalg.eigvalsh(gen_a)).max())


def check_annulus_level(verdict: str, metric: np.ndarray, reference: np.ndarray,
                        sup_log_h: float, gen_a: np.ndarray, tolerance: float) -> None:
    """A band whose boundary data is K = I has the Poisson solution H = I."""
    require(verdict == "converged", f"level verdict {verdict!r}")
    dev = float(np.abs(metric - np.eye(metric.shape[-1])).max())
    require(dev <= tolerance, f"max|H - I| = {dev:.3e} exceeds the tolerance {tolerance:g}")
    det = np.linalg.det(np.linalg.solve(reference, metric))
    det_dev = float(np.abs(det - 1.0).max())
    require(det_dev <= 1e-12, f"det(K^-1 H) departs from 1 by {det_dev:.3e}")
    want = annulus_closed_form(gen_a)
    require(abs(sup_log_h - want) <= tolerance,
            f"sup_log_h monitor {sup_log_h!r} differs from closed form {want!r}")


def check_torus_higgs(status: int, out_dir, gen_s: np.ndarray, mu_x: float, mu_y: float,
                      length: float) -> None:
    """Higgs data of the harmonic metric (S S^dag)^-1 for S diag(mu) S^-1 generators.

    In the frame S the metric is the identity and the connection diagonal, so
    theta = (psi_x - i psi_y)/2 has eigenvalues +-(ln mu_x - i ln mu_y)/(2L)
    at every site.
    """
    require(status == 0, f"exit status {status}, expected 0")
    out_dir = Path(out_dir)
    metric, theta = read_checkpoint(out_dir / "final.ckpt")
    want = np.linalg.inv(gen_s @ np.conj(gen_s.T))
    dev = float(np.abs(metric - want).max())
    require(dev <= 1e-12 * float(np.abs(want).max()),
            f"final metric differs from (S S^dag)^-1 by {dev:.3e}")
    require(theta is not None, "final.ckpt has no theta block")
    lam = 0.5 * (np.log(mu_x) - 1j * np.log(mu_y)) / length
    eig = np.sort_complex(np.linalg.eigvals(theta))
    theta_dev = float(np.abs(eig - np.sort_complex(np.array([-lam, lam]))).max())
    require(theta_dev <= 1e-10 * abs(lam), f"theta eigenvalues off by {theta_dev:.3e}")
    report = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    drifts = [float(ln.split(":")[1]) for ln in report if ln.strip().startswith("axis ")]
    require(len(drifts) == 2, f"report has {len(drifts)} holonomy drift lines, expected 2")
    require(max(drifts) <= 1e-10, f"holonomy drift {max(drifts):.3e} exceeds 1e-10")
