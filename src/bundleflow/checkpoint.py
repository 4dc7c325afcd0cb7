"""Textual checkpoints: a flow state (and optional Higgs field) on disk, round-trip exact.

A checkpoint is a ``flow.FlowState`` without its history; ``Checkpoint.of``
and ``Checkpoint.state`` are the one mapping between the two, so a run resumes
from any checkpoint, periodic or final, exactly as the unsplit run goes on.

Layout: a header line of comma-separated ``key value`` pairs: ``rank`` and
``sites`` (the metric's shape), ``time``, ``step``, ``dt`` (the next step's;
0 for the default of the run's step), ``streak``, ``grown``, ``latch`` (0 or
1) and, once measured, ``logh_prev`` (absent loads as None); the floats are
finite and dt is not negative. Then one line per site with the row-major
complex entries of H written as ``re im`` pairs.
An optional ``theta`` marker line introduces a second per-site block with the
same layout. Floats are written with shortest round-trip precision, so a
save/load cycle is bit-exact.

Equal consecutive site rows are formatted and parsed once: the writer repeats
the line of a row whose float64 bits equal the row before it, and the reader
parses the first line of each run of equal lines. The bytes on disk are those
of one line formatted per site.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowState

Array = np.ndarray


@dataclass
class Checkpoint:
    rank: int
    sites: int
    time: float
    step: int
    dt: float
    streak: int
    metric: Array
    theta: Array | None = None
    grown: int = 0
    latch: bool = True
    logh_prev: float | None = None

    @classmethod
    def of(cls, state: FlowState, theta: Array | None = None) -> Checkpoint:
        """The checkpoint of a flow state; rank and sites are the metric's shape."""
        sites, rank = state.metric.shape[:2]
        return cls(rank=rank, sites=sites, time=state.time, step=state.step, dt=state.dt,
                   streak=state.divergence_streak, metric=state.metric, theta=theta,
                   grown=state.accepted_since_growth, latch=state.latch_open,
                   logh_prev=state.logh_prev)

    def state(self) -> FlowState:
        """The flow state this checkpoint holds, with an empty history."""
        return FlowState(time=self.time, metric=self.metric, dt=self.dt, step=self.step,
                         accepted_since_growth=self.grown, divergence_streak=self.streak,
                         latch_open=self.latch, logh_prev=self.logh_prev)


def _write_block(fh, field: Array) -> None:
    """One line per site: its row-major entries as ``re im`` pairs. A row whose bits
    equal the row before it (so 0.0 and -0.0 differ) repeats that row's line."""
    values = np.ascontiguousarray(field, dtype=complex).view(float)
    rows = values.reshape(len(values), -1)
    bits = rows.view(np.uint64)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    line = ""
    for row, new in zip(rows, first.tolist()):
        if new:
            line = " ".join(map(repr, row.tolist())) + "\n"
        fh.write(line)


def _parse_block(lines: list[str], start: int, sites: int, rank: int) -> tuple[Array, int]:
    """The per-site block starting at ``lines[start]``, and the index after it. Only the
    first line of each run of equal lines is parsed."""
    width = 2 * rank * rank
    block = lines[start:start + sites]
    starts = [0] + [i for i in range(1, len(block)) if block[i] != block[i - 1]]
    try:
        values = (np.loadtxt([block[i] for i in starts], dtype=float, ndmin=2, comments=None)
                  if block else None)
    except ValueError:
        values = None
    if values is None or values.shape != (len(starts), width) or len(block) != sites:
        raise ValueError(_block_error(block, start, sites, width))
    values = np.repeat(values, np.diff(starts + [sites]), axis=0)
    return values.view(complex).reshape(sites, rank, rank), start + sites


def _block_error(block: list[str], start: int, sites: int, width: int) -> str:
    """The first fault of a block that does not parse, with its line number."""
    for i, line in enumerate(block):
        tokens = line.split()
        if len(tokens) != width:
            return f"checkpoint line {start + i + 1}: expected {width} values, got {len(tokens)}"
        try:
            list(map(float, tokens))
        except ValueError as exc:
            return f"checkpoint line {start + i + 1}: {exc}"
    return (f"checkpoint line {start + len(block) + 1}: the file ends after "
            f"{len(block)} of {sites} site lines")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    prev = "" if ckpt.logh_prev is None else f", logh_prev {float(ckpt.logh_prev)!r}"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"rank {ckpt.rank}, sites {ckpt.sites}, time {float(ckpt.time)!r}, "
                 f"step {ckpt.step}, dt {float(ckpt.dt)!r}, streak {ckpt.streak}, "
                 f"grown {ckpt.grown}, latch {int(ckpt.latch)}{prev}\n")
        _write_block(fh, ckpt.metric)
        if ckpt.theta is not None:
            fh.write("theta\n")
            _write_block(fh, ckpt.theta)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed file raises ValueError naming its first bad line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().rstrip().splitlines()
    if not lines:
        raise ValueError("checkpoint is empty")
    try:
        header = dict(chunk.strip().split(" ", 1) for chunk in lines[0].split(","))
        rank = int(header["rank"])
        sites = int(header["sites"])
        time = float(header["time"])
        step = int(header.get("step", 0))
        dt = float(header.get("dt", 0.0))
        streak = int(header.get("streak", 0))
        grown = int(header.get("grown", 0))
        latch = bool(int(header.get("latch", 1)))
        logh_prev = float(header["logh_prev"]) if "logh_prev" in header else None
    except (KeyError, ValueError) as exc:
        raise ValueError(f"checkpoint line 1: malformed header {lines[0]!r}") from exc
    if rank < 1 or sites < 1:
        raise ValueError(f"checkpoint line 1: rank and sites must be positive in {lines[0]!r}")
    if not np.isfinite([time, dt, 0.0 if logh_prev is None else logh_prev]).all() or dt < 0:
        raise ValueError("checkpoint line 1: time, dt and logh_prev must be finite and dt "
                         f"not negative in {lines[0]!r}")
    metric, pos = _parse_block(lines, 1, sites, rank)
    theta = None
    if pos < len(lines) and lines[pos].strip() == "theta":
        theta, pos = _parse_block(lines, pos + 1, sites, rank)
    if pos < len(lines):
        raise ValueError(f"checkpoint line {pos + 1}: unexpected line after the site blocks")
    return Checkpoint(
        rank=rank, sites=sites, time=time, step=step, dt=dt, streak=streak,
        metric=metric, theta=theta, grown=grown, latch=latch, logh_prev=logh_prev,
    )
