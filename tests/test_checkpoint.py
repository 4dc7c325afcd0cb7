import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import checkpoint
from bundleflow.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from bundleflow.flow import FlowState


def _random_field(seed, n=7, r=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, r, r)) + 1j * rng.normal(size=(n, r, r))


def test_round_trip_is_bit_exact(tmp_path):
    metric = _random_field(0)
    ck = Checkpoint(
        rank=2, sites=7, time=0.1 + 1e-17, step=123, dt=1.0 / 3.0, streak=4,
        metric=metric, grown=11, latch=False,
    )
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert np.array_equal(back.metric, metric)
    assert back.time == ck.time and back.dt == ck.dt
    assert (back.step, back.streak, back.grown, back.latch) == (123, 4, 11, False)
    assert back.theta is None


def test_a_checkpoint_is_the_flow_state_without_its_history(tmp_path):
    state = FlowState(time=0.1 + 1e-17, metric=_random_field(5, n=4, r=3), dt=1.0 / 3.0,
                      step=123, accepted_since_growth=11, divergence_streak=4,
                      history=[(0.0,) * 10], latch_open=False, logh_prev=48.49178479217008,
                      residual_prev=1.0 / 3.0e9)
    ck = Checkpoint.of(state)
    assert (ck.rank, ck.sites) == (3, 4)
    save_checkpoint(tmp_path / "state.ckpt", ck)
    assert (tmp_path / "state.ckpt").read_text().splitlines()[0].endswith(
        f"latch 0, logh_prev 48.49178479217008, residual_prev {state.residual_prev!r}")
    for back in (ck.state(), load_checkpoint(tmp_path / "state.ckpt").state()):
        assert back.history == []
        assert np.array_equal(back.metric, state.metric)
        for f in dataclasses.fields(FlowState):
            if f.name not in ("history", "metric"):
                assert getattr(back, f.name) == getattr(state, f.name), f.name


def test_a_header_without_logh_prev_keeps_its_bytes_and_loads_as_none(tmp_path):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, Checkpoint.of(FlowState(time=2.5, metric=_random_field(6), dt=0.1)))
    header = path.read_text().splitlines()[0]
    assert header == "rank 2, sites 7, time 2.5, step 0, dt 0.1, streak 0, grown 0, latch 1"
    for back in (load_checkpoint(path), load_checkpoint(path).state()):
        assert back.logh_prev is None and back.residual_prev is None


def test_round_trip_with_theta_block(tmp_path):
    metric = _random_field(1)
    theta = _random_field(2)
    ck = Checkpoint(rank=2, sites=7, time=2.5, step=0, dt=0.1, streak=0,
                    metric=metric, theta=theta)
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert np.array_equal(back.theta, theta)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("rank two, sites 7, time 0.0\n")
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(path)


def test_truncated_body_rejected(tmp_path):
    metric = _random_field(3)
    ck = Checkpoint(rank=2, sites=7, time=0.0, step=0, dt=0.1, streak=0, metric=metric)
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, ck)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(ValueError, match="line 5: the file ends after 3 of 7 site lines"):
        load_checkpoint(path)


@pytest.mark.parametrize("text, message", [
    ("", "checkpoint is empty"),
    ("\n\n", "checkpoint is empty"),
    ("garbage\n", "line 1: malformed header"),
    ("rank 1, sites 0, time 0.0\n", "line 1: rank and sites must be positive"),
    ("rank 1, sites 2, time 0.0\n1.0 0.0\n1.0\n", "line 3: expected 2 values, got 1"),
    ("rank 1, sites 2, time 0.0\n1.0 0.0\n1.0 x\n", "line 3: could not convert"),
    ("rank 1, sites 1, time 0.0\n1.0 0.0\ntheta\n", "line 4: the file ends after 0 of 1"),
    ("rank 1, sites 1, time 0.0\n1.0 0.0\n2.0 0.0\n", "line 3: unexpected line"),
    ("rank 1, sites 1, time nan\n1.0 0.0\n", "line 1: time, dt and logh_prev must be finite"),
    ("rank 1, sites 1, time 0.0, dt inf\n1.0 0.0\n", "line 1: time, dt and logh_prev must"),
    ("rank 1, sites 1, time 0.0, dt nan\n1.0 0.0\n", "line 1: time, dt and logh_prev must"),
    ("rank 1, sites 1, time 0.0, dt -0.5\n1.0 0.0\n", "line 1: .* dt not negative"),
    ("rank 1, sites 1, time 0.0, logh_prev -inf\n1.0 0.0\n", "line 1: time, dt and logh_prev"),
    ("rank 1, sites 1, time 0.0, residual_prev nan\n1.0 0.0\n",
     "line 1: residual_prev must be finite and not negative"),
    ("rank 1, sites 1, time 0.0, residual_prev inf\n1.0 0.0\n", "line 1: residual_prev must"),
    ("rank 1, sites 1, time 0.0, residual_prev -1e-9\n1.0 0.0\n", "line 1: residual_prev must"),
    ("rank 1, sites 1, time 0.0, residual_prev x\n1.0 0.0\n", "line 1: malformed header"),
    ("rank 1, sites 1, time 0.0, step -3\n1.0 0.0\n", "line 1: step, streak and grown must"),
    ("rank 1, sites 1, time 0.0, streak -7\n1.0 0.0\n", "line 1: step, streak and grown must"),
    ("rank 1, sites 1, time 0.0, grown -2\n1.0 0.0\n", "line 1: step, streak and grown must"),
    ("rank 1, sites 1, time 0.0, latch 5\n1.0 0.0\n", "line 1: .* latch must be 0 or 1"),
    ("rank 1, sites 1, time 0.0, latch -1\n1.0 0.0\n", "line 1: .* latch must be 0 or 1"),
])
def test_malformed_checkpoint_names_its_line(tmp_path, text, message):
    path = tmp_path / "bad.ckpt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_lines_are_shortest_round_trip_pairs(tmp_path):
    # The v1 layout: one line per site, each entry as "re im" in repr form.
    metric = _random_field(4, n=5, r=3)
    metric[0, 0, 0] = complex(-0.0, np.inf)
    save_checkpoint(tmp_path / "s.ckpt", Checkpoint(rank=3, sites=5, time=0.0, step=0, dt=0.0,
                                                    streak=0, metric=metric))
    lines = (tmp_path / "s.ckpt").read_text().splitlines()
    assert len(lines) == 6
    for site, line in zip(metric, lines[1:]):
        assert line == " ".join(f"{v.real!r} {v.imag!r}" for v in site.ravel().tolist())
    back = load_checkpoint(tmp_path / "s.ckpt").metric
    # bit-exact, signed zeros and infinities included
    assert back.view(np.uint64).tobytes() == metric.view(np.uint64).tobytes()


def _run_fields():
    """(name, field) pairs of 9-site rank-2 fields with and without runs of equal rows."""
    one = _random_field(10, n=1)[0]
    distinct = _random_field(11, n=9)
    runs = np.stack([one] * 3 + [distinct[3]] + [one] * 4 + [distinct[8]])
    zeros = np.zeros((9, 2, 2), dtype=complex)
    zeros[1::2, 0, 1] = complex(-0.0, 0.0)           # 0.0 and -0.0 alternate
    ulp = np.repeat(one[None], 9, axis=0)
    ulp[4, 1, 0] = complex(np.nextafter(one[1, 0].real, np.inf), one[1, 0].imag)
    infs = np.repeat(one[None], 9, axis=0)
    infs[:5, 0, 0] = complex(np.inf, -np.inf)
    return [("site-constant", np.repeat(one[None], 9, axis=0)), ("all-distinct", distinct),
            ("runs", runs), ("signed-zeros", zeros), ("one-ulp", ulp), ("infinities", infs)]


@pytest.mark.parametrize("name, field", _run_fields(), ids=[name for name, _ in _run_fields()])
def test_equal_rows_keep_the_bytes_and_the_bits(tmp_path, monkeypatch, name, field):
    # A run of equal site rows is formatted and parsed once: the bytes are those
    # of one repr line per site, and the reload is bit-exact, row by row. A run
    # is written in pieces of at most WRITE_BYTES, counted at the longest line
    # of its rank (200 bytes at rank 2): 400 bytes cut a run into pieces of 2
    # lines and a remainder, and 1 writes a line at a time.
    path = tmp_path / "s.ckpt"
    rows = ["".join(f"{v.real!r} {v.imag!r} " for v in site.ravel().tolist())[:-1]
            for site in field]
    expected = ["rank 2, sites 9, time 0.0, step 0, dt 0.0, streak 0, grown 0, latch 1",
                *rows, "theta", *rows[::-1]]
    for write_bytes in (checkpoint.WRITE_BYTES, 400, 1):
        monkeypatch.setattr(checkpoint, "WRITE_BYTES", write_bytes)
        save_checkpoint(path, Checkpoint(rank=2, sites=9, time=0.0, step=0, dt=0.0, streak=0,
                                         metric=field, theta=field[::-1].copy()))
        assert path.read_text() == "\n".join(expected) + "\n", write_bytes
    back = load_checkpoint(path)
    assert back.metric.view(np.uint64).tobytes() == field.view(np.uint64).tobytes()
    assert back.theta.view(np.uint64).tobytes() == field[::-1].view(np.uint64).tobytes()


@pytest.mark.parametrize("bad, message", [
    ("1.0 0.0 0.0 0.0 0.0 0.0 1.0", "line 5: expected 8 values, got 7"),
    ("1.0 0.0 0.0 0.0 0.0 0.0 1.0 y", "line 5: could not convert"),
    ("", "line 5: expected 8 values, got 0"),
])
def test_a_bad_line_inside_a_run_of_equal_lines_names_itself(tmp_path, bad, message):
    line = "1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0"
    path = tmp_path / "bad.ckpt"
    path.write_text("\n".join(["rank 2, sites 6, time 0.0", *[line] * 3, bad, *[line] * 2])
                    + "\n")
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


# Replacement tokens for the fuzz below: numbers out of range or of the wrong
# kind, words and separators of the layout itself, and the empty token.
FUZZ_TOKENS = ("", "0", "-1", "2", "99999", "1e400", "nan", "-inf", "0.5", "x", "theta",
               "rank", ",", "latch", "1 2")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(with_prev=st.booleans(), with_theta=st.booleans(), with_runs=st.booleans(),
       data=st.data())
def test_a_cut_or_edited_checkpoint_loads_or_names_its_fault(tmp_path_factory, with_prev,
                                                             with_theta, with_runs, data):
    # A saved checkpoint cut at any character, or with one whitespace-separated
    # token deleted, replaced or repeated, either loads or raises a ValueError
    # whose message starts with "checkpoint". ``with_runs`` saves blocks whose
    # site rows come in runs of equal rows.
    metric, theta = _random_field(7, n=3), _random_field(8, n=3)
    if with_runs:
        metric, theta = metric[[0, 0, 1, 1, 1, 2]], theta[[0, 0, 0, 1, 2, 2]]
    state = FlowState(time=0.5, metric=metric, dt=0.25, step=4,
                      logh_prev=1.5 if with_prev else None,
                      residual_prev=2.5e-3 if with_prev else None)
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    save_checkpoint(path, Checkpoint.of(state, theta=theta if with_theta else None))
    text = path.read_text()
    if data.draw(st.booleans(), label="cut"):
        text = text[:data.draw(st.integers(0, len(text)), label="at")]
    else:
        tokens = list(re.finditer(r"\S+", text))
        tok = tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")]
        new = data.draw(st.one_of(st.sampled_from(FUZZ_TOKENS), st.just(f"{tok.group()} {tok.group()}")),
                        label="replacement")
        text = text[:tok.start()] + new + text[tok.end():]
    path.write_text(text)
    try:
        load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith("checkpoint"), str(exc)
