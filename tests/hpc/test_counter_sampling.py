"""Differential tests: whole-trace counter sampling vs the per-window walk.

``sample_trace`` latches a whole trace with array code.  It must agree
with the retired window-by-window sampler in :mod:`tests.oracles.hpc`
byte for byte: the same readings, the same register ``value`` and
``overflowed`` state afterwards, and the same exception type on invalid
counts.  The awkward inputs are the rounding and range edges: ties at
.5 (half to even, as Python's ``round``), ``-0.0``, counts at and past
the 48-bit register width, negative counts, NaN and infinities.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpc.counters import COUNTER_BITS, CounterRegisterFile, sample_trace
from repro.hpc.events import ALL_EVENTS
from repro.hpc.faults import CounterReadGlitchError, GlitchyCounterRegisterFile
from tests.oracles import hpc as oracle

MAX = float((1 << COUNTER_BITS) - 1)

#: Counts that stress rounding, the sign of zero and saturation.
EDGE_COUNTS = [
    0.0,
    -0.0,
    0.5,
    1.5,
    2.5,
    3.5,
    1.4999999999999998,
    0.49999999999999994,
    7.0,
    MAX - 0.5,
    MAX - 1.5,
    MAX,
    MAX + 0.5,
    MAX + 1.0,
    np.nextafter(MAX, np.inf),
    2.0**52 + 1.0,
    1e300,
]
INVALID_COUNTS = [-1.0, -0.5, -1e-300, float("nan"), float("inf"), float("-inf")]


def _register_state(register_file):
    return [(r.event, r.value, r.overflowed) for r in register_file.registers]


def _run(sampler, register_file, trace):
    """``(readings, error type)`` of one sampler call (one is None)."""
    try:
        return sampler(register_file, trace, ALL_EVENTS), None
    except Exception as exc:  # noqa: BLE001 — the type is what is compared
        return None, type(exc)


def _assert_same(trace, events, factory=CounterRegisterFile, calls=1):
    """Both samplers on fresh, identically programmed register files.

    ``calls`` consecutive ``sample_trace`` calls on one file (the second
    sees registers and ``reads_completed`` as the first left them).
    Returns the vectorized file and the per-call readings.
    """
    fast_file, ref_file = factory(), factory()
    fast_file.program(events)
    ref_file.program(events)
    out = []
    for _ in range(calls):
        fast, fast_error = _run(sample_trace, fast_file, trace)
        ref, ref_error = _run(oracle.sample_trace_per_window, ref_file, trace)
        assert fast_error is ref_error
        if ref is None:
            assert fast is None
        else:
            assert fast.dtype == ref.dtype and fast.shape == ref.shape
            assert fast.tobytes() == ref.tobytes()
        assert _register_state(fast_file) == _register_state(ref_file)
        if hasattr(ref_file, "reads_completed"):
            assert fast_file.reads_completed == ref_file.reads_completed
        out.append(fast)
    return fast_file, out


def _trace_with(columns, values):
    """A ``(len(values), 44)`` trace of ones with ``values`` in ``columns``."""
    trace = np.ones((values.shape[0], len(ALL_EVENTS)))
    trace[:, columns] = values
    return trace


_COUNT = st.one_of(
    st.sampled_from(EDGE_COUNTS),
    st.sampled_from(INVALID_COUNTS),
    st.floats(0.0, 1e6),
    st.integers(0, 40).map(lambda k: k + 0.5),
    st.floats(MAX - 4.0, MAX + 4.0),
)


@st.composite
def _cases(draw, counts=_COUNT):
    n_events = draw(st.integers(1, 8))
    events = draw(st.permutations(ALL_EVENTS))[:n_events]
    n_windows = draw(st.integers(0, 12))
    values = np.array(
        draw(st.lists(counts, min_size=n_windows * n_events, max_size=n_windows * n_events)),
        dtype=float,
    ).reshape(n_windows, n_events)
    columns = [ALL_EVENTS.index(e) for e in events]
    return list(events), _trace_with(columns, values)


@settings(max_examples=300, deadline=None)
@given(case=_cases())
def test_sample_trace_matches_per_window_walk(case):
    events, trace = case
    _assert_same(trace, events, factory=lambda: CounterRegisterFile(8), calls=2)


@settings(max_examples=100, deadline=None)
@given(case=_cases(counts=st.sampled_from(EDGE_COUNTS)))
def test_valid_edges_sample_without_error(case):
    events, trace = case
    _, (readings, _) = _assert_same(
        trace, events, factory=lambda: CounterRegisterFile(8), calls=2
    )
    assert readings is not None
    assert not np.signbit(readings).any()  # -0.0 reads as +0.0
    assert (readings <= MAX).all()


@pytest.mark.parametrize(
    "value, reading",
    [(0.5, 0.0), (1.5, 2.0), (2.5, 2.0), (-0.0, 0.0), (MAX, MAX), (MAX + 1.0, MAX)],
)
def test_ties_round_half_to_even_and_saturate(value, reading):
    events = ["cpu_cycles"]
    trace = _trace_with([ALL_EVENTS.index("cpu_cycles")], np.array([[value]]))
    register_file, (readings,) = _assert_same(trace, events)
    assert readings.tobytes() == np.array([[reading]]).tobytes()
    assert register_file.registers[0].overflowed == (value > MAX)


@pytest.mark.parametrize(
    "value, error",
    [
        (-1.0, ValueError),
        (float("nan"), ValueError),
        (float("inf"), OverflowError),
        (float("-inf"), ValueError),  # negative: rejected before rounding
    ],
)
@pytest.mark.parametrize("position", [(0, 0), (2, 1), (4, 2)])
def test_invalid_counts_raise_the_scalar_error(value, error, position):
    events = ["cpu_cycles", "instructions", "branch_misses"]
    values = np.full((5, 3), MAX + 9.0)
    values[position] = value
    trace = _trace_with([ALL_EVENTS.index(e) for e in events], values)
    _assert_same(trace, events)
    with pytest.raises(error):
        sample_trace(_programmed(events), trace, ALL_EVENTS)


def _programmed(events, register_file=None):
    register_file = register_file or CounterRegisterFile(len(events))
    register_file.program(events)
    return register_file


def test_empty_trace_leaves_registers_untouched():
    register_file = _programmed(["cpu_cycles"])
    trace = _trace_with([ALL_EVENTS.index("cpu_cycles")], np.array([[MAX + 3.0]]))
    sample_trace(register_file, trace, ALL_EVENTS)
    readings = sample_trace(register_file, trace[:0], ALL_EVENTS)
    assert readings.shape == (0, 1)
    assert register_file.registers[0].value == MAX
    assert register_file.registers[0].overflowed


# ------------------------------------------------------------ glitches
N_WINDOWS = 6


def _glitch_trace(events):
    rng = np.random.default_rng(4)
    values = np.round(rng.uniform(0, 50, size=(N_WINDOWS, len(events))) * 2) / 2
    return _trace_with([ALL_EVENTS.index(e) for e in events], values)


@pytest.mark.parametrize(
    "glitch_read",
    [None, 0, 1, N_WINDOWS // 2, N_WINDOWS - 1, N_WINDOWS, N_WINDOWS + 2, 2 * N_WINDOWS - 1, 3 * N_WINDOWS],
)
def test_glitch_matches_per_window_walk_across_two_calls(glitch_read):
    """Glitch at window 0, mid-trace, the last window, in the second
    call and past the end, on one file sampled twice."""
    events = ["cpu_cycles", "LLC_loads", "branch_misses"]
    trace = _glitch_trace(events)
    results = []
    for sampler in (sample_trace, oracle.sample_trace_per_window):
        register_file = _programmed(events, GlitchyCounterRegisterFile(4, glitch_read))
        calls = []
        for _ in range(2):
            try:
                calls.append(("ok", sampler(register_file, trace, ALL_EVENTS).tobytes()))
            except CounterReadGlitchError as exc:
                calls.append(("glitch", exc.windows_read))
            calls.append(("reads", register_file.reads_completed))
            calls.append(("state", _register_state(register_file)))
        results.append(calls)
    fast, ref = results
    assert fast == ref
    if glitch_read is not None and glitch_read < 2 * N_WINDOWS:
        first_glitch = next(value for kind, value in fast if kind == "glitch")
        assert first_glitch == glitch_read
    if glitch_read is not None and glitch_read >= N_WINDOWS:
        # the first call read every window before the glitch
        assert fast[0] == ("ok", sample_trace(_programmed(events), trace, ALL_EVENTS).tobytes())


@pytest.mark.parametrize("bad_window, glitch_read", [(2, 2), (2, 3), (3, 2)])
def test_invalid_count_and_glitch_race_like_the_walk(bad_window, glitch_read):
    """The window is counted before it is read: a bad count at the
    glitching window raises the count's error, one after it the glitch."""
    events = ["cpu_cycles", "instructions"]
    trace = _glitch_trace(events)
    trace[bad_window, ALL_EVENTS.index("instructions")] = -3.0
    _assert_same(
        trace,
        events,
        factory=lambda: GlitchyCounterRegisterFile(4, glitch_read),
        calls=2,
    )
