"""Model of a processor's hardware performance counter register file.

Modern processors expose only a handful of programmable counter registers
(4 on the Nehalem Xeon X5550 the paper uses; 2–8 across the market).  This
module models that constraint explicitly: a :class:`CounterRegisterFile`
has a fixed number of programmable slots, each of which must be bound to
one event before it accumulates counts, and counters saturate at their
physical bit width.

The constraint is what makes the paper's problem real: measuring more
events than there are registers requires either time multiplexing or
re-running the workload, both handled by :mod:`repro.hpc.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hpc.events import EVENT_INDEX

#: Number of programmable counter registers on the paper's Xeon X5550.
XEON_X5550_COUNTERS: int = 4

#: Physical width of a Nehalem performance counter register.
COUNTER_BITS: int = 48


class CounterCapacityError(RuntimeError):
    """Raised when more events are programmed than registers exist."""


class CounterStateError(RuntimeError):
    """Raised on invalid register operations (e.g. reading an unbound slot)."""


@dataclass
class CounterRegister:
    """One programmable performance counter register.

    Attributes:
        index: position of the register within the register file.
        event: bound event name, or ``None`` when the slot is free.
        value: accumulated count, saturating at ``2**COUNTER_BITS - 1``.
        enabled: whether the register is currently counting.
    """

    index: int
    event: str | None = None
    value: int = 0
    enabled: bool = False
    overflowed: bool = field(default=False, repr=False)

    @property
    def max_value(self) -> int:
        return (1 << COUNTER_BITS) - 1

    def program(self, event: str) -> None:
        """Bind this register to an event and reset its count."""
        if event not in EVENT_INDEX:
            raise KeyError(f"unknown performance event: {event!r}")
        self.event = event
        self.value = 0
        self.overflowed = False
        self.enabled = True

    def accumulate(self, count: float) -> None:
        """Add an observed count, saturating at the register width."""
        if not self.enabled or self.event is None:
            raise CounterStateError(f"register {self.index} is not programmed")
        if count < 0:
            raise ValueError(f"counts are non-negative, got {count}")
        total = self.value + int(round(count))
        if total > self.max_value:
            self.overflowed = True
            total = self.max_value
        self.value = total

    def release(self) -> None:
        """Unbind the register, freeing the slot."""
        self.event = None
        self.enabled = False
        self.value = 0
        self.overflowed = False


class CounterRegisterFile:
    """A fixed-size file of programmable HPC registers.

    Args:
        n_counters: number of programmable registers (2–8 on real parts).
    """

    def __init__(self, n_counters: int = XEON_X5550_COUNTERS) -> None:
        if n_counters < 1:
            raise ValueError(f"need at least one counter, got {n_counters}")
        self.registers = [CounterRegister(index=i) for i in range(n_counters)]

    @property
    def n_counters(self) -> int:
        return len(self.registers)

    @property
    def programmed_events(self) -> tuple[str, ...]:
        return tuple(r.event for r in self.registers if r.event is not None)

    def program(self, events: list[str] | tuple[str, ...]) -> None:
        """Bind a set of events, one per register.

        Raises:
            CounterCapacityError: if more events are requested than the
                register file has slots — the physical constraint the
                paper's multi-run collection works around.
        """
        events = list(events)
        if len(events) > self.n_counters:
            raise CounterCapacityError(
                f"cannot monitor {len(events)} events concurrently with "
                f"{self.n_counters} counter registers"
            )
        if len(set(events)) != len(events):
            raise ValueError("duplicate events in one programming group")
        self.reset()
        for register, event in zip(self.registers, events):
            register.program(event)

    def observe_window(self, window_counts: dict[str, float]) -> None:
        """Feed one sampling window's raw event activity into the registers.

        Only programmed events are accumulated; everything else is
        invisible, exactly as on real hardware.
        """
        for register in self.registers:
            if register.enabled and register.event is not None:
                register.accumulate(window_counts.get(register.event, 0.0))

    def read(self) -> dict[str, int]:
        """Read the counts of all programmed registers."""
        return {
            r.event: r.value for r in self.registers if r.enabled and r.event is not None
        }

    def reset(self) -> None:
        """Release every register."""
        for register in self.registers:
            register.release()

    def sample_windows(self, counts: np.ndarray) -> np.ndarray:
        """Latch a batch of sampling windows, one reading per window.

        Equivalent to resetting the programmed registers, calling
        :meth:`observe_window` and :meth:`read` once per window, but in
        whole-batch array code: ``np.rint`` rounds half to even like
        Python's ``round``, ``+ 0.0`` turns ``-0.0`` into ``0.0`` like
        the ``int`` round trip, and readings saturate at the register
        width.  Afterwards each register holds the last window's reading
        and its ``overflowed`` flag is set if any window saturated.

        A negative, NaN or infinite count raises the error
        :meth:`CounterRegister.accumulate` raises for it (``ValueError``,
        or ``OverflowError`` for ``+inf``), with the registers left as
        the window-by-window walk leaves them at that count.

        Args:
            counts: array ``(n_windows, n_programmed)`` of raw activity
                of the programmed events, in programming order.

        Returns:
            Array ``(n_windows, n_programmed)`` of readings.
        """
        registers = [r for r in self.registers if r.enabled and r.event is not None]
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape[0] == 0:
            return np.zeros((0, len(registers)))
        if counts.min() >= 0.0 and counts.max() != np.inf:
            return _latch(registers, counts)
        window, slot = first_invalid_count(counts)
        head = counts[: window + 1].copy()
        # Registers from the failing slot on were reset for this window
        # and never accumulated.
        head[window, slot:] = 0.0
        _latch(registers, head)
        registers[slot].accumulate(float(counts[window, slot]))  # raises
        raise AssertionError("accumulate accepted an invalid count")


#: Largest value a register holds, as an exactly representable float.
_MAX_READING = float((1 << COUNTER_BITS) - 1)


def first_invalid_count(counts: np.ndarray) -> tuple[int, int]:
    """``(window, slot)`` of the first negative, NaN or infinite count.

    Windows are scanned in order and slots in programming order within a
    window, the order a window-by-window walk meets them.  ``counts``
    must hold at least one invalid entry.
    """
    invalid = ~(counts >= 0.0) | (counts == np.inf)
    return divmod(int(np.argmax(invalid)), counts.shape[1])


def _latch(registers: list[CounterRegister], counts: np.ndarray) -> np.ndarray:
    """Round, saturate and latch valid counts; return the readings."""
    readings = np.rint(counts)
    saturated = (readings > _MAX_READING).any(axis=0).tolist()
    np.minimum(readings, _MAX_READING, out=readings)
    readings += 0.0
    for register, value, overflow in zip(registers, readings[-1].tolist(), saturated):
        register.value = int(value)
        if overflow:
            register.overflowed = True
    return readings


def sample_trace(
    register_file: CounterRegisterFile,
    trace: np.ndarray,
    event_names: tuple[str, ...],
) -> np.ndarray:
    """Sample a synthesized trace through the register file.

    Args:
        register_file: programmed register file; only its bound events are
            observable.
        trace: array ``(n_windows, n_events)`` of raw per-window activity.
        event_names: column names of ``trace``.

    Returns:
        Array ``(n_windows, n_programmed)`` of per-window readings for the
        programmed events, in programming order.  Registers are reset
        between windows (sampling mode), so each row is a window delta.
    """
    programmed = register_file.programmed_events
    if not programmed:
        raise CounterStateError("no events programmed")
    column = {name: i for i, name in enumerate(event_names)}
    return register_file.sample_windows(trace[:, [column[ev] for ev in programmed]])
