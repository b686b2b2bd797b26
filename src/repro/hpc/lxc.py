"""Isolated execution contexts modelled after Linux Containers (LXC).

The paper executes every application inside an LXC container and destroys
the container after each run so that a malware run cannot contaminate the
measurements of the next application.  This module models that protocol:

* a :class:`Container` provides an isolated execution of one
  :class:`~repro.hpc.microarch.ApplicationBehavior` with its own random
  stream;
* running *malware* inside a container leaves **contamination** behind
  (background daemons, dirty caches, stray processes) that inflates the
  event noise of any later run in the same container;
* :class:`ContainerPool` enforces the paper's destroy-after-run policy and
  exposes a knob to disable it, so the contamination effect itself can be
  measured (an ablation the paper motivates but does not quantify);
  :meth:`ContainerPool.run_many` runs a batch of executions with one
  synthesis call and the same traces as one run each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.hpc.microarch import (
    DEFAULT_WINDOW_MS,
    ApplicationBehavior,
    ExecutionDraws,
    synthesize_executions,
)

#: Extra run-to-run noise added per contaminated prior run.
CONTAMINATION_SIGMA_STEP: float = 0.08


class ContainerDestroyedError(RuntimeError):
    """Raised when an execution is attempted in a destroyed container."""


@dataclass
class Container:
    """One operating-system-level virtualized execution environment.

    Attributes:
        container_id: unique id within the pool.
        seed: seed of the container's private random stream.
        contamination_level: number of malicious runs executed in this
            container since creation; inflates noise of later runs.
    """

    container_id: int
    seed: int
    contamination_level: int = 0
    destroyed: bool = field(default=False, repr=False)
    runs_executed: int = field(default=0, repr=False)

    def draw(
        self, app: ApplicationBehavior, n_windows: int, is_malware: bool
    ) -> ExecutionDraws:
        """Take one execution's random draws from the container's stream.

        The execution draws from its own generator,
        ``default_rng((seed, runs_executed))``, with run-to-run noise
        widened by the contamination level; a malicious run then
        contaminates the container for the runs after it.

        Raises:
            ContainerDestroyedError: if the container was destroyed.
        """
        if self.destroyed:
            raise ContainerDestroyedError(
                f"container {self.container_id} has been destroyed"
            )
        rng = np.random.default_rng((self.seed, self.runs_executed))
        run_sigma = 0.05 + CONTAMINATION_SIGMA_STEP * self.contamination_level
        draws = app.draw(n_windows, rng, run_sigma)
        self.runs_executed += 1
        if is_malware:
            self.contamination_level += 1
        return draws

    def execute(
        self,
        app: ApplicationBehavior,
        n_windows: int,
        is_malware: bool,
        window_ms: float = DEFAULT_WINDOW_MS,
    ) -> np.ndarray:
        """Execute an application and return its raw 44-event trace.

        Args:
            app: behaviour model to execute.
            n_windows: number of 10 ms sampling windows to run for.
            is_malware: whether the application is malicious; malicious
                runs contaminate the container for subsequent runs.
            window_ms: sampling window length.

        Returns:
            Array ``(n_windows, 44)`` of raw event activity.

        Raises:
            ContainerDestroyedError: if the container was destroyed.
        """
        (trace,) = synthesize_executions(
            [self.draw(app, n_windows, is_malware)], window_ms
        )
        return trace

    def destroy(self) -> None:
        """Tear the container down; further executions raise."""
        self.destroyed = True


class ContainerPool:
    """Factory applying the paper's destroy-after-each-run policy.

    Args:
        seed: base seed; each container derives a unique stream from it.
        destroy_after_run: when True (the paper's protocol) every
            :meth:`run` gets a fresh container which is destroyed
            afterwards.  When False a single container is reused and
            malware runs progressively contaminate it.
    """

    def __init__(self, seed: int = 0, destroy_after_run: bool = True) -> None:
        self.seed = seed
        self.destroy_after_run = destroy_after_run
        self._next_id = 0
        self._reused: Container | None = None
        self.containers_created = 0

    def _create(self) -> Container:
        container = Container(container_id=self._next_id, seed=self.seed + self._next_id)
        self._next_id += 1
        self.containers_created += 1
        return container

    def run(
        self,
        app: ApplicationBehavior,
        n_windows: int,
        is_malware: bool,
        window_ms: float = DEFAULT_WINDOW_MS,
    ) -> np.ndarray:
        """Execute one application under the pool's isolation policy."""
        (trace,) = self.run_many([(app, n_windows, is_malware)], window_ms)
        return trace

    def run_many(
        self,
        jobs: Iterable[tuple[ApplicationBehavior, int, bool]],
        window_ms: float = DEFAULT_WINDOW_MS,
    ) -> list[np.ndarray]:
        """Execute ``(app, n_windows, is_malware)`` jobs in order.

        Each job runs in the container :meth:`run` would give it and
        takes its draws from that container's stream, in job order, so
        pool state and traces equal those of one :meth:`run` per job.
        The windows of all jobs are then synthesized in one kernel call
        (:func:`~repro.hpc.microarch.synthesize_executions`).

        Returns:
            One ``(n_windows, 44)`` trace per job; the traces of several
            jobs are views of one array.
        """
        draws = []
        for app, n_windows, is_malware in jobs:
            if self.destroy_after_run:
                container = self._create()
                try:
                    draws.append(container.draw(app, n_windows, is_malware))
                finally:
                    container.destroy()
                continue
            if self._reused is None:
                self._reused = self._create()
            draws.append(self._reused.draw(app, n_windows, is_malware))
        return synthesize_executions(draws, window_ms)
