"""Deterministic fault-injection harness.

A :class:`FaultPlan` is a seeded list of :class:`Fault` specs, activated
with :func:`inject_faults`.  Instrumented code calls
:func:`maybe_fire(site, ...) <maybe_fire>` at named injection points; the
call is a no-op (one global read + ``None`` check) when no plan is
active, so production paths pay nothing.

Actions:

``raise``
    Raise :class:`FaultInjected` at the site.
``delay``
    Sleep ``fault.delay`` seconds at the site.
``corrupt``
    Scribble seeded random bytes over the middle of a file (sites that
    pass a ``path`` — e.g. the service's ``service.checkpoint.write``,
    simulating on-disk corruption).
``crash``
    Raise :class:`ProcessCrash` — a ``BaseException`` that no
    transactional ``except Exception`` handler can intercept, simulating
    SIGKILL mid-pipeline: rollback, retry and WAL-close paths all skip,
    leaving only the durable state behind.  The service's crash boundary
    (and tests) catch it explicitly.

All firing decisions are per-fault visit counters — no wall clock, no
process-level randomness — so a plan replays identically.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.reliability.errors import FaultInjected, ProcessCrash

#: Injection points instrumented across the stack.  Kept in one place so
#: tests can iterate over "every injection point, one at a time" — and so
#: :class:`FaultPlan` can reject a typo'd site at construction instead of
#: letting the fault silently never fire (a chaos test that injects at a
#: nonexistent site passes vacuously).
INJECTION_POINTS = (
    "engine.update.start",
    "engine.update.patched",
    "engine.update.inferred",
    "engine.relearn.start",
    "learn.epoch",
    "ground.update.start",
    "ground.update.finish",
    "service.queue.put",
    "service.batch.start",
    "service.batch.commit",
    "service.checkpoint.write",
    "service.read.start",
    "service.recover.start",
)

_ACTIONS = frozenset({"raise", "delay", "corrupt", "crash"})


@dataclass
class Fault:
    """One planned failure.

    Fires on the ``at``-th visit (1-based) to ``site``; with
    ``repeat=True`` it keeps firing on every later visit too.
    """

    site: str
    action: str = "raise"
    at: int = 1
    repeat: bool = False
    delay: float = 0.02
    note: str = ""
    # Internal visit counter (matching visits seen so far).
    _visits: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    ``fired`` records ``(site, action, context)`` tuples in firing order
    so tests can assert the plan actually triggered.
    """

    def __init__(self, faults, seed: int = 0, extra_sites=()) -> None:
        self.faults = [f if isinstance(f, Fault) else Fault(**f) for f in faults]
        known = set(INJECTION_POINTS) | set(extra_sites)
        unknown = sorted({f.site for f in self.faults} - known)
        if unknown:
            # An unknown site would silently never fire and the chaos
            # test around it would pass without testing anything.
            raise ValueError(
                f"unknown injection site(s) {unknown}; known sites: "
                f"{sorted(known)}"
            )
        self.rng = np.random.default_rng(seed)
        self.fired: list[tuple[str, str, dict]] = []

    def fire(self, site: str, **ctx):
        """Visit ``site``; return the triggered :class:`Fault` or None.

        Every action is executed here: the caller needs no logic.
        """
        for fault in self.faults:
            if fault.site != site:
                continue
            fault._visits += 1
            due = (
                fault._visits == fault.at
                or (fault.repeat and fault._visits > fault.at)
            )
            if not due:
                continue
            self.fired.append((site, fault.action, dict(ctx)))
            if fault.action == "raise":
                raise FaultInjected(site, fault.note)
            if fault.action == "crash":
                raise ProcessCrash(site, fault.note)
            if fault.action == "delay":
                time.sleep(fault.delay)
                return fault
            if fault.action == "corrupt":
                path = ctx.get("path")
                if path is not None:
                    self._corrupt_file(path)
                return fault
            return fault
        return None

    def _corrupt_file(self, path) -> None:
        """Scribble seeded garbage over the middle of a file on disk."""
        size = os.path.getsize(path)
        if size == 0:
            return
        span = min(64, size)
        offset = int(self.rng.integers(0, max(size - span, 0) + 1))
        garbage = self.rng.integers(0, 256, size=span, dtype=np.uint8)
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(garbage.tobytes())

    def fired_sites(self) -> list[str]:
        return [site for site, _, _ in self.fired]


# --------------------------------------------------------------------- #
# Active-plan plumbing.

_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def maybe_fire(site: str, **ctx):
    """Hook call placed at each injection point; no-op when inactive."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site, **ctx)


@contextmanager
def inject_faults(plan: FaultPlan):
    """Activate ``plan`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous
