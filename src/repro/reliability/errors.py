"""Typed failure signals for the reliability layer.

Anything the transaction machinery needs to distinguish gets its own
exception class; everything else stays a plain ``RuntimeError``.
"""

from __future__ import annotations


class ReliabilityError(RuntimeError):
    """Base class for failures raised by the reliability layer."""


class FaultInjected(ReliabilityError):
    """Deterministic failure raised by an active :class:`FaultPlan`.

    Tests catch this specific type so a genuine bug surfacing at the same
    spot is never mistaken for the injected fault.
    """

    def __init__(self, site: str, note: str = "") -> None:
        msg = f"injected fault at {site!r}"
        if note:
            msg += f" ({note})"
        super().__init__(msg)
        self.site = site


class UpdateRejected(Exception):
    """An update refused before it changed anything: an unknown
    relation, a row of the wrong arity, an over-delete, an invalid rule
    change.  The same input fails the same way every time, so the
    pipeline re-raises it at once instead of retrying.  It is raised as
    :class:`RejectedKeyError` or :class:`RejectedValueError`, so a caller
    catching the ``KeyError`` / ``ValueError`` the check raises still
    catches it."""

    @staticmethod
    def of(error: Exception) -> "UpdateRejected":
        """``error`` (a ``KeyError`` or ``ValueError``) as a rejection."""
        kind = RejectedKeyError if isinstance(error, KeyError) else RejectedValueError
        return kind(*error.args)


class RejectedKeyError(UpdateRejected, KeyError):
    """A rejection whose check raised ``KeyError``."""


class RejectedValueError(UpdateRejected, ValueError):
    """A rejection whose check raised ``ValueError``."""


class RollbackError(ReliabilityError):
    """A transactional rollback failed to restore a consistent state.

    Raised when the post-rollback ``check_consistency`` audit fails; the
    engine should be considered corrupt and rebuilt from the WAL.
    """


class WALCorruptionError(ReliabilityError):
    """The write-ahead log is damaged somewhere other than its tail.

    A torn *final* frame is the expected signature of a crash mid-append
    and is silently discarded; a bad frame with valid data after it means
    the log was corrupted in place (bit rot, a seek-and-scribble bug) and
    no suffix of it can be trusted — recovery must refuse to replay.
    """


class ProcessCrash(BaseException):
    """Simulated SIGKILL for the fault harness's ``crash`` action.

    Deliberately a :class:`BaseException`: every transactional handler in
    the stack catches ``Exception`` to roll back, but a killed process
    runs no handlers at all — this signal flies past rollback, retry and
    WAL-close paths exactly as a real kill would, leaving the durable
    state (WAL with an open transaction, last checkpoint) as the only
    survivors.  Only the service's crash boundary may catch it.
    """

    def __init__(self, site: str = "", note: str = "") -> None:
        msg = f"simulated process kill at {site!r}"
        if note:
            msg += f" ({note})"
        super().__init__(msg)
        self.site = site
