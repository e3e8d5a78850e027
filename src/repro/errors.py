"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(ReproError):
    """A graph file or edge list could not be parsed or is inconsistent."""


class GraphStructureError(ReproError):
    """A graph object violates a structural invariant (bad CSR, etc.)."""


class ConfigError(ReproError):
    """An algorithm configuration is invalid or inconsistent."""


class ConvergenceError(ReproError):
    """An algorithm failed to make progress within its iteration budget."""


class MetricsError(ReproError):
    """A metric instrument is invalid or misused."""


class ServiceError(ReproError):
    """The partition-serving subsystem failed to satisfy a request."""


class ServiceOverloadError(ServiceError):
    """The service admission queue is full (backpressure).

    Raised by :meth:`repro.service.server.PartitionServer.submit` when
    the bounded admission queue rejects a request; clients are expected
    to drain or back off and resubmit.
    """


class SimulatedOutOfMemory(ReproError):
    """A simulated device (GPU model) ran out of device memory.

    Mirrors the cuGraph OOM failures the paper reports on arabic-2005,
    uk-2005, webbase-2001, it-2004 and sk-2005.
    """

    def __init__(self, required_bytes: int, capacity_bytes: int,
                 what: str = "graph", alloc_trace=None):
        self.required_bytes = int(required_bytes)
        self.capacity_bytes = int(capacity_bytes)
        self.what = what
        #: Largest-first ``component/what phase=... N B`` lines from the
        #: device memory ledger, naming what filled the budget (empty
        #: when the failing model did not stage its allocations).
        self.alloc_trace = list(alloc_trace) if alloc_trace else []
        message = (
            f"simulated device out of memory: {what} needs "
            f"{required_bytes} B but device holds {capacity_bytes} B"
        )
        if self.alloc_trace:
            message += "\n  allocation trace (largest first):\n    " + \
                "\n    ".join(self.alloc_trace)
        super().__init__(message)
