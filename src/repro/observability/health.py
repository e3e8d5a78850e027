"""Rolling-window SLO evaluation on the partition server's logical clock.

Service-level objectives are declared as :class:`SLObjective` config — a
target on one recorded *signal* plus an error budget — and classified by
the multi-window, multi-burn-rate method (Google SRE workbook chapter
5): the **burn rate** is the fraction of bad events in a window divided
by the budget, and an alert fires only when *both* a long window (is the
budget really burning?) and a short window (is it still burning *now*?)
exceed the threshold.  Two thresholds give three states:

- ``PAGE`` — burn ≥ ``page_burn`` in both windows (budget exhausts far
  too fast; wake someone up);
- ``WARN`` — burn ≥ ``warn_burn`` in both windows;
- ``OK`` — otherwise, including the empty-window case (no traffic means
  no budget burn).

Windows advance on the **server's logical clock** (deterministic work
units, the same clock latencies are measured on), never wall time, so
health evaluation is byte-reproducible and testable: a clock jump from a
full-recompute fallback simply ages old samples out of the window, it
cannot skew a rate.

The evaluator is fed by the server (:meth:`HealthEvaluator.record_value`
for measurements like latency, :meth:`~HealthEvaluator.record_event` for
good/bad outcomes like request errors) and queried at any clock with
:meth:`~HealthEvaluator.evaluate`, which returns the JSON-ready
``repro.health/1`` block embedded in metrics snapshots and
``stats_snapshot()``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Sequence, Tuple

from repro.errors import MetricsError

__all__ = [
    "HEALTH_SCHEMA",
    "SLObjective",
    "HealthEvaluator",
    "default_service_slos",
]

#: Version tag of the ``health`` block.
HEALTH_SCHEMA = "repro.health/1"

#: Severity order used to aggregate per-objective states.
_STATES = ("OK", "WARN", "PAGE")


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective over a recorded signal.

    ``kind`` selects how samples are judged bad:

    - ``"latency"`` — samples are measurements; a sample is bad when its
      value exceeds ``target`` (e.g. QUERY latency in clock units);
    - ``"ratio"`` — samples are 0.0 (good) / 1.0 (bad) events recorded
      by the producer (e.g. request errors, stale-serve events);
      ``target`` is unused and conventionally 0.

    ``budget`` is the tolerated bad fraction (0.001 = 99.9 % objective).
    ``long_window`` / ``short_window`` are clock-unit window lengths;
    ``warn_burn`` / ``page_burn`` are the burn-rate thresholds.
    """

    name: str
    signal: str
    kind: str = "latency"
    target: float = 0.0
    budget: float = 0.01
    long_window: int = 4096
    short_window: int = 512
    warn_burn: float = 1.0
    page_burn: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "ratio"):
            raise MetricsError(
                f"SLO {self.name!r}: unknown kind {self.kind!r}")
        if not (0.0 < self.budget <= 1.0):
            raise MetricsError(
                f"SLO {self.name!r}: budget must be in (0, 1], "
                f"got {self.budget}")
        if self.short_window <= 0 or self.long_window <= 0:
            raise MetricsError(
                f"SLO {self.name!r}: windows must be positive")
        if self.short_window > self.long_window:
            raise MetricsError(
                f"SLO {self.name!r}: short_window {self.short_window} "
                f"exceeds long_window {self.long_window}")
        if self.warn_burn <= 0 or self.page_burn < self.warn_burn:
            raise MetricsError(
                f"SLO {self.name!r}: need 0 < warn_burn <= page_burn")

    def is_bad(self, value: float) -> bool:
        if self.kind == "latency":
            return value > self.target
        return value >= 1.0

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "signal": self.signal,
            "kind": self.kind,
            "target": self.target,
            "budget": self.budget,
            "long_window": self.long_window,
            "short_window": self.short_window,
            "warn_burn": self.warn_burn,
            "page_burn": self.page_burn,
        }


def default_service_slos() -> Tuple[SLObjective, ...]:
    """The stock objectives attached by ``repro serve --metrics``.

    Tuned to the deterministic workload profiles: QUERY latency in the
    low tens of clock units when healthy, errors rare, and most queries
    served fresh.
    """
    return (
        SLObjective(
            name="query_latency_p99",
            signal="query_latency_units",
            kind="latency",
            target=64.0,
            budget=0.01,
            long_window=4096,
            short_window=512,
            warn_burn=1.0,
            page_burn=8.0,
        ),
        SLObjective(
            name="error_ratio",
            signal="request_errors",
            kind="ratio",
            budget=0.02,
            long_window=4096,
            short_window=512,
            warn_burn=1.0,
            page_burn=8.0,
        ),
        SLObjective(
            name="refresh_staleness",
            signal="stale_serves",
            kind="ratio",
            budget=0.10,
            long_window=4096,
            short_window=512,
            warn_burn=1.0,
            page_burn=4.0,
        ),
        SLObjective(
            name="mem_peak_to_budget",
            signal="mem_peak_to_budget_ratio",
            kind="latency",
            target=1.0,
            budget=0.01,
            long_window=4096,
            short_window=512,
            warn_burn=1.0,
            page_burn=8.0,
        ),
    )


class HealthEvaluator:
    """Rolling-window burn-rate classifier over logical-clock signals.

    Samples are ``(clock, value)`` pairs kept per signal and pruned on
    record to the longest window any objective declares on that signal,
    so memory stays bounded by traffic within one long window.  Samples
    for signals no objective watches are dropped immediately.
    """

    def __init__(self, objectives: Sequence[SLObjective] = ()) -> None:
        self.objectives: Tuple[SLObjective, ...] = tuple(objectives)
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise MetricsError(f"duplicate SLO names: {sorted(names)}")
        self._horizon: Dict[str, int] = {}
        for obj in self.objectives:
            cur = self._horizon.get(obj.signal, 0)
            self._horizon[obj.signal] = max(cur, obj.long_window)
        self._samples: Dict[str, Deque[Tuple[int, float]]] = {
            signal: deque() for signal in self._horizon
        }

    # -- recording ---------------------------------------------------------

    def record_value(self, signal: str, clock: int, value: float) -> None:
        """Record a measurement sample (latency, staleness age, ...)."""
        buf = self._samples.get(signal)
        if buf is None:
            return
        buf.append((int(clock), float(value)))
        self._prune(signal, int(clock))

    def record_event(self, signal: str, clock: int, bad: bool) -> None:
        """Record a good/bad outcome for a ratio objective."""
        self.record_value(signal, clock, 1.0 if bad else 0.0)

    def _prune(self, signal: str, clock: int) -> None:
        horizon = self._horizon[signal]
        buf = self._samples[signal]
        floor = clock - horizon
        while buf and buf[0][0] <= floor:
            buf.popleft()

    # -- evaluation --------------------------------------------------------

    def _window_burn(self, obj: SLObjective, clock: int,
                     window: int) -> Tuple[float, int, int]:
        """(burn_rate, bad, total) over ``(clock - window, clock]``."""
        buf = self._samples.get(obj.signal, ())
        floor = clock - window
        bad = total = 0
        for ts, value in buf:
            if ts <= floor or ts > clock:
                continue
            total += 1
            if obj.is_bad(value):
                bad += 1
        if total == 0:
            return 0.0, 0, 0
        return (bad / total) / obj.budget, bad, total

    def evaluate_objective(self, obj: SLObjective, clock: int) -> dict:
        long_burn, long_bad, long_total = self._window_burn(
            obj, clock, obj.long_window)
        short_burn, short_bad, short_total = self._window_burn(
            obj, clock, obj.short_window)
        if long_burn >= obj.page_burn and short_burn >= obj.page_burn:
            state = "PAGE"
        elif long_burn >= obj.warn_burn and short_burn >= obj.warn_burn:
            state = "WARN"
        else:
            state = "OK"
        return {
            "name": obj.name,
            "signal": obj.signal,
            "state": state,
            "long": {
                "window": obj.long_window,
                "samples": long_total,
                "bad": long_bad,
                "burn_rate": round(long_burn, 6),
            },
            "short": {
                "window": obj.short_window,
                "samples": short_total,
                "bad": short_bad,
                "burn_rate": round(short_burn, 6),
            },
        }

    def evaluate(self, clock: int) -> dict:
        """The ``repro.health/1`` block at logical time ``clock``.

        Overall state is the worst per-objective state; an evaluator
        with no objectives is trivially ``OK``.
        """
        results = [self.evaluate_objective(o, int(clock))
                   for o in self.objectives]
        worst = 0
        for r in results:
            worst = max(worst, _STATES.index(r["state"]))
        return {
            "schema": HEALTH_SCHEMA,
            "clock": int(clock),
            "state": _STATES[worst],
            "objectives": results,
        }

    def state(self, clock: int) -> str:
        """Just the overall OK/WARN/PAGE classification."""
        return self.evaluate(clock)["state"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HealthEvaluator({len(self.objectives)} objectives, "
                f"{sum(len(b) for b in self._samples.values())} samples)")
