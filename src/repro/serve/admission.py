"""Ingress admission control: priority classes + per-tenant token buckets.

Sits in front of the batcher queue (ISSUE 8).  Two independent gates,
both answering HTTP 429 with ``Retry-After`` when they shed:

* **Priority watermarks** — requests carry a priority class
  (``interactive`` < ``standard`` < ``batch``; lower level = more
  important).  As the batcher queue fills, lower-importance classes are
  shed first: ``batch`` traffic sheds at 50% fill, ``standard`` at
  75%, ``interactive`` only at 95%.  Under overload the queue's
  remaining headroom is therefore reserved for the traffic with the
  tightest deadlines — which is what keeps the tight class's p99 inside
  its deadline at 2x capacity (the gated ``overload_goodput`` entry in
  ``BENCH_serve.json`` measures exactly this).
* **Per-tenant token buckets** — optional (``tenant_rate`` requests/s,
  burst ``tenant_burst``); one bucket per ``tenant`` string.  A tenant
  over its rate is shed with ``Retry-After`` set to when its bucket
  refills, so one noisy client cannot starve the rest.

Admission never queues and never blocks: the decision is O(1) at
ingress, and a shed request costs the server nothing downstream.  See
docs/operations.md "Overload & incident runbook".
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

#: Priority class name -> level.  Lower level = more important = shed last.
PRIORITY_LEVELS = {"interactive": 0, "standard": 1, "batch": 2}

DEFAULT_PRIORITY = "standard"

#: Queue-fill fraction above which each class is shed.
DEFAULT_WATERMARKS = {"batch": 0.50, "standard": 0.75, "interactive": 0.95}


class RequestShed(Exception):
    """Admission refused the request (HTTP 429 + ``Retry-After``)."""

    def __init__(self, reason: str, retry_after: float, priority: str,
                 tenant: Optional[str] = None):
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after
        self.priority = priority
        self.tenant = tenant


def resolve_priority(name: Optional[str]) -> str:
    """Validate/normalise a request's priority class (400 on typo —
    silently downgrading a mistyped ``interactive`` would be cruel)."""
    if name is None or name == "":
        return DEFAULT_PRIORITY
    key = str(name).strip().lower()
    if key not in PRIORITY_LEVELS:
        raise ValueError(
            f"unknown priority {name!r} "
            f"(one of: {', '.join(sorted(PRIORITY_LEVELS))})"
        )
    return key


@dataclass
class AdmissionPolicy:
    """Knobs for the ingress gate (``repro serve --tenant-rate/-burst``).

    ``tenant_rate <= 0`` disables the per-tenant buckets entirely —
    the default, matching the pre-admission behaviour for untagged
    traffic.  Watermark shedding is always on; with an empty queue it
    never triggers, so single-tenant low-load callers see no change.
    """

    tenant_rate: float = 0.0
    tenant_burst: float = 10.0
    shed_watermarks: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WATERMARKS)
    )

    def __post_init__(self):
        if self.tenant_rate < 0:
            raise ValueError("tenant_rate must be >= 0")
        if self.tenant_burst <= 0:
            raise ValueError("tenant_burst must be > 0")
        for name in self.shed_watermarks:
            if name not in PRIORITY_LEVELS:
                raise ValueError(f"watermark for unknown priority {name!r}")

    def to_dict(self) -> dict:
        return asdict(self)


class TokenBucket:
    """Classic token bucket; caller provides the clock for testability."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def take(self, now: float, cost: float = 1.0):
        """Try to spend ``cost`` tokens.  Returns ``(ok, retry_after_s)``;
        ``retry_after`` is how long until the bucket holds ``cost``."""
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True, 0.0
        needed = cost - self.tokens
        retry_after = needed / self.rate if self.rate > 0 else 1.0
        return False, retry_after


class AdmissionController:
    """The ingress gate: one per server, shared across models.

    ``admit`` raises :class:`RequestShed` or returns the resolved
    priority level for the batcher's priority queue.  Thread-safe (the
    server calls it from the event loop; tests call it directly).
    """

    #: ``/healthz`` reports ``degraded (shedding)`` while a shed
    #: happened within this many seconds.
    SHED_RECENT_S = 5.0

    def __init__(self, policy: Optional[AdmissionPolicy] = None,
                 clock=time.monotonic):
        self.policy = policy or AdmissionPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self.shed_total = 0
        self.shed_by_reason: Dict[str, int] = {}
        self.admitted_total = 0
        self._last_shed_at: Optional[float] = None

    def _shed(self, reason: str, retry_after: float, priority: str,
              tenant: Optional[str]) -> None:
        with self._lock:
            self.shed_total += 1
            self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
            self._last_shed_at = self._clock()
        raise RequestShed(reason, retry_after, priority, tenant)

    def admit(self, priority: str, queue_fill: float,
              tenant: Optional[str] = None) -> int:
        """Gate one request.

        ``queue_fill`` is the target batcher queue's current fill
        fraction (``qsize / max_queue``).  Returns the priority *level*
        (int) on admission; raises :class:`RequestShed` otherwise.
        Tenant buckets are checked first — a rate-limited tenant is
        shed even on an idle server.
        """
        level = PRIORITY_LEVELS[priority]
        if tenant is not None and self.policy.tenant_rate > 0:
            now = self._clock()
            with self._lock:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = self._buckets[tenant] = TokenBucket(
                        self.policy.tenant_rate, self.policy.tenant_burst, now
                    )
                ok, retry_after = bucket.take(now)
            if not ok:
                self._shed(
                    f"tenant {tenant!r} over its rate "
                    f"({self.policy.tenant_rate:g} rps)",
                    retry_after, priority, tenant,
                )
        watermark = self.policy.shed_watermarks.get(priority, 1.0)
        if queue_fill >= watermark:
            # Retry-After scales with how far past the watermark we
            # are: deep overload tells clients to back off harder.
            overshoot = max(0.0, queue_fill - watermark)
            self._shed(
                f"queue {queue_fill:.0%} full, past the "
                f"{priority} watermark ({watermark:.0%})",
                round(0.05 + 0.5 * overshoot, 3), priority, tenant,
            )
        with self._lock:
            self.admitted_total += 1
        return level

    def shedding_recently(self) -> bool:
        with self._lock:
            last = self._last_shed_at
        return last is not None and (self._clock() - last) < self.SHED_RECENT_S

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "policy": self.policy.to_dict(),
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "shed_by_reason": dict(self.shed_by_reason),
                "tenants_tracked": len(self._buckets),
            }
