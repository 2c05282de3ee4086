"""Token-bucket admission control for hot index holders (DESIGN.md §13).

The paper's routing scheme (Sec. III) concentrates popular key ranges
on few holders; under Zipf-skewed publish traffic a single data center
can receive a disproportionate share of ``MbrPublish`` messages.
Admission control bounds the *accepted* publish rate per holder with a
classic token bucket and pushes the excess back to the sources instead
of queueing it locally:

* a shed publish is answered with a ``LoadShed`` notice so the source
  re-publishes the summary later (soft state keeps this safe — a lost
  or deferred publish is indistinguishable from a delayed refresh);
* a rate-limited ``Backpressure`` advisory asks the source to stretch
  its publish cadence, draining the overload at its origin.

Everything here is simulated-time arithmetic over ``transport.now``;
there is no wall-clock dependence, so runs remain deterministic.  With
``MiddlewareConfig.admission_control=False`` the controller is inert:
``admit`` always returns True and no notices are emitted.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["TokenBucket", "AdmissionController", "ADMISSION_BURST"]

#: bucket depth: publishes a quiet holder absorbs at once without shedding
ADMISSION_BURST = 10.0


class TokenBucket:
    """A standard token bucket over simulated milliseconds.

    ``rate_per_s`` tokens accrue per simulated second up to ``burst``;
    each admitted event spends one token.  The bucket starts full so a
    quiet holder absorbs an initial burst without shedding.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_ms = 0.0

    def _refill(self, now_ms: float) -> None:
        if now_ms > self._last_ms:
            self.tokens = min(
                self.burst,
                self.tokens + (now_ms - self._last_ms) / 1000.0 * self.rate_per_s,
            )
            self._last_ms = now_ms

    def try_take(self, now_ms: float) -> bool:
        """Spend one token if available; False means the event is shed."""
        self._refill(now_ms)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-holder admission policy: one bucket plus advisory pacing.

    ``admit`` gates each arriving publish against a bucket of depth
    :data:`ADMISSION_BURST`.  ``should_advise`` rate-limits
    ``Backpressure`` advisories per source so a sustained overload does
    not itself become a message storm: at most one advisory per source
    per ``advise_interval_ms``.  ``slow_down_ms`` is the cadence the
    holder suggests — the bucket's steady-state inter-admission gap.
    """

    def __init__(self, rate_per_s: float, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.bucket = TokenBucket(rate_per_s, ADMISSION_BURST)
        #: suggested inter-publish gap at the sustainable rate
        self.slow_down_ms = 1000.0 / rate_per_s
        #: minimum spacing between advisories to the same source
        self.advise_interval_ms = 4 * self.slow_down_ms
        self._last_advice_ms: Dict[str, float] = {}

    def admit(self, now_ms: float) -> bool:
        """True when the publish may be indexed; False when it is shed."""
        if not self.enabled:
            return True
        return self.bucket.try_take(now_ms)

    def should_advise(self, source: str, now_ms: float) -> bool:
        """True when a Backpressure advisory to ``source`` is due."""
        last = self._last_advice_ms.get(source)
        if last is not None and now_ms - last < self.advise_interval_ms:
            return False
        self._last_advice_ms[source] = now_ms
        return True
