"""What ``IndexConfig.adaptive_maintenance`` turns on, and with which constants.

With the switch off (the paper and scale cells) every periodic protocol runs
on its fixed :class:`~repro.index.config.IndexConfig` timer, bit for bit the
historical behaviour.  With it on (the ``*_adaptive`` cells) four mechanisms
run together:

* **Validation back-off.**  The successor-validation ``ring_ping`` loop backs
  off while validations succeed and tightens after a failure or membership
  change (:class:`~repro.maintenance.cadence.AdaptiveCadence`).  Two passive
  skips ride along: a successor confirmed alive within
  :data:`FRESHNESS_FACTOR` stabilization periods is not re-pinged, and a
  predecessor that stabilized with us within :data:`PASSIVE_FACTOR`
  predecessor-check periods is not pinged.
* **Router back-off.**  The content router's table refresh backs off while
  refreshes reproduce the same table without errors, up to
  :data:`ROUTER_BACKOFF_MAX` (tables go stale only when membership moves).
* **RTT scaling.**  Stabilization and replica refresh run on periods scaled
  from the network's observed round trip
  (:class:`~repro.maintenance.cadence.RttScaledCadence`).
* **Redirect cache.**  Each peer answers stale-pointer joins from a bounded,
  TTL'd cache of recently observed members
  (:class:`~repro.maintenance.redirect_cache.RedirectCache`).

This module is the only place that knows the mapping; the ring, replication
and router layers ask it for their controllers.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.maintenance.cadence import (
    AdaptiveCadence,
    CadenceController,
    FixedCadence,
    RttScaledCadence,
)
from repro.maintenance.redirect_cache import RedirectCache

BACKOFF_GROWTH = 2.0
VALIDATION_BACKOFF_MAX = 4.0
ROUTER_BACKOFF_MAX = 6.0
SUCCESS_THRESHOLD = 2
FRESHNESS_FACTOR = 1.5
PASSIVE_FACTOR = 1.5
REFERENCE_RTT = 0.004
CADENCE_FLOOR = 0.5
REDIRECT_CACHE_SIZE = 16
REDIRECT_CACHE_TTL = 30.0


def validation_cadence(adaptive: bool, base: float) -> CadenceController:
    """The controller pacing the successor-validation ``ring_ping`` loop."""
    if not adaptive:
        return FixedCadence(base)
    return AdaptiveCadence(
        base,
        growth=BACKOFF_GROWTH,
        max_factor=VALIDATION_BACKOFF_MAX,
        success_threshold=SUCCESS_THRESHOLD,
    )


def router_cadence(adaptive: bool, base: float) -> CadenceController:
    """The controller pacing the content router's table refresh loop."""
    if not adaptive:
        return FixedCadence(base)
    return AdaptiveCadence(
        base,
        growth=BACKOFF_GROWTH,
        max_factor=ROUTER_BACKOFF_MAX,
        success_threshold=SUCCESS_THRESHOLD,
    )


def validation_freshness(adaptive: bool, stabilization_period: float) -> Optional[float]:
    """How long a confirmed successor is exempt from re-pings (``None``: never)."""
    return FRESHNESS_FACTOR * stabilization_period if adaptive else None


def passive_window(adaptive: bool, predecessor_check_period: float) -> Optional[float]:
    """How long a predecessor that stabilized with us is exempt from pings."""
    return PASSIVE_FACTOR * predecessor_check_period if adaptive else None


def maintenance_interval(
    adaptive: bool, base: float, rtt_source: Callable[[], Optional[float]]
) -> Union[float, Callable[[], float]]:
    """The period source of a stabilization or replica-refresh loop.

    The plain ``base`` float when the switch is off, or a callable that
    re-reads the observed round trip before every round; both shapes are
    accepted by :meth:`repro.transport.endpoint.Endpoint.every`.
    """
    if not adaptive:
        return base
    return RttScaledCadence(
        base, rtt_source, reference_rtt=REFERENCE_RTT, floor=CADENCE_FLOOR
    ).interval


def build_redirect_cache(adaptive: bool) -> Optional[RedirectCache]:
    """The per-peer join-redirect cache, or ``None`` when the switch is off."""
    if not adaptive:
        return None
    return RedirectCache(REDIRECT_CACHE_SIZE, ttl=REDIRECT_CACHE_TTL)
