"""Adaptive ring-maintenance subsystem: cadence controllers and redirect caching.

Layer contract
--------------
This package sits *below* the protocol layers: it depends only on the standard
library, so :mod:`repro.ring`, :mod:`repro.replication` and
:mod:`repro.router` can drive their periodic loops through the controllers
without import cycles.  Neighbors may import everything exported here;
nothing in this package may import from any other ``repro`` package.

What lives here:

* :mod:`~repro.maintenance.cadence` -- :class:`FixedCadence`,
  :class:`AdaptiveCadence` (back-off/tighten validation cadence) and
  :class:`RttScaledCadence` (round-trip-seeded stabilization/replication
  periods).
* :mod:`~repro.maintenance.redirect_cache` -- the server-side join-redirect
  cache (:class:`RedirectCache`).
* :mod:`~repro.maintenance.adaptive` -- what the one
  ``IndexConfig.adaptive_maintenance`` switch turns on, and the constants it
  runs them with.
"""

from repro.maintenance.cadence import (
    AdaptiveCadence,
    CadenceController,
    FixedCadence,
    RttScaledCadence,
    rtt_scaled_period,
)
from repro.maintenance.redirect_cache import RedirectCache, backward_distance

__all__ = [
    "AdaptiveCadence",
    "CadenceController",
    "FixedCadence",
    "RedirectCache",
    "RttScaledCadence",
    "backward_distance",
    "rtt_scaled_period",
]
