"""Content Router implementations.

The Content Router's job (Section 2.2) is to deliver a message to the peer
responsible for a given search key value -- here, to find the peer at which a
range scan must start or an item must be stored.  The paper's P-Ring Content
Router builds a hierarchy of rings; its details are explicitly out of scope
("not relevant here"), so this package provides two faithful-in-spirit
implementations:

* :class:`~repro.router.linear.LinearRouter` -- follow successors, O(N) hops.
* :class:`~repro.router.hierarchical.HierarchicalRingRouter` -- each peer keeps
  a table of exponentially spaced pointers built by pointer doubling.  Every
  hop of a lookup jumps through the *probed* peer's own table to its closest
  pointer preceding the key, so a lookup takes O(log N) hops.

Both share one greedy, iterative lookup loop
(:meth:`~repro.router.linear.LinearRouter.find_responsible`) over one probe
RPC, ``ds_probe``, whose reply is ``{owns, successor, next}``: ``next`` is
the probed peer's own jump toward the key (``None`` from a linear router).

Layer contract: builds on :mod:`repro.sim`, :mod:`repro.ring` and
:mod:`repro.datastore` (range ownership checks).  Neighbors select an
implementation through :func:`make_router` (driven by ``config.router``)
rather than instantiating router classes directly.
"""

from repro.router.linear import LinearRouter
from repro.router.hierarchical import HierarchicalRingRouter


def make_router(node, ring, store, config, metrics=None, history=None):
    """Instantiate the router selected by ``config.router``."""
    if config.router == "linear":
        return LinearRouter(node, ring, store, config, metrics=metrics, history=history)
    return HierarchicalRingRouter(node, ring, store, config, metrics=metrics, history=history)


__all__ = ["HierarchicalRingRouter", "LinearRouter", "make_router"]
