"""Link-quality dynamics and re-planning support (paper Sec. 4).

OMNC "is based on the presumption that the link qualities in the target
network are relatively stable over time ... In cases where link
qualities change significantly, the node selection and rate allocation
have to be re-initiated, which brings a certain amount of overhead."

This module supplies the machinery to study exactly that trade-off:

* :func:`perturb_link_qualities` — produce a drifted copy of a network
  (logit-space Gaussian drift, the same noise family the PHY's
  shadowing uses), preserving geometry and neighborhoods;
* :func:`quality_drift` — quantify how far two snapshots of the same
  topology have diverged (the trigger signal a deployment would
  monitor).

The cost model of an actual re-initiation lives one layer up, in
:mod:`repro.optimization.replanning` — pricing a re-plan runs the
optimizer, which this package must not import (RPR101 layering).
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import WirelessNetwork
from repro.util.rng import RngLike, as_rng


def perturb_link_qualities(
    network: WirelessNetwork,
    *,
    sigma: float = 0.3,
    rng: RngLike = None,
) -> WirelessNetwork:
    """A drifted copy of ``network``: same geometry, shifted qualities.

    Every link probability moves by Gaussian noise of scale ``sigma`` in
    logit space (multiplicative on odds), clipped to [0.02, 0.995] like
    the PHY model's shadowing.  ``sigma=0`` returns an identical copy
    and consumes no draw.  The copy shares the geometry it cannot have
    changed (:meth:`WirelessNetwork.with_links`).
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    generator = as_rng(rng)
    table = {(i, j): p for i, j, p in network.links()}
    if sigma == 0.0:  # repro: ignore[RPR004] exact sentinel (sigma=0 copy)
        return network.with_links(table)  # no draw consumed
    p = np.array(list(table.values()))
    # A perfect link is logit +inf: it consumes its draw like any other
    # and lands on the ceiling.
    with np.errstate(divide="ignore"):
        logit = np.log(p / (1.0 - p))
    # One array draw in links() order is the same stream as a scalar
    # draw per link.
    shifted = logit + generator.normal(0.0, sigma, size=p.size)
    drifted = np.clip(1.0 / (1.0 + np.exp(-shifted)), 0.02, 0.995)
    return network.with_links(dict(zip(table, drifted.tolist())))


def quality_drift(
    before: WirelessNetwork,
    after: WirelessNetwork,
    *,
    strict: bool = True,
) -> float:
    """Mean absolute link-probability change between two snapshots.

    This is the magnitude a deployment's probing would observe and
    compare against its re-planning threshold.  By default both networks
    must describe the same link set (same geometry); with
    ``strict=False`` the mean runs over the *union* of link sets and a
    link absent from one snapshot counts as probability 0 there — the
    natural reading of a node failure, where every link touching the
    failed node disappears.  Both conventions agree when the link sets
    match.
    """
    if before is after:
        return 0.0
    links_before = {(i, j): p for i, j, p in before.links()}
    links_after = {(i, j): p for i, j, p in after.links()}
    if strict and set(links_before) != set(links_after):
        raise ValueError("networks have different link sets")
    union = set(links_before) | set(links_after)
    if not union:
        return 0.0
    total = sum(
        abs(links_after.get(link, 0.0) - links_before.get(link, 0.0))
        for link in sorted(union)
    )
    return total / len(union)
