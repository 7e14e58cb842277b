"""Reference implementations that the tests check the simulator against.

None of these run on a CLI or benchmark path: scalar lookups of one link's
row, one weight and one link's total and success, the exponential subset
definition of a receiver's maximum average affectance, an exhaustive search
for the shortest selective schedule, and the scalar per-node steps of the
two adaptive baselines, whose block form is ``protocols._adaptive_slots``,
and ``schedule``, which writes a schedule mask from transmitter sets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from affsim import InstanceError, UnknownLinkError, decay_period, is_selected
from affsim.core import _indicator, _succeeds


def schedule(n, slots):
    """The read-only (slots, n) bool schedule mask whose row j - 1 marks the
    1-based transmitters of the j-th set of ``slots``."""
    sched = np.zeros((len(slots), n), dtype=bool)
    for row, slot in zip(sched, slots):
        row[[v - 1 for v in slot]] = True
    sched.flags.writeable = False
    return sched


def transmitters(topo):
    return range(1, topo.n + 1)


def link_row(topo, link):
    """Row of one (v, w) link of ``topo``; UnknownLinkError if it is none."""
    v, w = link
    if 1 <= v <= topo.n and 1 <= w <= topo.n:
        row, found = topo._find(v, w)
        if found:
            return int(row)
    raise UnknownLinkError(f"unknown link {tuple(link)}")


def a(A, u, link):
    """The weight a(u, link); absent pairs are 0, and u outside 1..n is an
    InstanceError."""
    if not 1 <= u <= A.n:
        raise InstanceError(f"transmitter {u} out of range")
    return float(A.weights([link_row(A.topo, link)])[0, u - 1])


def total_affectance(A, slot, link):
    """Summed interference of a transmitter set ``slot`` on one link."""
    row = link_row(A.topo, link)
    return float(np.dot(A.weights([row])[0], _indicator(A.n, slot)))


def is_successful(A, slot, link):
    """True iff the link's owner is in the transmitter set ``slot`` and the
    slot's summed interference on the link stays strictly below 1: the
    scalar rule that ``link_success`` is checked against."""
    return _succeeds(A, _indicator(A.n, slot), link_row(A.topo, link))


class CapacityError(RuntimeError):
    """An exact computation would exceed its enumeration budget."""


BRUTE_FORCE_MAX_N = 10


def brute_force_max_avg_affectance(A, w):
    """Enumerate all nonempty subsets F of the receiver's neighbors and
    maximize the average per-link interference total. Exponential."""
    members = sorted(A.topo.f(w))
    totals = {
        v: sum(a(A, u, (v, w)) for u in transmitters(A.topo)) for v in members
    }
    best = 0.0
    for size in range(1, len(members) + 1):
        for subset in itertools.combinations(members, size):
            best = max(best, sum(totals[v] for v in subset) / size)
    return best


def brute_force_min_selective(A, max_slots):
    """Shortest selective schedule of length <= max_slots by exhaustive
    search, or None.

    Search order: increasing length, then subsets enumerated by ascending
    bitmask (transmitter v in the mask at bit v-1); first hit wins. Guarded to
    tiny instances.
    """
    n = A.n
    if n > BRUTE_FORCE_MAX_N:
        raise CapacityError(f"n={n} exceeds brute-force budget {BRUTE_FORCE_MAX_N}")
    subsets = [
        frozenset(v + 1 for v in range(n) if mask >> v & 1)
        for mask in range(1, 1 << n)
    ]
    receivers = list(A.topo.receivers)
    for length in range(1, max_slots + 1):
        for combo in itertools.product(subsets, repeat=length):
            pending = set(receivers)
            for slot in combo:
                pending = {w for w in pending if not is_selected(A, slot, w)}
                if not pending:
                    break
            if not pending:
                return schedule(n, combo)
    return None


@dataclass
class DecayState:
    """Per-node backoff state: a period counter and a transmit flag."""

    counter: int = 0
    transmit: bool = False


def decay_step(state, delta, rng):
    """One slot of the decay policy: fire from the start of each period and
    drop out with probability 1/2 after each transmission."""
    if state.counter == 0:
        state.transmit = True
    fire = state.transmit
    if fire and rng.random() < 0.5:
        state.transmit = False
    state.counter += 1
    if state.counter >= decay_period(delta):
        state.counter = 0
    return fire


def sinr_step(v, round_index, density, dilution, rng):
    """One slot of the congruence/thinning policy: node v is eligible in
    rounds congruent to v modulo ``dilution`` and then fires with probability
    1/density."""
    if density < 1 or dilution < 1:
        raise InstanceError("density and dilution must be >= 1")
    if round_index % dilution != v % dilution:
        return False
    return rng.random() < 1.0 / density
