"""Schedule-producing protocols and adaptive baseline policies.

The randomized protocol and the conditional-expectation greedy emit whole
schedules up front, each a read-only (slots, n) bool mask whose row j - 1
marks the transmitters of slot j; the randomized one is also a slot source,
``RandomizedSlots``, that draws only the slots read from it, which is how
``engine.sweep`` runs it. The two baselines (decay-style backoff and
the congruence/thinning policy) decide during simulation:
``engine.run_adaptive`` decides a whole block of rounds for all nodes at
once, with decay's period from ``decay_period``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_RANDOMIZED_CELLS, Characterization, InstanceError, link_success, phase_count

# Cap on the relevant undecided transmitters enumerated per receiver (2**K
# outcomes). A greedy table may hold 2**(K + 1): transmitter 1 is decided
# before the greedy reads it. Wider receivers use the pessimistic estimator.
K_EXACT = 20
# The greedy fires a transmitter only if that raises the slot's score by more
# than this; a tie, or a rounding-level gain, stays silent.
MIN_GAIN = 1e-12


class ScheduleError(RuntimeError):
    """The greedy loop exceeded its slot budget."""


@dataclass(frozen=True)
class RandomizedParams:
    """Inputs of the randomized schedule builder.

    ``fallback_mode`` sizes the phase ladder from n alone (every receiver's
    average interference is at most n-1) instead of the measured maximum.
    """

    characterization: Characterization
    seed: int
    fallback_mode: bool = False
    m_override: int | None = None

    def __post_init__(self):
        if self.m_override is not None and self.m_override < 1:
            raise InstanceError("m_override must be >= 1")


def randomized_phase_count(params, n):
    if params.fallback_mode:
        return phase_count(n - 1, params.characterization.b)
    return params.characterization.phases


class RandomizedSlots:
    """The randomized schedule as a slot source, drawn only as far as it is
    read: calling it with (start, stop) returns the bool mask of slots
    start + 1..stop, and ``len`` gives the schedule's phases * m slots.

    Phase i (0-based) holds m slots; each slot includes each transmitter
    independently with probability b**-i. Draws come from the seeded
    generator in phase-major, slot-minor, transmitter-ascending order, one
    double (one 64-bit output) per slot and transmitter, so a block of k
    slots of phase i is ``rng.random((k, n)) < b**-i`` and takes exactly the
    values of those rows of the whole draw. Phase 0 has p = 1, which every
    draw is below: its slots are all-on and draw nothing, and the generator
    is advanced past them, as past any slots skipped between calls, only
    when a later slot is drawn. Drawn slots must be asked for in ascending
    order. More than ``MAX_RANDOMIZED_CELLS`` cells is an InstanceError,
    raised before any draw is made.
    """

    def __init__(self, params, n):
        char = params.characterization
        phases = randomized_phase_count(params, n)
        m = params.m_override if params.m_override is not None else char.m
        if phases * m * n > MAX_RANDOMIZED_CELLS:
            raise InstanceError(f"randomized schedule of phases={phases}, m={m}, n={n} needs "
                                f"{phases * m * n} draws, over the limit of {MAX_RANDOMIZED_CELLS}")
        self.m, self.n, self.phases = m, n, phases
        self.rng = np.random.default_rng(params.seed)
        self.p = char.b ** -np.arange(phases)
        self.pos = 0  # the slot whose draws the generator is at

    def __len__(self):
        return self.phases * self.m

    def __call__(self, start, stop):
        mask = np.empty((stop - start, self.n), dtype=bool)
        a = start
        while a < stop:
            i = a // self.m
            b = min(stop, (i + 1) * self.m)
            if i == 0:
                mask[a - start:b - start] = True
            else:
                if a < self.pos:
                    raise ValueError(f"slot {a + 1} asked for after slot {self.pos} was drawn")
                self.rng.bit_generator.advance((a - self.pos) * self.n)
                np.less(self.rng.random((b - a, self.n)), self.p[i],
                        out=mask[a - start:b - start])
                self.pos = b
            a = b
        return mask


def randomized_schedule(params, n):
    """Phase ladder of geometrically decreasing transmission probabilities:
    the whole ``RandomizedSlots`` source of (params, n), read once, as a
    read-only (phases * m, n) mask. Identical (params, n) reproduce
    identical schedules."""
    source = RandomizedSlots(params, n)
    sched = source(0, len(source))
    sched.flags.writeable = False
    return sched


def _relevant(weights, owners):
    """The 0-based transmitters that own or weigh on a receiver's links
    (their ``weights`` rows and 0-based ``owners``), and the deciding ones
    among them, both ascending. A transmitter decides if it owns a link,
    weighs 1 on a link, or weighs on a link whose weights below 1 sum to at
    least 1. On any other link those light weights sum below 1 in every
    outcome (grid sums are exact), so the link succeeds iff its owner fires
    and no weight-1 transmitter does: the other transmitters cannot change
    whether the receiver is selected."""
    hit = weights.any(axis=0)
    hit[owners] = True
    weighing = hit.nonzero()[0]
    if weights.sum() == np.count_nonzero(weights):  # every nonzero weight is 1
        return weighing, weighing
    light = weights < 1.0
    deciding = ~light.all(axis=0)
    deciding[owners] = True
    dense = weights.sum(axis=1, where=light) >= 1.0
    if dense.any():
        deciding |= weights[dense].any(axis=0)
    return weighing, deciding.nonzero()[0]


def _outcome_table(weights, owners, relevant):
    """Whether a receiver, its links given as for ``_relevant``, is selected
    under each outcome of the transmitters ``relevant``, which hold at least
    its deciding ones: outcome j fires relevant[i] iff bit i of j is set.
    Each link's totals are built by doubling, and a silent owner blocks its
    link; grid sums are exact, so this agrees with ``link_success``. A
    decided prefix of the transmitters is a strided slice: ``[1::2]`` fixes
    the lowest bit on, ``[0::2]`` off.
    """
    selected = np.zeros(1 << len(relevant), dtype=bool)
    for row, owner in zip(weights, owners):
        totals = np.zeros(len(selected))
        for i, u in enumerate(relevant):
            low = totals[: 1 << i]
            np.add(low, row[u], out=totals[1 << i : 2 << i])
            if u == owner:
                low[:] = np.inf
        selected |= totals < 1.0
    return selected


def _selected_mass(selected, p, probabilities):
    """Probability of the outcomes ``selected`` marks in a table (or strided
    view) over k transmitters that fire independently with probability p.
    ``probabilities`` caches each k's outcome probabilities for this p."""
    k = len(selected).bit_length() - 1
    if k not in probabilities:
        ones = np.zeros(1, dtype=np.int64)
        for _ in range(k):
            ones = np.concatenate([ones, ones + 1])
        probabilities[k] = (p ** ones) * ((1.0 - p) ** (k - ones))
    # The outcome probabilities sum to 1 only up to rounding.
    return min(1.0, float(probabilities[k][selected].sum()))


def _pessimistic_estimates(owners, receivers, q, totals):
    """Raghavan's pessimistic estimator of each receiver's selection, for
    links with 0-based ``owners`` and ``receivers`` and transmit
    probabilities ``q`` (0 or 1 once decided):

        L_w(q) = sum_v q_v (1 - total_(v,w)) - sum_{v < v'} q_v q_v'

    over the owners v of w's links, where ``totals`` holds each link's
    ``sum_u a(u, link) q_u``. Each term has at most one factor per
    transmitter (a(v, (v, w)) = 0), so L_w is multilinear in q: its value at
    q_t = p is the p-mixture of its values at q_t = 1 and 0. At a 0/1 vector
    L_w <= 1 if w is selected and <= 0 if not: one owner on gives
    1 - total, and k >= 2 owners on give at most k - k(k-1)/2.
    """
    on = q[owners]
    owned = np.bincount(receivers, on)
    return (np.bincount(receivers, on * (1.0 - totals))
            - (owned * owned - np.bincount(receivers, on * on)) / 2.0)


def receiver_partition(A, char):
    """Bucket each receiver by the phase whose transmission probability fits
    its interference level: bucket 0 up to 1/2, then half-open geometric
    intervals (b**(r-1)/2, b**r/2]. Bucket r >= 1 is the smallest r with
    abar_w <= b**r / 2 in floats: ceil(log_b(2 * abar_w)), moved by the
    step that rounding in the logarithm can cost."""
    b = char.b
    buckets = {}
    for w in A.topo.receivers:
        abar_w = char.abar_w[w - 1]
        r = 0
        if abar_w > 0.5:
            r = max(1, math.ceil(math.log(2.0 * abar_w) / math.log(b)))
            while r > 1 and abar_w <= (b ** (r - 1)) / 2.0:
                r -= 1
            while abar_w > (b ** r) / 2.0:
                r += 1
        buckets.setdefault(r, set()).add(w)
    return buckets


def greedy_slot_budget(n, char):
    return 10 * (1 + math.ceil(math.log2(max(n, 1))) * char.phases)


def _probability_cycle(b, reset_at, keys):
    """The greedy's cycle of slot probabilities: slot r of a cycle has p
    equal to 1 divided by b r times, in floats, and the cycle ends before
    the first p <= ``reset_at``. Returns the cycle's length and {r: p} for
    each r in ``keys`` inside it. ``np.divide.accumulate`` takes the
    divisions in order, in chunks that double, each the correctly rounded
    quotient that ``p /= b`` gives."""
    p_at, start, chunk, p = {}, 0, 64, 1.0
    while True:
        # p_(start + i) for i = 0..chunk.
        sequence = np.divide.accumulate(np.r_[p, np.full(chunk, b)])
        reset = np.flatnonzero(sequence[1:] <= reset_at)
        stop = start + (reset[0] + 1 if reset.size else chunk)
        p_at.update((r, float(sequence[r - start])) for r in keys if start <= r < stop)
        if reset.size:
            return stop, p_at
        start, chunk, p = stop, min(2 * chunk, 1 << 16), sequence[-1]


def deterministic_schedule(A, char):
    """Conditional-expectation greedy schedule.

    Per slot, transmitters are decided in ascending order: t fires iff
    firing rather than staying silent raises the score of the still-pending
    receivers in the current bucket, with the remaining transmitters
    randomized at the slot's probability, by more than ``MIN_GAIN``. The
    probability starts at 1, divides by b each slot, and resets to 1 once
    it falls to 1/(2*b*abar). Receivers selected by the realized slot are
    retired from every bucket, and the loop only exits once every receiver
    was selected.

    A receiver scores its selection probability while its weighing
    transmitters (those that own or weigh on its links) from transmitter 2
    on (transmitter 1 is decided before the first read) fit ``K_EXACT``:
    its outcome table is built once, when it first becomes a target, over
    its deciding transmitters only (see ``_relevant``; no outcome of the
    others changes whether it is selected), and dropped when it is retired.
    Each slot lists such a target under its deciding transmitters, and t's
    decision reads only the targets listed under t, each narrowed to the
    strided slice of its outcomes that agrees with the decision. A wider
    receiver scores Raghavan's pessimistic estimator
    ``_pessimistic_estimates`` of the transmit probabilities q, over link
    totals ``weights @ q`` that each decision updates by one column. Both scores are multilinear in each
    undecided q_t, so the better branch never scores below the slot's
    current score. A slot ends by asserting that each exact target's slice
    is the one outcome saying whether the slot selects it, and that each
    wide target's estimate is at most its selection. A slot with no target
    is silent, and a run of them, up to the next pending bucket or the
    reset, is counted as one block of zero rows. The slot budget (``ScheduleError``) stays as a safety net.
    A cycle of phases slots for n transmitters over ``MAX_RANDOMIZED_CELLS``
    cells is an InstanceError, raised before the first slot.
    """
    n = A.n
    b = char.b
    if char.phases * n > MAX_RANDOMIZED_CELLS:
        raise InstanceError(f"greedy schedule of phases={char.phases}, n={n} holds "
                            f"{char.phases * n} cells per cycle, over the limit of "
                            f"{MAX_RANDOMIZED_CELLS}")
    buckets = receiver_partition(A, char)
    reset_at = 1.0 / (2.0 * b * char.abar) if char.abar > 0 else math.inf
    budget = greedy_slot_budget(n, char)
    tables = {}  # per receiver: (deciding list, outcome table), None if wide
    probabilities = {}  # outcome probabilities per k, at this slot's p

    cycle, p_at = _probability_cycle(b, reset_at, buckets)
    fired = {}  # slot index -> transmit row, for slots with a target
    slots, r = 0, 0
    while any(buckets.values()):
        if slots >= budget:
            raise ScheduleError(
                f"greedy exceeded {budget} slots with pending receivers "
                f"{sorted(set().union(*buckets.values()))}; this signals a bug"
            )
        target = sorted(buckets.get(r, ()))
        if not target:
            # Empty buckets up to the next pending one or the cycle's end:
            # one block of silent slots.
            stop = min((key for key, bucket in buckets.items() if bucket and r < key < cycle),
                       default=cycle)
            slots += stop - r
            r = stop % cycle
            continue
        p = p_at[r]
        probabilities.clear()
        # Per exact target: the view of its table that agrees with the slot's
        # decisions so far, listed under each of its deciding transmitters.
        views = {}
        dependents = [[] for _ in range(n)]
        for w in target:
            if w not in tables:
                rows = A.topo.link_rows(w)
                links = A.weights(rows), A.topo.owner[rows]
                weighing, deciding = _relevant(*links)
                tables[w] = None
                if np.count_nonzero(weighing) <= K_EXACT:  # counted from transmitter 2
                    tables[w] = (deciding.tolist(), _outcome_table(*links, deciding))
            if tables[w] is not None:
                deciding, views[w] = tables[w]
                for t in deciding:
                    dependents[t].append(w)
        # Wide targets: their links, and each link's total sum_u a(u, link) q_u.
        wide = [w for w in target if tables[w] is None]
        q = np.full(n, p)
        if wide:
            rows = np.concatenate([A.topo.link_rows(w) for w in wide])
            owners, receivers = A.topo.owner[rows], A.topo.receiver[rows]
            columns = A.weights(rows).T.copy()  # contiguous per transmitter
            totals = q @ columns
        for t in range(n):
            # t is the lowest undecided bit of its dependents' views: odd
            # outcomes fire it.
            gain = sum(_selected_mass(views[w][1::2], p, probabilities)
                       - _selected_mass(views[w][0::2], p, probabilities)
                       for w in dependents[t])
            if wide:
                q[t] = 1.0
                gain += _pessimistic_estimates(
                    owners, receivers, q, totals + (1.0 - p) * columns[t]).sum()
                q[t] = 0.0
                gain -= _pessimistic_estimates(
                    owners, receivers, q, totals - p * columns[t]).sum()
            on = gain > MIN_GAIN
            q[t] = on
            if wide:
                totals += (q[t] - p) * columns[t]
            for w in dependents[t]:
                views[w] = views[w][1::2] if on else views[w][0::2]
        slot = q == 1.0
        fired[slots] = slot
        hit = np.zeros(n, dtype=bool)
        hit[A.topo.receiver[link_success(A, slot)]] = True
        assert all(len(view) == 1 and view[0] == hit[w - 1] for w, view in views.items())
        if wide:
            estimates = _pessimistic_estimates(owners, receivers, q, totals)
            assert all(estimates[w - 1] <= hit[w - 1] + 1e-9 for w in wide)
        selected = set((np.flatnonzero(hit) + 1).tolist())
        for bucket in buckets.values():
            bucket -= selected
        for w in selected:
            tables.pop(w, None)
        slots += 1
        r = (r + 1) % cycle
    sched = np.zeros((slots, n), dtype=bool)
    for index, slot in fired.items():
        sched[index] = slot
    sched.flags.writeable = False
    return sched


def decay_period(delta):
    """Backoff period 2*ceil(log2 delta), floored at 1 so delta=1 still
    yields a nonempty cycle."""
    if delta < 1:
        raise InstanceError("delta must be >= 1")
    return max(1, 2 * math.ceil(math.log2(delta)))
