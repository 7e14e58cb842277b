"""Schedule-producing protocols and adaptive baseline policies.

The randomized protocol and the conditional-expectation greedy emit whole
schedules up front; the two baselines (decay-style backoff and the
congruence/thinning policy) decide slot by slot during simulation and live
here as per-node step functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AffectanceMatrix,
    CapacityError,
    Characterization,
    InstanceError,
    Schedule,
    link_success,
)

# Exact expectation engine: cap on the number of relevant undecided
# transmitters enumerated per receiver (2**K outcomes). A greedy table may
# hold 2**(K + 1): transmitter 1 is decided before the greedy reads it.
K_EXACT = 20
MC_SAMPLES_DEFAULT = 4096


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
        if n <= 1:
            return 1
        b = params.characterization.b
        return math.ceil(math.log(2.0 * (n - 1)) / math.log(b)) + 1
    return params.characterization.phases


def randomized_schedule(params, n):
    """Phase ladder of geometrically decreasing transmission probabilities.

    Phase i (0-based) holds m slots; each slot includes each transmitter
    independently with probability b**-i. Draws come from the seeded
    generator in phase-major, slot-minor, transmitter-ascending order, so
    identical (params, n) reproduce identical schedules. The (phases, m, n)
    draw mask becomes the schedule's (phases * m, n) mask as is.
    """
    char = params.characterization
    phases = randomized_phase_count(params, n)
    m = params.m_override if params.m_override is not None else char.m
    rng = np.random.default_rng(params.seed)
    u = rng.random((phases, m, n))
    p = char.b ** -np.arange(phases)
    include = u < p[:, None, None]
    return Schedule.from_mask(include.reshape(phases * m, n))


@dataclass(frozen=True)
class PartialAssignment:
    """Prefix of transmit/silent decisions; transmitters beyond the frontier
    are undecided."""

    n: int
    choices: tuple = ()

    def __post_init__(self):
        if len(self.choices) > self.n:
            raise InstanceError("more decisions than transmitters")

    @property
    def frontier(self):
        return len(self.choices)

    @property
    def undecided(self):
        return range(self.frontier + 1, self.n + 1)

    def with_choice(self, on):
        return PartialAssignment(self.n, self.choices + (bool(on),))


def _outcome_table(A, w, choices, k_exact, first_read=0):
    """Whether ``w`` is selected under each outcome of its relevant
    undecided transmitters: (R, selected).

    R holds, ascending, the 0-based transmitters from ``len(choices)`` on
    that own or weigh on a link into ``w``; outcome j fires R[i] iff bit i
    of j is set, and decided transmitters act as ``choices`` says. Raises
    CapacityError, before anything of size 2**|R| is allocated, when more
    than ``k_exact`` of R lie at or past ``first_read`` (the ones still
    undecided when the table is first read). Each link's totals are built
    by doubling from the decided-on sum, and a silent owner blocks its
    link; grid sums are exact, so this agrees with ``link_success``.
    """
    rows = A.link_rows(w)
    dense, owners = A.dense[rows], A.owners()[rows]
    frontier = len(choices)
    hit = dense.any(axis=0)
    hit[owners] = True
    relevant = np.flatnonzero(hit[frontier:]) + frontier
    k = np.count_nonzero(relevant >= first_read)
    if k > k_exact:
        raise CapacityError(
            f"receiver {w}: {k} relevant undecided transmitters exceed {k_exact}"
        )
    base = dense[:, np.flatnonzero(choices)].sum(axis=1)
    selected = np.zeros(1 << len(relevant), dtype=bool)
    for row, owner, total in zip(dense, owners, base):
        if owner < frontier and not choices[owner]:
            continue
        totals = np.empty(len(selected))
        totals[0] = total
        for i, u in enumerate(relevant):
            low = totals[: 1 << i]
            np.add(low, row[u], out=totals[1 << i : 2 << i])
            if u == owner:
                low[:] = np.inf
        selected |= totals < 1.0
    return relevant, selected


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


def exact_selection_probability(A, w, assign, p, k_exact=K_EXACT):
    """Probability that ``w`` is selected when each undecided transmitter
    fires independently with probability p and decided ones act as assigned.

    Builds the outcome table of the relevant undecided transmitters and
    sums the probabilities of the outcomes that select ``w``. Raises
    CapacityError past ``k_exact`` of them, checked before the table is
    built (nothing falls back to Monte Carlo; callers choose that mode up
    front). The exact greedy builds such a table once per receiver and reads
    slices of it instead of calling this.
    """
    _, selected = _outcome_table(A, w, assign.choices, k_exact)
    return _selected_mass(selected, p, {})


def mc_selection_probability(A, w, assign, p, samples, seed, uniforms=None):
    """Monte Carlo estimate of the same selection probability.

    ``uniforms`` may supply a fixed (samples, n) block of per-(sample,
    transmitter) draws; the greedy shares one block across its two branch
    evaluations so the comparison is paired (common random numbers).
    """
    if samples < 1:
        raise InstanceError("samples must be >= 1")
    if uniforms is None:
        uniforms = np.random.default_rng(seed).random((samples, A.n))
    transmit = uniforms[:samples] < p
    transmit[:, : assign.frontier] = assign.choices
    rows = A.link_rows(w)
    selected = link_success(A.dense[rows], A.owners()[rows], transmit).any(axis=1)
    return float(selected.mean())


def receiver_partition(A, char):
    """Bucket each receiver by the phase whose transmission probability fits
    its interference level: bucket 0 up to 1/2, then half-open geometric
    intervals (b**(r-1)/2, b**r/2]."""
    b = char.b
    buckets = {}
    for w in A.topo.receivers:
        abar_w = char.abar_w[w - 1]
        if abar_w <= 0.5:
            r = 0
        else:
            r = 1
            while abar_w > (b ** r) / 2.0:
                r += 1
        buckets.setdefault(r, set()).add(w)
    return buckets


def greedy_slot_budget(n, char):
    return 10 * (1 + math.ceil(math.log2(max(n, 1))) * char.phases)


def deterministic_schedule(
    A,
    char,
    mode="exact",
    mc_samples=MC_SAMPLES_DEFAULT,
    seed=0,
):
    """Conditional-expectation greedy schedule.

    Per slot, transmitters are decided in ascending order by comparing the
    expected number of still-pending receivers in the current bucket selected
    when the transmitter fires versus stays silent, with the remaining
    transmitters randomized at the slot's probability; ties go to silent.
    The probability starts at 1, divides by b each slot, and resets to 1 once
    it falls to 1/(2*b*abar). Receivers selected by the realized slot are
    retired from every bucket.

    In exact mode the result is guaranteed selective: the loop only exits
    once every receiver was selected. A receiver's outcome table is built
    once, when it first becomes a target, after the ``K_EXACT`` check on its
    relevant transmitters from transmitter 2 on, and dropped when the
    receiver is retired. A decision reads the strided slice of the outcomes
    that agree with the slot's decisions so far, only for the receivers the
    decided transmitter is relevant to. Monte Carlo mode, the only one that
    uses ``seed``, trades that guarantee for tractability on wide instances.
    """
    if mode not in ("exact", "monte_carlo", "mc"):
        raise InstanceError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    n = A.n
    b = char.b
    buckets = receiver_partition(A, char)
    reset_at = 1.0 / (2.0 * b * char.abar) if char.abar > 0 else math.inf
    budget = greedy_slot_budget(n, char)
    master = None if exact else np.random.default_rng(seed)
    tables = {}
    probabilities = {}  # outcome probabilities per k, at this slot's p

    slots = []
    p, r = 0.0, 0
    while any(buckets.values()):
        if len(slots) >= budget:
            raise ScheduleError(
                f"greedy exceeded {budget} slots with pending receivers "
                f"{sorted(set().union(*buckets.values()))}; this signals a "
                "bug in exact mode or estimator noise in Monte Carlo mode"
            )
        if p <= reset_at:
            p, r = 1.0, 0
        target = sorted(buckets.get(r, ()))
        probabilities.clear()
        # Exact mode, per target: the view of its table that agrees with the
        # slot's decisions so far, and the view's selection probability
        # (None until read).
        cursors = {}
        for w in target if exact else ():
            if w not in tables:
                relevant, outcomes = _outcome_table(A, w, (), K_EXACT, first_read=1)
                tables[w] = (set(relevant.tolist()), outcomes)
            cursors[w] = (tables[w][1], None)
        assign = PartialAssignment(n)
        for t in range(n):
            if exact:
                # Each target's cursor if t fires and if it stays silent. A
                # relevant t is the lowest undecided bit: odd outcomes fire it.
                branches = {}
                for w, (view, value) in cursors.items():
                    if t in tables[w][0]:
                        branches[w] = [(half, _selected_mass(half, p, probabilities))
                                       for half in (view[1::2], view[0::2])]
                    else:
                        if value is None:
                            value = _selected_mass(view, p, probabilities)
                        branches[w] = [(view, value)] * 2
                e_true, e_false = (
                    sum(branches[w][i][1] for w in target) for i in (0, 1)
                )
            else:
                # Both branches share one block of draws (common random numbers).
                uniforms = master.random((mc_samples, n))
                e_true, e_false = (
                    sum(mc_selection_probability(A, w, assign.with_choice(on), p,
                                                 mc_samples, None, uniforms)
                        for w in target)
                    for on in (True, False)
                )
            # Keeping the better branch can never fall below the mixture.
            assert max(e_true, e_false) >= p * e_true + (1.0 - p) * e_false - 1e-9
            on = e_true > e_false
            assign = assign.with_choice(on)
            if exact:
                cursors = {w: branch[0 if on else 1] for w, branch in branches.items()}
        slot = np.array(assign.choices)
        slots.append(slot)
        success = link_success(A.dense, A.owners(), slot)
        selected = set((A.link_receivers()[success] + 1).tolist())
        for bucket in buckets.values():
            bucket -= selected
        for w in selected:
            tables.pop(w, None)
        p /= b
        r += 1
    return Schedule.from_mask(np.array(slots, dtype=bool).reshape(len(slots), n))


@dataclass
class DecayState:
    """Per-node backoff state: a period counter and a transmit flag."""

    counter: int = 0
    transmit: bool = False


def decay_period(delta):
    """Backoff period 2*ceil(log2 delta), floored at 1 so delta=1 still
    yields a nonempty cycle."""
    if delta < 1:
        raise InstanceError("delta must be >= 1")
    return max(1, 2 * math.ceil(math.log2(delta)))


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
