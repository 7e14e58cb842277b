"""Every protocol's slot law and the randomness it draws from.

The randomized protocol and the conditional-expectation greedy emit whole
schedules up front, each a read-only (slots, n) bool mask whose row j - 1
marks the transmitters of slot j; the randomized one is also a slot source,
``RandomizedSlots``, of one characterization and a batch of seeds, that
draws only the slots read from it, as ``engine.sweep`` runs it. The two
adaptive baselines (decay-style backoff and the congruence/thinning policy)
have a slot source only, ``_adaptive_slots``, which decides a whole block
of rounds for all nodes at once from per-node streams (``_NodeStreams``).
``engine`` judges the slots that these sources emit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (MAX_RANDOMIZED_CELLS, Characterization, InstanceError, _integer,
                   link_success, phase_bucket)

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
    """Inputs of the randomized schedule. The characterization alone sets the
    ladder (``phases`` and ``b``), and m unless ``m_override`` does; another
    ladder is another characterization, built with ``dataclasses.replace``.
    ``RandomizedSlots`` checks the seed and ``m_override``."""

    characterization: Characterization
    seed: int
    m_override: int | None = None


class RandomizedSlots:
    """The randomized schedules of ``characterization`` on each of ``seeds``,
    as one slot source drawn only as far as it is read: calling it with
    (start, stop) returns the (stop - start, runs, n) bool mask of slots
    start + 1..stop, in any order, and ``len`` gives a schedule's phases *
    m, m being ``characterization.m`` unless ``m_override`` is given.

    Phase i (0-based) holds m slots; each slot includes each transmitter
    independently with probability b**-i. Each run draws from its seed's
    generator in phase-major, slot-minor, transmitter-ascending order, one
    double (one 64-bit output) per slot and transmitter, so a block of k
    slots of phase i, ``rng.random((k, n)) < b**-i`` once ``advance`` (whose
    steps may be negative) has moved the generator to the block's first
    slot, holds exactly those rows of the whole draw. Phase 0 has p = 1,
    which every draw is below: its slots are all-on and draw nothing. An
    ``m_override`` that is not an integer >= 1, more than
    ``MAX_RANDOMIZED_CELLS`` cells per run, or a seed that is not an integer
    >= 0 (``core._integer`` checks both) is an InstanceError, raised before
    any generator is built.
    """

    def __init__(self, characterization, seeds, n, m_override=None):
        self.n, self.phases, self.b = n, characterization.phases, characterization.b
        self.m = (characterization.m if m_override is None
                  else _integer(m_override, "m_override", 1))
        if len(self) * n > MAX_RANDOMIZED_CELLS:
            raise InstanceError(f"randomized schedule of phases={self.phases}, m={self.m}, n={n} "
                                f"needs {len(self) * n} draws, over the limit of "
                                f"{MAX_RANDOMIZED_CELLS}")
        seeds = [_integer(seed, "seed", 0) for seed in seeds]
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.pos = 0  # the slot whose draws the generators are at

    def __len__(self):
        return self.phases * self.m

    def __call__(self, start, stop):
        mask = np.ones((stop - start, len(self.rngs), self.n), dtype=bool)
        a = max(start, self.m)  # phase 0 is all-on and draws nothing
        while a < stop:
            i = a // self.m
            end = min(stop, (i + 1) * self.m)
            block = mask[a - start:end - start]
            for run, rng in enumerate(self.rngs):
                rng.bit_generator.advance((a - self.pos) * self.n)
                np.less(rng.random((end - a, self.n)), self.b ** -i, out=block[:, run])
            self.pos = a = end
        return mask


def randomized_schedule(params, n):
    """Phase ladder of geometrically decreasing transmission probabilities:
    the ``RandomizedSlots`` source of the fields of ``params``, read once to
    its end, as a read-only (phases * m, n) mask drawn in place. Identical
    (params, n) reproduce identical schedules."""
    source = RandomizedSlots(params.characterization, [params.seed], n, params.m_override)
    sched = source(0, len(source))[:, 0]
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


def _exactly_one(weights, owners, deciding):
    """Whether a receiver is selected iff exactly one of ``deciding`` (from
    ``_relevant``) fires: they are its owners, each weighing 1 on the others'
    links (own entries are 0 in ``weights``, so this makes the owners distinct)."""
    return (len(deciding) == len(owners)
            and np.count_nonzero(weights[:, owners] == 1.0) == len(owners) * (len(owners) - 1))


def _selected_mass(selected, p, probabilities, k=None):
    """Probability of the outcomes ``selected`` marks in a table (or strided
    view), or lists if k is given, over k transmitters firing independently at
    p, by the one rule every score sums; ``probabilities`` caches a table's
    per k, and listed outcomes compute only their own."""
    listed = k is not None
    k = k if listed else len(selected).bit_length() - 1
    if listed or k not in probabilities:
        ones = np.bitwise_count(selected if listed else np.arange(1 << k)).astype(np.int64)
        masses = (p ** ones) * ((1.0 - p) ** (k - ones))
        if listed:
            return min(1.0, float(masses.sum()))
        probabilities[k] = masses
    # The outcome probabilities sum to 1 only up to rounding.
    return min(1.0, float(probabilities[k][selected].sum()))


def _exactly_one_mass(fired, k, p, probabilities):
    """``_selected_mass`` of an exactly-one view, ``fired`` on and k undecided."""
    if (fired, k) not in probabilities:
        probabilities[fired, k] = 0.0 if fired > 1 else _selected_mass(
            [0] if fired else 1 << np.arange(k), p, probabilities, k)
    return probabilities[fired, k]


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
    """Receivers by ``phase_bucket`` of their interference level: bucket r
    holds those that phase r of the ladder, at p = b**-r, fits."""
    buckets = {}
    for w in A.topo.receivers:
        buckets.setdefault(phase_bucket(char.abar_w[w - 1], char.b), set()).add(w)
    return buckets


def greedy_slot_budget(n, char):
    return 10 * (1 + math.ceil(math.log2(max(n, 1))) * char.phases)


def deterministic_schedule(A, char):
    """Conditional-expectation greedy schedule.

    Per slot, transmitters are decided in ascending order: t fires iff
    firing rather than staying silent raises the score of the still-pending
    receivers in the current bucket, with the remaining transmitters
    randomized at the slot's probability, by more than ``MIN_GAIN``. The
    slots cycle through the ``char.phases`` phases of the randomized
    protocol's ladder: slot r of a cycle targets bucket r of
    ``receiver_partition`` at p = b**-r. Receivers selected by the realized
    slot are retired from every bucket, and the loop only exits once every
    receiver was selected.

    A receiver scores its selection probability while its weighing
    transmitters (those that own or weigh on its links) from transmitter 2
    on (transmitter 1 is decided before the first read) fit ``K_EXACT``,
    which so decides a receiver's score (lifting it changes RN 300/32 seed
    0's schedule). An exact target is sorted on first becoming one, by its
    deciding transmitters only (see ``_relevant``; no outcome of the others
    changes whether it is selected): one selected iff exactly one of them
    fires (``_exactly_one``; every radio-network receiver) keeps the counts
    fired and undecided, scored in closed form (``_exactly_one_mass``); any
    other builds an outcome table, dropped when it is retired. Each slot
    lists an exact target under its deciding transmitters, and t's decision
    reads only those listed under t, each narrowed to the decision: a
    strided slice of its outcomes, or its counts. A wider receiver scores
    Raghavan's pessimistic estimator ``_pessimistic_estimates`` of the
    transmit probabilities q, over link totals ``weights @ q`` that each
    decision updates by one column. Both scores are multilinear in each
    undecided q_t, so the better branch never scores below the slot's
    current score. A slot ends by asserting that each exact target's slice
    (one outcome) or counts (exactly one fired) say whether the slot selects
    it, and that each wide target's estimate is at most its selection. A
    slot with no target is silent, and a run of them, up to the next pending
    bucket or the cycle's end, is counted as one block of zero rows. The
    slot budget (``ScheduleError``) stays as a safety net. A cycle of phases
    slots for n transmitters over ``MAX_RANDOMIZED_CELLS`` cells is an
    InstanceError, raised before the first slot.
    """
    n = A.n
    if char.phases * n > MAX_RANDOMIZED_CELLS:
        raise InstanceError(f"greedy schedule of phases={char.phases}, n={n} holds "
                            f"{char.phases * n} cells per cycle, over the limit of "
                            f"{MAX_RANDOMIZED_CELLS}")
    buckets = receiver_partition(A, char)
    cycle = char.phases  # slot r of a cycle targets bucket r at p = b**-r
    budget = greedy_slot_budget(n, char)
    tables = {}  # per receiver: (deciding list, table, or (0, k) if exactly-one), None if wide
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
        p = char.b ** -r
        probabilities = {}  # per k, and exactly-one masses per (fired, k)
        # Per exact target, under each deciding transmitter: its table's view that
        # agrees with the slot's decisions so far, or if exactly-one (fired, undecided).
        views = {}
        dependents = [[] for _ in range(n)]
        for w in target:
            if w not in tables:
                rows = A.topo.link_rows(w)
                links = A.weights(rows), A.topo.owner[rows]
                weighing, deciding = _relevant(*links)
                tables[w] = None
                if np.count_nonzero(weighing) <= K_EXACT:  # counted from transmitter 2
                    tables[w] = (deciding.tolist(), (0, len(deciding)) if _exactly_one(
                        *links, deciding) else _outcome_table(*links, deciding))
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
            gain = sum(_exactly_one_mass(views[w][0] + 1, views[w][1] - 1, p, probabilities)
                       - _exactly_one_mass(views[w][0], views[w][1] - 1, p, probabilities)
                       if type(views[w]) is tuple
                       else _selected_mass(views[w][1::2], p, probabilities)
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
                views[w] = ((views[w][0] + on, views[w][1] - 1) if type(views[w]) is tuple
                            else views[w][1::2] if on else views[w][0::2])
        slot = q == 1.0
        fired[slots] = slot
        hit = np.zeros(n, dtype=bool)
        hit[A.topo.receiver[link_success(A, slot)]] = True
        assert all(view[1] == 0 and (view[0] == 1) == hit[w - 1] if type(view) is tuple
                   else len(view) == 1 and view[0] == hit[w - 1] for w, view in views.items())
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
    yields a nonempty cycle; ``delta`` must be an integer >= 1
    (``core._integer``)."""
    return max(1, 2 * math.ceil(math.log2(_integer(delta, "delta", 1))))


# The largest sinr density or dilution: numpy takes the dilution as an int64.
_INT64_MAX = np.iinfo(np.int64).max


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _chain(init, mult, hashes):
    """(hashes + 1, 1) uint32 init * mult**k mod 2**32, k = 0..hashes."""
    return np.array([init] + [mult] * hashes, np.uint32).cumprod(dtype=np.uint32)[:, None]


def _hash(value, chain):
    """Hash by each of the ``len(chain) - 1`` steps: XOR entry k, times entry k + 1."""
    value = (value ^ chain[:-1]) * chain[1:]
    return value ^ value >> 16


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


def _node_seed_states(seed, n):
    """Row v - 1 is ``SeedSequence([seed, v]).generate_state(4, np.uint64)``,
    for all v = 1..n at once; the entropy is seed's 32-bit words, then v."""
    seed = _integer(seed, "seed", 0)
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array(words + [0] * max(4 - len(words), 1), np.uint32)[:, None].repeat(n, 1)
    entropy[len(words)] = np.arange(1, n + 1)
    chain = _chain(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hash(entropy[:4], chain[:5])
    for src in range(4):  # one step: mixing word src into the others leaves it alone
        dst, k = [i for i in range(4) if i != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hash(pool[src], chain[k:k + 4]))
    for k, word in zip(range(16, len(chain), 4), entropy[4:]):
        pool = _mix(pool, _hash(word, chain[k:k + 5]))
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _chain(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState:
    """Hands ``PCG64`` a precomputed state; registered as an ``ISeedSequence``
    on first use, as importing numpy.random would slow every start."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


# Values of each node's stream that a store draws once for every run of its
# batch: they cover the first five evaluation blocks (16 + 16 + 32 + 64 + 128
# rounds).
_SHARED = 256


class _NodeStreams:
    """The first ``_SHARED`` values of node v's stream in run r, that of
    ``default_rng([seeds[r], v])``, for v = 1..n, as the read-only (runs, n,
    _SHARED) ``prefix``, each row drawn in place. Each seed is checked once,
    before any generator is built. A stream depends only on its seed and v,
    so every run of the batch on at most n nodes can read its run's rows."""

    def __init__(self, seeds, n):
        from numpy.random.bit_generator import ISeedSequence
        ISeedSequence.register(_SeedState)
        self.states = np.stack([_node_seed_states(seed, n) for seed in seeds])
        self.prefix = np.empty((len(self.states), n, _SHARED))
        for row, rng in zip(self.prefix.reshape(-1, _SHARED), self._rngs(n)):
            rng.random(out=row)
        self.prefix.flags.writeable = False

    def _rngs(self, n):
        return [np.random.Generator(np.random.PCG64(_SeedState(state)))
                for state in self.states[:, :n].reshape(-1, 4)]

    def rngs(self, n):
        """Generators of nodes 1..n of every run, run-major, each past its
        prefix (a double takes one 64-bit output, so ``advance(_SHARED)``
        skips exactly it)."""
        rngs = self._rngs(n)
        for rng in rngs:
            rng.bit_generator.advance(_SHARED)
        return rngs


class _NodeDraws:
    """Per-node uniform streams of a batch of runs, read ahead in blocks: row
    r * n + v - 1 is node v's stream in run r of the store ``streams``. The
    reads start on the store's prefix, read in place as its (runs, n)
    leading rows, and only a batch that reads past it builds the store's
    generators, which continue each stream. ``rng.random(k)`` equals k
    ``rng.random()`` calls, so taking exactly the values the scalar per-node
    step would draw keeps every stream byte-identical."""

    def __init__(self, streams, n):
        self.streams, self.rngs = streams, None
        # A view: a refill builds a new buffer and never writes in place.
        self.buffer = streams.prefix[:, :n]
        self.run, self.node = np.divmod(np.arange(len(self.buffer) * n), n)
        self.pos = np.zeros(len(self.run), dtype=int)

    def peek(self, k):
        """(runs * n, k) array of each node's next k values; ``advance``
        consumes them."""
        runs, n, width = self.buffer.shape
        if k > width - self.pos.max():
            if self.rngs is None:
                self.rngs = self.streams.rngs(n)
            # Refill every row at once: the row widths of the buffer match.
            rows, width = self.buffer.reshape(runs * n, width), max(k, width)
            parts = []
            for row, start, rng in zip(rows, self.pos.tolist(), self.rngs):
                parts += [row[start:], rng.random(width - len(row) + start)]
            self.buffer = np.concatenate(parts).reshape(runs, n, width)
            self.pos[:] = 0
        return sliding_window_view(self.buffer, k, axis=2)[self.run, self.node, self.pos]

    def advance(self, used):
        self.pos += used


def _adaptive_law(A, policy, params, where=""):
    """The hashable law of ``policy`` on A that ``_adaptive_slots`` decides:
    ("decay", ``decay_period`` of the maximum in-degree), reading no
    ``params``, or ("sinr", density, dilution) from ``params``, each an
    integer in 1..2**63 - 1 (``core._integer``). An unknown policy or a
    missing sinr option, named and followed by ``where``, is an InstanceError."""
    if policy == "decay":
        return "decay", decay_period(int(A.topo.degree.max()))
    if policy != "sinr":
        raise InstanceError(f"unknown adaptive policy {policy!r}")
    missing = [name for name in ("density", "dilution") if name not in (params or {})]
    if missing:
        raise InstanceError(f"sinr needs {' and '.join(missing)}{where}")
    return ("sinr", *(_integer(params[name], f"sinr {name}", 1, _INT64_MAX)
                      for name in ("density", "dilution")))


def _adaptive_slots(law, streams, n):
    """Slot source of the ``_adaptive_law`` ``law`` on nodes 1..n in one run
    per seed of the ``_NodeStreams`` store ``streams`` of n or more nodes:
    ``slots(start, stop)`` decides rounds start + 1..stop of every run, as a
    (stop - start, runs, n) bool mask, whose first columns serve every
    instance of the law with fewer nodes. Node v draws from its own stream,
    that of ``default_rng([seed, v])``. Under decay a node fires from the
    start of each period and draws once per firing: below 1/2 it falls
    silent until the next period. Under sinr node v draws in each round
    congruent to v modulo the dilution and fires if the draw is below
    1/density. No decision depends on feedback, so the runs' nodes are
    decided as runs * n independent nodes, a whole block of rounds at once,
    taking exactly the values a round-by-round loop would."""
    runs = len(streams.prefix)
    nodes = runs * n
    draws = _NodeDraws(streams, n)
    if law[0] == "decay":
        period = law[1]
        on = np.zeros(nodes, dtype=bool)
        index = np.arange(nodes)

        def decide(start, stop):
            # A period starts at round 1 mod period. A node's firings in a
            # period are a run of rounds that use consecutive values, up to
            # and including its first draw < 0.5.
            k = stop - start
            low = np.where(draws.peek(k) < 0.5, np.arange(k), k)
            next_low = np.minimum.accumulate(low[:, ::-1], axis=1)[:, ::-1]
            used = np.zeros(nodes, dtype=int)
            fire = np.empty((k, nodes), dtype=bool)
            a = start
            while a < stop:
                b = min(stop, a + period - a % period)
                if a % period == 0:
                    on[:] = True
                high = next_low[index, used] - used
                count = on * np.minimum(b - a, high + 1)
                fire[a - start:b - start] = np.arange(b - a)[:, None] < count
                on[:] &= high >= b - a
                used += count
                a = b
            draws.advance(used)
            return fire

    else:
        _, density, dilution = law
        residue = np.tile(np.arange(1, n + 1) % dilution, runs)
        node = np.arange(nodes)

        def decide(start, stop):
            rounds = np.arange(start + 1, stop + 1)[:, None]
            eligible = residue == rounds % dilution
            # Round r uses a node's j-th next value, j its rounds in start + 1..r - 1.
            before = (start - residue) // dilution
            values = draws.peek(stop - start)[node, (rounds - 1 - residue) // dilution - before]
            draws.advance((stop - residue) // dilution - before)
            return eligible & (values < 1.0 / density)

    return lambda start, stop: decide(start, stop).reshape(stop - start, runs, n)
