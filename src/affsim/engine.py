"""Slotted-time execution of schedules and adaptive policies, plus the
sweep harness that crosses instances x protocols x seeds into CSV rows."""
from __future__ import annotations

import csv
import operator
import statistics
from dataclasses import dataclass

import numpy as np

from .core import InstanceError, _check_schedule, characterize, link_success, verify_selective
from .protocols import RandomizedParams, RandomizedSlots, decay_period, deterministic_schedule

MAX_ROUNDS_DEFAULT = 10 ** 6


@dataclass(eq=False)
class RunRecord:
    """Outcome of one simulated execution.

    ``transmit`` is the (slots, n) bool mask of the executed slots: the whole
    schedule for ``run_schedule``, the rounds up to completion or the cap for
    ``run_adaptive``. ``per_slot_transmitters`` derives the 1-based
    ascending transmitter tuple of each slot from it on demand.
    """

    protocol: str
    seed: int | None
    transmit: np.ndarray
    first_success: dict

    @property
    def completed(self):
        return len(self.first_success) == self.transmit.shape[1]

    @property
    def slots_executed(self):
        return len(self.transmit)

    @property
    def per_slot_transmitters(self):
        return [tuple((np.flatnonzero(row) + 1).tolist()) for row in self.transmit]

    @property
    def rounds(self):
        """Completion round: the last first-success slot."""
        return max(self.first_success.values()) if self.completed else None

    def to_dict(self):
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "slots_executed": self.slots_executed,
            "per_slot_transmitters": [list(s) for s in self.per_slot_transmitters],
            "first_success": dict(sorted(self.first_success.items())),
            "completed": self.completed,
        }


# Slots of the first evaluation block; later blocks double, up to _MAX_BLOCK
# (which bounds a block's (slots, links) product on long runs).
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024
# Cells of a sweep batch's first block, _FIRST_BLOCK slots x seeds x links:
# a sweep judges max(1, _BATCH_CELLS // (_FIRST_BLOCK * links)) seeds of an
# (instance, protocol) pair at once, links counted on its largest instance.
_BATCH_CELLS = 2 ** 16


def _first_success(A, slots, cap, runs=1):
    """Earliest successful slot (1-based) of each receiver in each of
    ``runs`` runs on A within the first ``cap`` slots, as a (runs, n) int
    array; 0 marks a receiver the run never selects.

    ``slots(start, stop)`` returns the (stop - start, runs, n) bool mask of
    slots start + 1..stop of every run. Each block goes through one
    ``link_success`` call, its runs stacked as (slots * runs) rows, on the
    link rows of receivers that some run has not covered: a receiver's rows
    drop once every run covers it, and the loop ends when none is left.
    Grid totals do not depend on summation order, and later slots cannot
    undo a first success, so each run's answer is that of one pass over its
    own ``cap`` slots.
    """
    n = A.n
    receiver_of = A.topo.receiver
    links = np.arange(len(receiver_of))
    rows = slice(None)
    first = np.zeros((runs, n), dtype=int)
    done, size = 0, _FIRST_BLOCK
    # Every receiver has a link, so some rows are left until all are covered.
    while done < cap and not first.all():
        stop = min(done + size, cap)
        k = stop - done
        success = link_success(A, slots(done, stop).reshape(k * runs, n), rows)
        success = success.reshape(k, runs, -1)
        hit = success.any(axis=0)
        if hit.any():
            live = links[rows]
            run, link = hit.nonzero()
            slot = np.full((runs, n), k)
            np.minimum.at(slot, (run, receiver_of[live[link]]), success.argmax(axis=0)[run, link])
            new = (slot < k) & (first == 0)
            first[new] = done + slot[new] + 1
            rows = live[~first.all(axis=0)[receiver_of[live]]]
        done, size = stop, min(2 * size, _MAX_BLOCK)
    return first


def _first_dict(first):
    """A run's (n,) first successes as {receiver: slot}, covered ones only."""
    covered = np.flatnonzero(first)
    return dict(zip((covered + 1).tolist(), first[covered].tolist()))


def _schedule_first_success(A, sched):
    """(1, n) first successes of one run of the (slots, n) mask ``sched``."""
    return _first_success(A, lambda start, stop: sched[start:stop, None], len(sched))


def run_schedule(A, sched, protocol="schedule", seed=None):
    """Run a schedule, a (slots, n) bool mask: slots are evaluated in blocks
    only until every receiver is covered, but the record keeps the whole
    mask as its ``transmit``, for auditability. There is no round cap."""
    _check_schedule(A, sched)
    return RunRecord(protocol, seed, sched, _first_dict(_schedule_first_success(A, sched)[0]))


def _randomized_first_success(A, params):
    """The (len(params), n) first successes of ``run_schedule`` on
    ``randomized_schedule(p, A.n)`` for each p of ``params``, which differ
    in their seed only, drawing only the slots it judges: one
    ``RandomizedSlots`` per seed, stacked. Phase 0 fires every transmitter
    in each of its m slots, so a receiver it covers succeeds in slot 1 and
    slots 2..m select none: the judged slots are slot 1, then slots m + 1
    onward, and judged slot j > 1 is schedule slot j + m - 1."""
    sources = [RandomizedSlots(p, A.n) for p in params]
    m = sources[0].m

    def slots(start, stop):
        if start:
            return np.stack([source(start + m - 1, stop + m - 1) for source in sources], axis=1)
        return np.stack([np.concatenate([source(0, 1), source(m, stop + m - 1)])
                         for source in sources], axis=1)

    first = _first_success(A, slots, len(sources[0]) - m + 1, len(sources))
    return np.where(first > 1, first + m - 1, first)


# The largest sinr density or dilution: numpy takes the dilution as an int64.
_INT64_MAX = np.iinfo(np.int64).max


def max_in_degree(topo):
    return int(topo.degree.max())


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
    seed = operator.index(seed)
    if seed < 0:
        raise InstanceError(f"seed must be >= 0, got {seed}")
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


# Values of each node's stream that a store draws once for every run on its
# seed: they cover the first three evaluation blocks (32 + 64 + 128 rounds).
_SHARED = 256


class _NodeStreams:
    """The first ``_SHARED`` values of node v's stream, that of
    ``default_rng([seed, v])``, for v = 1..n, as the read-only (n, _SHARED)
    ``prefix``. A stream depends only on the seed and v, so every adaptive
    run on this seed whose instance has at most n nodes can read it."""

    def __init__(self, seed, n):
        from numpy.random.bit_generator import ISeedSequence
        ISeedSequence.register(_SeedState)
        self.seed, self.states = seed, _node_seed_states(seed, n)
        self.prefix = np.array([rng.random(_SHARED) for rng in self._rngs(len(self.states))])
        self.prefix.flags.writeable = False

    def _rngs(self, n):
        return [np.random.Generator(np.random.PCG64(_SeedState(state)))
                for state in self.states[:n]]

    def rngs(self, n):
        """Generators of nodes 1..n, each past its prefix (a double takes
        one 64-bit output, so ``advance(_SHARED)`` skips exactly it)."""
        rngs = self._rngs(n)
        for rng in rngs:
            rng.bit_generator.advance(_SHARED)
        return rngs


class _NodeDraws:
    """Per-node uniform streams of a batch of runs, read ahead in blocks: row
    r * n + v - 1 is node v's stream in run r, that of ``streams[r]``. The
    reads start on the stores' shared prefixes, stacked, and only a batch
    that reads past them builds private generators that continue each
    stream. ``rng.random(k)`` equals k ``rng.random()`` calls, so taking
    exactly the values the scalar per-node step would draw keeps every
    stream byte-identical."""

    def __init__(self, streams, n):
        self.streams, self.n, self.rngs = streams, n, None
        # One store's rows are a view: a refill builds a new buffer and never
        # writes in place.
        prefixes = [store.prefix[:n] for store in streams]
        self.buffer = prefixes[0] if len(prefixes) == 1 else np.concatenate(prefixes)
        self.pos = np.zeros(len(self.buffer), dtype=int)

    def peek(self, k):
        """(runs * n, k) array of each node's next k values; ``advance``
        consumes them."""
        rows, width = self.buffer.shape
        if k > width - self.pos.max():
            if self.rngs is None:
                self.rngs = [rng for store in self.streams for rng in store.rngs(self.n)]
            # Refill every row at once: the row widths of a 2-D buffer match.
            width = max(k, width)
            parts = []
            for row, start, rng in zip(self.buffer, self.pos.tolist(), self.rngs):
                parts += [row[start:], rng.random(width - len(row) + start)]
            self.buffer = np.concatenate(parts).reshape(rows, width)
            self.pos = np.zeros(rows, dtype=int)
        return np.take_along_axis(self.buffer, self.pos[:, None] + np.arange(k), axis=1)

    def advance(self, used):
        self.pos += used


def _adaptive_slots(A, policy, params, streams):
    """Slot source of ``len(streams)`` runs of an adaptive policy on A, run r
    drawing from the store ``streams[r]``: ``slots(start, stop)`` decides
    rounds start + 1..stop of every run, as a (stop - start, runs, n) bool
    mask. No decision depends on feedback, so the runs' nodes are decided
    as runs * n independent nodes, a whole block of rounds at once."""
    runs, n = len(streams), A.n
    nodes = runs * n
    draws = _NodeDraws(streams, n)
    if policy == "decay":
        period = decay_period(max_in_degree(A.topo))
        on = np.zeros(nodes, dtype=bool)
        index = np.arange(nodes)

        def decide(start, stop):
            # A node fires from each period start (round 1 mod period) and,
            # drawing once per firing, stays on while it draws >= 0.5: its
            # firings in a period are a run of rounds that use consecutive
            # values, up to and including its first draw < 0.5.
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

    elif policy == "sinr":
        density = params["density"]
        dilution = params["dilution"]
        for name, value in (("density", density), ("dilution", dilution)):
            if not 1 <= value <= _INT64_MAX:
                raise InstanceError(f"sinr {name} must be in 1..2**63 - 1, got {value:.6g}")
        residue = np.tile(np.arange(1, n + 1) % dilution, runs)

        def decide(start, stop):
            eligible = residue == (np.arange(start + 1, stop + 1) % dilution)[:, None]
            # The j-th eligible round of a node uses its j-th next value.
            index = np.maximum(np.cumsum(eligible, axis=0) - 1, 0)
            values = np.take_along_axis(draws.peek(stop - start).T, index, axis=0)
            draws.advance(eligible.sum(axis=0))
            return eligible & (values < 1.0 / density)

    else:
        raise InstanceError(f"unknown adaptive policy {policy!r}")

    return lambda start, stop: decide(start, stop).reshape(stop - start, runs, n)


def run_adaptive(A, policy, params, seed, max_rounds, streams=None):
    """Iterate an adaptive per-node policy until every receiver is covered or
    the round cap is hit (truncation is an outcome, not an error).

    Under ``decay`` a node fires from the start of each period, of
    ``decay_period`` of the maximum in-degree rounds, and draws once per
    firing: below 1/2 it falls silent until the next period. Under ``sinr``,
    whose ``params`` hold ``density`` and ``dilution``, node v draws in each
    round congruent to v modulo the dilution and fires if the draw is below
    1/density.

    The stop-when-all-covered guard uses global knowledge; it is a
    termination-detection device of the simulation, not of the protocol. Node v
    draws from its own stream, that of ``default_rng([seed, v])``, seeded for
    all nodes in one numpy pass, so decisions are independent of iteration
    order. ``streams`` is a ``_NodeStreams`` of this seed with at least n rows,
    whose prefix the run reads instead of drawing its own; without it the run
    builds one. The run is a batch of one in the loop that ``sweep`` runs
    its seeds through: ``_adaptive_slots`` decides whole blocks of rounds,
    for all nodes at once, consuming exactly the values a round-by-round
    loop would, and ``_first_success`` judges them. The record keeps the
    rounds up to completion or the cap and drops any decided past
    completion.
    """
    if max_rounds < 1:
        raise InstanceError("max_rounds must be >= 1")
    n = A.n
    if streams is None:
        streams = _NodeStreams(seed, n)
    elif streams.seed != seed or len(streams.states) < n:
        raise InstanceError(f"node streams of seed {streams.seed} for {len(streams.states)} "
                            f"nodes used by a run of seed {seed} on n={n}")
    decide = _adaptive_slots(A, policy, params, [streams])
    decided = []

    def slots(start, stop):
        decided.append(decide(start, stop))
        return decided[-1]

    first = _first_dict(_first_success(A, slots, max_rounds)[0])
    rounds = max(first.values()) if len(first) == n else max_rounds
    return RunRecord(policy, seed, np.concatenate(decided)[:rounds, 0], first)


def replay_first_success(A, record):
    """Independent re-evaluation of a record's slots through the scalar
    selection predicate (``verify_selective``); must reproduce
    first_success exactly."""
    return verify_selective(A, record.transmit).first_slot


@dataclass(frozen=True)
class SweepRow:
    instance_id: str
    protocol: str
    seed: int
    n: int
    rounds: int
    completed: bool
    # The characterization's slot_bound, on randomized rows only.
    slot_bound: int | None = None


def sweep(instances, protocols, seeds, max_rounds=MAX_ROUNDS_DEFAULT, c=None, m_override=None):
    """Cross product of runs, one row per (protocol, instance, seed), in
    that order, except that the greedy (``deterministic``), which draws
    nothing, runs on the first seed only (a sweep of the greedy alone walks
    no other seed).

    ``instances`` holds (instance_id, A, sinr), where ``sinr`` is the
    instance's {"density", "dilution"} (None when sinr is not run);
    ``protocols`` holds names: randomized, deterministic, decay, sinr.
    ``c`` goes to ``characterize``, and ``m_override`` to the randomized
    schedule. Each instance is characterized once, on its first randomized
    or deterministic run, and its greedy schedule is built once. A
    randomized row builds no mask: ``_randomized_first_success`` draws only
    the slots it judges and judges phase 0 by its first slot, with the
    first successes of ``run_schedule`` on the whole ``randomized_schedule``.

    The seeds go in batches of max(1, _BATCH_CELLS // (_FIRST_BLOCK * L))
    seeds, L the largest link count among the instances, and each
    (instance, protocol) pair runs a batch's seeds through one
    ``_first_success`` loop, as ``run_schedule`` and ``run_adaptive`` run
    one. The decay and sinr runs of a batch share one ``_NodeStreams`` per
    seed for the largest n, built on the batch's first adaptive run and
    dropped before the next batch's; the rows are then put in the order
    above.

    Every row takes its outcome from the run's first successes: rounds is
    the completion round (last first-success slot) for every protocol,
    schedules included, so the metric is comparable with the adaptive
    baselines' stop-at-completion count; truncated or incomplete runs
    report max_rounds with completed=False.
    """
    if not instances or not protocols or not seeds:
        raise InstanceError("instances, protocols, and seeds must be non-empty")
    if max_rounds < 1:
        raise InstanceError("max_rounds must be >= 1")
    missing = [i for i, _, sinr in instances if sinr is None] if "sinr" in protocols else []
    if missing:
        raise InstanceError(f"sinr needs density and dilution for instance {missing[0]}")
    if set(protocols) == {"deterministic"}:
        seeds = seeds[:1]
    n_max = max(A.n for _, A, _ in instances)
    links = max(len(A.topo.owner) for _, A, _ in instances)
    batch = max(1, _BATCH_CELLS // (_FIRST_BLOCK * links))
    chars, greedy = {}, {}
    rows = {}
    for b in range(0, len(seeds), batch):
        batch_seeds = seeds[b:b + batch]
        stores = None
        for i, name in enumerate(protocols):
            if name == "deterministic" and b:
                continue
            for j, (instance_id, A, sinr) in enumerate(instances):
                if name in ("randomized", "deterministic") and j not in chars:
                    chars[j] = characterize(A, c=c)
                if name == "randomized":
                    first = _randomized_first_success(A, [
                        RandomizedParams(characterization=chars[j], seed=seed,
                                         m_override=m_override)
                        for seed in batch_seeds])
                elif name == "deterministic":
                    if j not in greedy:
                        greedy[j] = deterministic_schedule(A, chars[j])
                    first = _schedule_first_success(A, greedy[j])
                else:
                    if stores is None:
                        stores = [_NodeStreams(seed, n_max) for seed in batch_seeds]
                    params = sinr if name == "sinr" else {}
                    first = _first_success(A, _adaptive_slots(A, name, params, stores),
                                           max_rounds, len(stores))
                bound = chars[j].slot_bound if name == "randomized" else None
                for r, run in enumerate(first):
                    completed = bool(run.all())
                    rounds = int(run.max()) if completed else max_rounds
                    rows[i, j, b + r] = SweepRow(instance_id, name, batch_seeds[r], A.n, rounds,
                                                 completed, bound)
    return [rows[key] for key in sorted(rows)]


CSV_HEADER = ["instance_id", "protocol", "seed", "n", "rounds", "completed"]


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows([row.instance_id, row.protocol, row.seed, row.n, row.rounds,
                          "true" if row.completed else "false"] for row in rows)


def summarize(rows):
    """Per-(instance, protocol) mean/median/max of completion rounds."""
    groups = {}
    for row in rows:
        groups.setdefault((row.instance_id, row.protocol), []).append(row.rounds)
    return {
        key: {"mean": sum(values) / len(values), "median": statistics.median(values),
              "max": max(values), "runs": len(values)}
        for key, values in groups.items()
    }
