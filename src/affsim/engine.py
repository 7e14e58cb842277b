"""Slotted-time execution of schedules and adaptive policies, plus the
sweep harness that crosses instances x protocols x seeds into CSV rows."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import InstanceError, Schedule, characterize, link_success, verify_selective
from .protocols import (
    RandomizedParams,
    decay_period,
    deterministic_schedule,
    randomized_schedule,
)

MAX_ROUNDS_DEFAULT = 10 ** 6


@dataclass(eq=False)
class RunRecord:
    """Outcome of one simulated execution.

    ``transmit`` is the (slots, n) bool mask of the executed slots: the whole
    schedule for ``run_schedule``, the rounds up to completion or the cap for
    ``run_adaptive``. ``per_slot_transmitters`` derives the 1-based ascending
    transmitter tuple of each slot from it on demand.
    """

    protocol: str
    seed: int | None
    transmit: np.ndarray
    first_success: dict
    completed: bool

    @property
    def slots_executed(self):
        return len(self.transmit)

    @property
    def per_slot_transmitters(self):
        return [tuple((np.flatnonzero(row) + 1).tolist()) for row in self.transmit]

    @property
    def rounds(self):
        """Completion round: the last first-success slot."""
        if not self.completed:
            return None
        return max(self.first_success.values()) if self.first_success else 0

    def to_dict(self):
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "slots_executed": self.slots_executed,
            "per_slot_transmitters": [list(s) for s in self.per_slot_transmitters],
            "first_success": dict(sorted(self.first_success.items())),
            "completed": self.completed,
        }


def _first_success(A, success):
    """Earliest successful slot (1-based) of each receiver, from a (slots, L)
    link-success mask: the first success of each link, then the minimum over
    each receiver's links. Receivers never selected are absent."""
    never = len(success)
    hit = success.any(axis=0)
    if not hit.any():
        return {}
    first = np.full(A.n, never)
    np.minimum.at(first, A.link_receivers(), np.where(hit, success.argmax(axis=0), never))
    covered = np.flatnonzero(first < never)
    return dict(zip((covered + 1).tolist(), (first[covered] + 1).tolist()))


def run_schedule(A, sched, protocol="schedule", seed=None):
    """Evaluate every slot of a schedule in order (the full schedule is kept
    for auditability even after all receivers are covered).

    All slots are evaluated at once: the schedule's (slots, n) mask times
    the transposed affectance matrix gives every link's total in every slot.
    """
    if sched.n != A.n:
        raise InstanceError(f"schedule for n={sched.n} run on an instance with n={A.n}")
    first = _first_success(A, link_success(A.dense, A.owners(), sched.mask))
    return RunRecord(protocol, seed, sched.mask, first, len(first) == A.n)


def max_in_degree(topo):
    return max(len(topo.f(w)) for w in topo.receivers)


# Values each node draws from its generator at a time in run_adaptive; any
# size gives the same streams.
DRAW_BLOCK = 32


class _NodeDraws:
    """Per-node uniform streams, ``default_rng([seed, v])`` for node v, drawn
    in blocks of ``DRAW_BLOCK``. ``rng.random(k)`` yields the same values as k
    scalar ``rng.random()`` calls, so taking values only where the scalar
    per-node step would draw one keeps every stream byte-identical."""

    def __init__(self, seed, n):
        self.rngs = [np.random.default_rng([seed, v]) for v in range(1, n + 1)]
        self.block = np.empty((n, DRAW_BLOCK))
        self.pos = np.full(n, DRAW_BLOCK)

    def take(self, nodes):
        """Next value of each listed node's stream (0-based, no repeats)."""
        for v in nodes[self.pos[nodes] == DRAW_BLOCK]:
            self.block[v] = self.rngs[v].random(DRAW_BLOCK)
            self.pos[v] = 0
        values = self.block[nodes, self.pos[nodes]]
        self.pos[nodes] += 1
        return values


def run_adaptive(A, policy, params, seed, max_rounds):
    """Iterate an adaptive per-node policy until every receiver is covered or
    the round cap is hit (truncation is an outcome, not an error).

    The stop-when-all-covered guard uses global knowledge; it is a
    termination-detection device of the simulation, not of the protocol.
    Each node draws from its own substream of the master seed so decisions
    are independent of iteration order. Every round is decided for all nodes
    at once; the values come from per-node pre-drawn blocks and are taken
    only where ``decay_step`` (firing nodes) or ``sinr_step`` (eligible
    nodes) would draw, so runs match those per-node steps exactly. Each
    round's transmit vector times the transposed affectance matrix gives its
    link totals.
    """
    if max_rounds < 1:
        raise InstanceError("max_rounds must be >= 1")
    n = A.n
    draws = _NodeDraws(seed, n)
    if policy == "decay":
        period = decay_period(params.get("delta") or max_in_degree(A.topo))
        on = np.zeros(n, dtype=bool)

        def decide(rnd):
            # Every node's period counter is (rnd - 1) % period.
            if (rnd - 1) % period == 0:
                on[:] = True
            fire = on.copy()
            nodes = np.flatnonzero(fire)
            on[nodes] = draws.take(nodes) >= 0.5
            return fire

    elif policy == "sinr":
        density = params["density"]
        dilution = params["dilution"]
        if density < 1 or dilution < 1:
            raise InstanceError("density and dilution must be >= 1")
        residue = np.arange(1, n + 1) % dilution

        def decide(rnd):
            nodes = np.flatnonzero(residue == rnd % dilution)
            fire = np.zeros(n, dtype=bool)
            fire[nodes] = draws.take(nodes) < 1.0 / density
            return fire

    else:
        raise InstanceError(f"unknown adaptive policy {policy!r}")

    receiver_of = A.link_receivers()
    covered = np.zeros(n, dtype=bool)
    fires, successes = [], []
    while len(fires) < max_rounds and not covered.all():
        fire = decide(len(fires) + 1)
        success = link_success(A.dense, A.owners(), fire)
        covered[receiver_of[success]] = True
        fires.append(fire)
        successes.append(success)
    first = _first_success(A, np.array(successes))
    return RunRecord(policy, seed, np.array(fires), first, len(first) == n)


def replay_first_success(A, record):
    """Independent re-evaluation of a record's slots through the scalar
    selection predicate (``verify_selective``); must reproduce
    first_success exactly."""
    return verify_selective(A, Schedule.from_mask(record.transmit)).first_slot


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol column of a sweep, with its per-protocol options."""

    name: str  # randomized | deterministic | decay | sinr
    options: dict = field(default_factory=dict)

    @property
    def uses_seed(self):
        return self.name != "deterministic"


@dataclass(frozen=True)
class SweepRow:
    instance_id: str
    protocol: str
    seed: int
    n: int
    rounds: int
    completed: bool


def _run_protocol(A, spec, seed, max_rounds, cache):
    name = spec.name
    opts = spec.options
    if name == "randomized":
        key = ("char", opts.get("c"))
        if key not in cache:
            cache[key] = characterize(A, c=opts.get("c"))
        params = RandomizedParams(
            characterization=cache[key],
            seed=seed,
            fallback_mode=opts.get("fallback", False),
            m_override=opts.get("m_override"),
        )
        return run_schedule(A, randomized_schedule(params, A.n), name, seed)
    if name == "deterministic":
        mode = opts.get("mode", "exact")
        # Exact mode ignores the seed; a Monte Carlo schedule depends on it.
        key = ("det", opts.get("c"), mode, None if mode == "exact" else seed)
        if key not in cache:
            char = characterize(A, c=opts.get("c"))
            cache[key] = deterministic_schedule(A, char, mode=mode, seed=seed)
        return run_schedule(A, cache[key], name, seed)
    if name in ("decay", "sinr"):
        return run_adaptive(A, name, opts, seed, max_rounds)
    raise InstanceError(f"unknown protocol {name!r}")


def sweep(instances, protocols, seeds, max_rounds=MAX_ROUNDS_DEFAULT):
    """Cross product of runs, one row per (instance, protocol, seed).

    Rounds is the completion round (last first-success slot) for every
    protocol, schedules included, so the metric is comparable with the
    adaptive baselines' stop-at-completion count; truncated or incomplete
    runs report max_rounds with completed=False.
    """
    if not instances or not protocols or not seeds:
        raise InstanceError("instances, protocols, and seeds must be non-empty")
    rows = []
    for instance_id, A in instances:
        cache = {}
        for spec in protocols:
            for seed in seeds:
                record = _run_protocol(A, spec, seed, max_rounds, cache)
                if record.completed:
                    rounds = record.rounds
                    completed = True
                else:
                    rounds = max_rounds
                    completed = False
                rows.append(
                    SweepRow(instance_id, spec.name, seed, A.n, rounds, completed)
                )
    return rows


CSV_HEADER = ["instance_id", "protocol", "seed", "n", "rounds", "completed"]


def write_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.instance_id,
                    row.protocol,
                    row.seed,
                    row.n,
                    row.rounds,
                    "true" if row.completed else "false",
                ]
            )


def summarize(rows):
    """Per-(instance, protocol) mean/median/max of completion rounds."""
    groups = {}
    for row in rows:
        groups.setdefault((row.instance_id, row.protocol), []).append(row.rounds)
    out = {}
    for key, values in groups.items():
        values = sorted(values)
        k = len(values)
        median = (
            values[k // 2]
            if k % 2
            else (values[k // 2 - 1] + values[k // 2]) / 2.0
        )
        out[key] = {
            "mean": sum(values) / k,
            "median": median,
            "max": values[-1],
            "runs": k,
        }
    return out
