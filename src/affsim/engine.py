"""Judging of the slots that protocols emit: slotted-time execution of
schedules and of the adaptive baselines' slot source (both in
``protocols``), replay, and the sweep harness that crosses instances x
protocols x seeds into CSV rows."""
from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field

import numpy as np

from .core import (InstanceError, _check_schedule, _integer, characterize, link_success,
                   verify_selective)
from .protocols import RandomizedSlots, _adaptive_slots, _NodeStreams, deterministic_schedule

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


# Slots of the first evaluation block; each later one doubles the slots judged,
# up to _MAX_BLOCK slots (which bounds a block's (slots, links) product). Most
# receivers are covered within the first few slots, so a short first block
# judges fewer link-slot cells than a longer one would.
_FIRST_BLOCK = 16
_MAX_BLOCK = 1024
# Seeds x links of a sweep batch: a sweep judges max(1, _BATCH_LINKS // links)
# seeds of an (instance, protocol) pair at once, links counted on its largest
# instance. That is one seed at office n = 600 (1,800 links), where two would
# triple a sweep's traced peak (5.5 against 1.7 MB).
_BATCH_LINKS = 2 ** 11


def _first_success(A, slots, cap, runs=1):
    """Earliest successful slot (1-based) of each receiver in each of
    ``runs`` runs on A within the first ``cap`` slots, as a (runs, n) int
    array; 0 marks a receiver the run never selects.

    ``slots(start, stop)`` returns the (stop - start, runs, n) bool mask of
    slots start + 1..stop of every run, in blocks of 16, 16, 32, ..., 1024
    slots. Each block goes through one ``link_success`` call, its runs
    stacked as (slots * runs) rows, on the link rows of receivers that some
    run has not covered: a receiver's rows drop once every run covers it,
    so a late block multiplies only the weight rows that its pending links
    read, and the loop ends when none is left; one ``np.minimum.at`` keeps
    each run's earliest success per receiver, found by one
    ``np.flatnonzero`` of the C-ordered mask, which copies nothing. Grid
    totals do not depend on summation order, and later slots cannot undo a
    first success, so each run's answer is that of one pass over its own
    ``cap`` slots.
    """
    n = A.n
    receiver_of = A.topo.receiver
    rows = np.arange(len(receiver_of))
    first = np.zeros((runs, n), dtype=int)
    done = 0
    # Every receiver has a link, so some rows are left until all are covered.
    while done < cap and not first.all():
        stop = min(max(2 * done, _FIRST_BLOCK), done + _MAX_BLOCK, cap)
        k = stop - done
        success = link_success(A, slots(done, stop).reshape(k * runs, n), rows)
        # Stacked row slot * runs + run, in slot-major order.
        hit, link = np.divmod(np.flatnonzero(success), len(rows))
        if hit.size:
            slot, run = np.divmod(hit, runs)
            earliest = np.full((runs, n), k)
            np.minimum.at(earliest, (run, receiver_of[rows[link]]), slot)
            new = (earliest < k) & (first == 0)
            first[new] = done + earliest[new] + 1
            rows = rows[~first.all(axis=0)[receiver_of[rows]]]
        done = stop
    return first


def _first_dict(first):
    """A run's (n,) first successes as {receiver: slot}, covered ones only."""
    covered = np.flatnonzero(first)
    return dict(zip((covered + 1).tolist(), first[covered].tolist()))


def _schedule_first_success(A, sched):
    """(1, n) first successes of one run of the (slots, n) mask ``sched``. A
    slot with no transmitter selects no receiver, so only the busy slots
    are judged; judged slot j is schedule slot ``busy[j - 1] + 1``."""
    busy = np.flatnonzero(sched.any(axis=1))
    first = _first_success(A, lambda start, stop: sched[busy[start:stop], None], len(busy))
    return np.r_[0, busy + 1][first]


def run_schedule(A, sched, protocol="schedule", seed=None):
    """Run a schedule, a (slots, n) bool mask: slots are evaluated in blocks
    only until every receiver is covered, but the record keeps the whole
    mask as its ``transmit``, for auditability. There is no round cap."""
    _check_schedule(A, sched)
    return RunRecord(protocol, seed, sched, _first_dict(_schedule_first_success(A, sched)[0]))


def _randomized_first_success(A, char, seeds, m_override):
    """The (len(seeds), n) first successes of ``run_schedule`` on
    ``randomized_schedule(RandomizedParams(char, seed, m_override), A.n)``
    for each of ``seeds``, drawing from their one ``RandomizedSlots`` source
    only the slots it judges. Phase 0 fires every transmitter in each of its
    m slots, so a receiver it covers succeeds in slot 1 and slots 2..m
    select none: the judged slots are slot 1, read as its equal slot m, then
    slots m + 1 onward, and judged slot j > 1 is schedule slot j + m - 1."""
    source = RandomizedSlots(char, seeds, A.n, m_override)
    m = source.m
    first = _first_success(A, lambda start, stop: source(start + m - 1, stop + m - 1),
                           len(source) - m + 1, len(seeds))
    return np.where(first > 1, first + m - 1, first)


def run_adaptive(A, policy, params, seed, max_rounds):
    """Iterate the adaptive policy ``policy`` (``decay``, or ``sinr`` with
    ``params`` holding ``density`` and ``dilution``), as
    ``protocols._adaptive_slots`` decides it, until every receiver is
    covered or the round cap is hit (truncation is an outcome, not an
    error).

    The stop-when-all-covered guard uses global knowledge; it is a
    termination-detection device of the simulation, not of the protocol.
    The run is a batch of one, on a store of its seed, in the loop that
    ``sweep`` runs its seeds through: the slot source decides blocks of
    rounds (16, 16, 32, ...) and ``_first_success`` judges them. The record
    keeps the rounds up to completion or the cap, and drops later ones.
    ``max_rounds`` must be an integer >= 1 and ``seed`` one >= 0, as
    ``core._integer`` checks them.
    """
    max_rounds = _integer(max_rounds, "max_rounds", 1)
    n = A.n
    decide = _adaptive_slots(A, policy, params, _NodeStreams([seed], n))
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
    """One sweep run; ``first`` is its read-only (n,) first successes in
    schedule slots, 0 = never covered, left out of == and repr."""

    instance_id: str
    protocol: str
    seed: int
    n: int
    rounds: int
    completed: bool
    # The characterization's slot_bound, on randomized rows only.
    slot_bound: int | None = None
    first: np.ndarray | None = field(default=None, compare=False, repr=False)


def sweep(instances, protocols, seeds, max_rounds=MAX_ROUNDS_DEFAULT, c=None, m_override=None):
    """Cross product of runs, one row per (protocol, instance, seed), in
    that order, except that the greedy (``deterministic``), which draws
    nothing, runs on the first seed only (a sweep of the greedy alone walks
    no other seed).

    ``instances`` is any iterable of (instance_id, A, sinr), ``sinr`` the
    instance's {"density", "dilution"} (None when sinr is not run), read
    into a list once the checks that need no instance pass.
    ``protocols`` holds names: randomized, deterministic, decay, sinr.
    ``c`` goes to ``characterize``, and ``m_override`` to the randomized
    schedule; it and ``max_rounds`` must be integers >= 1 whatever the
    protocols. The seeds must be integers >= 0; each batch checks its own
    as it starts (the list is never walked as a whole), so a sweep of the
    greedy alone checks the one seed it writes. ``core._integer`` makes
    every one of these checks. Each instance is characterized once, on its
    first randomized or deterministic run. A randomized batch builds no
    mask: its seeds share one ``RandomizedSlots`` source of the instance's
    characterization and ``m_override``, which ``_randomized_first_success``
    reads only as far as it judges, phase 0 by one slot, with the first
    successes of ``run_schedule`` on each whole ``randomized_schedule``.

    The seeds go in batches of max(1, _BATCH_LINKS // L) = max(1, 2^11 // L)
    seeds, L the largest link count among the instances, and each
    (instance, protocol) pair runs a batch's seeds through one
    ``_first_success`` loop, as ``run_schedule`` and ``run_adaptive`` run
    one. The decay and sinr runs of a batch share one
    ``_NodeStreams`` store of its seeds for the largest n, built on the
    batch's first adaptive run and dropped before the next batch's; the
    rows are then put in the order above.

    Every row takes its outcome from the run's first successes: rounds is
    the completion round (last first-success slot) for every protocol,
    schedules included, so the metric is comparable with the adaptive
    baselines' stop-at-completion count; truncated or incomplete runs
    report max_rounds with completed=False. A row keeps them as ``first``.
    """
    for name, values in (("protocols", protocols), ("seeds", seeds)):
        if len(values) == 0:
            raise InstanceError(f"{name} must be non-empty")
    _integer(max_rounds, "max_rounds", 1)
    if m_override is not None:
        _integer(m_override, "m_override", 1)
    instances = list(instances)
    if not instances:
        raise InstanceError("instances must be non-empty")
    missing = [i for i, _, sinr in instances if sinr is None] if "sinr" in protocols else []
    if missing:
        raise InstanceError(f"sinr needs density and dilution for instance {missing[0]}")
    if set(protocols) == {"deterministic"}:
        seeds = seeds[:1]
    n_max = max(A.n for _, A, _ in instances)
    batch = max(1, _BATCH_LINKS // max(len(A.topo.owner) for _, A, _ in instances))
    chars = {}
    rows = {}
    for b in range(0, len(seeds), batch):
        batch_seeds = [_integer(seed, "seed", 0) for seed in seeds[b:b + batch]]
        store = None
        for i, name in enumerate(protocols):
            if name == "deterministic" and b:
                continue
            for j, (instance_id, A, sinr) in enumerate(instances):
                if name in ("randomized", "deterministic") and j not in chars:
                    chars[j] = characterize(A, c=c)
                if name == "randomized":
                    first = _randomized_first_success(A, chars[j], batch_seeds, m_override)
                elif name == "deterministic":
                    first = _schedule_first_success(A, deterministic_schedule(A, chars[j]))
                else:
                    if store is None:
                        store = _NodeStreams(batch_seeds, n_max)
                    first = _first_success(A, _adaptive_slots(A, name, sinr, store), max_rounds,
                                           len(batch_seeds))
                bound = chars[j].slot_bound if name == "randomized" else None
                first.flags.writeable = False
                for r, run in enumerate(first):
                    completed = bool(run.all())
                    rounds = int(run.max()) if completed else max_rounds
                    rows[i, j, b + r] = SweepRow(instance_id, name, batch_seeds[r], A.n, rounds,
                                                 completed, bound, run)
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
