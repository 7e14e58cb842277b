"""The benchmark's workloads: the input files each writes from its seed, and
the ``affsim`` commands it then runs. Why each workload exists is in
README.md next to this file.

Every function writes its inputs into the current directory and returns the
commands. The same seed gives byte-identical inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from affsim.scenario import (
    OfficeGridSpec,
    generate_office_layer,
    generate_rn_instance,
    load_instance,
    save_instance,
    sinr_defaults,
)

PROTOCOLS = ("randomized", "decay", "sinr")

OFFICE_SIZES = tuple(range(2, 15))  # offices, n = 3 per office: 6..42
OFFICE_SEEDS = 10

GREEDY_OFFICES = (5, 6)  # n = 15 and 18; n >= 21 exceeds the exact greedy
GREEDY_RN = ((80, 6), (80, 6))  # (n, max degree) of each radio-network file

LARGE_OFFICES = 200  # n = 600
LARGE_SEEDS = 2

RN_INSTANCES = 3
RN_N, RN_DEGREE = 300, 32
RN_DENSITY = 16
RN_SEEDS = 7


@dataclass
class Command:
    """One ``affsim`` invocation and what the checks need to judge it."""

    argv: list
    out: str  # the file the command writes
    ops: int  # sweep rows, or 1 for a schedule
    # Sweeps: instance id -> (loader, sinr options), so a check can re-run
    # one seed of each (instance, protocol) outside the CLI.
    instances: dict = field(default_factory=dict)
    protocols: tuple = ()
    seed_base: int = 0
    instance: str | None = None  # schedules: the instance file

    @property
    def kind(self):
        return self.argv[0]


def _sweep(sources, out, protocols, seeds, seed_base, size, instances, extra=()):
    """A sweep over ``size`` instances; ``instances`` holds the ones the
    checks re-run."""
    argv = ["sweep", *sources]
    for name in protocols:
        argv += ["--protocol", name]
    argv += [*extra, "--seeds", str(seeds), "--seed-base", str(seed_base),
             "--out", out]
    ops = size * len(protocols) * seeds
    return Command(argv, out, ops, instances, tuple(protocols), seed_base)


def _schedule(path):
    out = path.replace(".json", ".sched.txt")
    argv = ["schedule", "--instance", path, "--protocol", "deterministic",
            "--out", out]
    return Command(argv, out, 1, instance=path)


def _office(offices):
    spec = OfficeGridSpec(offices=offices)
    return f"office_n{spec.n}", (lambda: generate_office_layer(spec), sinr_defaults(spec))


def _write_scenario(path, offices):
    with open(path, "w") as fh:
        json.dump({"offices": offices}, fh)


def office_sweep(seed):
    _write_scenario("office.json", list(OFFICE_SIZES))
    instances = dict(_office(k) for k in OFFICE_SIZES)
    return [_sweep(["--scenario", "office.json"], "office_sweep.csv", PROTOCOLS,
                   OFFICE_SEEDS, seed * OFFICE_SEEDS, len(instances), instances)]


def greedy(seed):
    paths = []
    for k in GREEDY_OFFICES:
        spec = OfficeGridSpec(offices=k)
        paths.append(f"office_n{spec.n}.json")
        save_instance(generate_office_layer(spec), paths[-1])
    for j, (n, degree) in enumerate(GREEDY_RN):
        paths.append(f"rn{j}_n{n}.json")
        save_instance(generate_rn_instance(n, degree, [seed, j]), paths[-1])
    return [_schedule(path) for path in paths]


def large_office(seed):
    _write_scenario("large.json", LARGE_OFFICES)
    return [_sweep(["--scenario", "large.json"], "large_office.csv", PROTOCOLS,
                   LARGE_SEEDS, seed * LARGE_SEEDS, 1, dict([_office(LARGE_OFFICES)]))]


def rn_adaptive(seed):
    opts = {"density": RN_DENSITY, "dilution": 1}
    sources = []
    for j in range(RN_INSTANCES):
        path = f"rn{j}.json"
        save_instance(generate_rn_instance(RN_N, RN_DEGREE, [seed, j]), path)
        sources += ["--instance", path]
    # The checks replay one run per (size, protocol); the files share a size.
    instances = {"rn0.json": (lambda: load_instance("rn0.json"), opts)}
    extra = ["--density", str(RN_DENSITY), "--dilution", "1"]
    return [_sweep(sources, "rn_adaptive.csv", ("decay", "sinr"), RN_SEEDS,
                   seed * RN_SEEDS, RN_INSTANCES, instances, extra)]


WORKLOADS = {
    "office_sweep": office_sweep,
    "greedy": greedy,
    "large_office": large_office,
    "rn_adaptive": rn_adaptive,
}
