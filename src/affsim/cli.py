"""Command-line front end: generate instances, characterize them, build
schedules, and run comparison sweeps.

Exit codes: 0 success, 1 validation error, 2 a greedy schedule over its slot
budget or a sweep whose results include truncated runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .core import InstanceError, characterize, phase_count, schedule_to_text
from .engine import MAX_ROUNDS_DEFAULT, run_schedule, summarize, sweep, write_csv
from .protocols import (
    RandomizedParams,
    ScheduleError,
    deterministic_schedule,
    randomized_schedule,
)
from .scenario import (
    generate_office_layer,
    load_instance,
    load_scenario,
    save_instance,
    sinr_defaults,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INCOMPLETE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affsim",
        description="Interference-aware layer dissemination: schedules and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="print instance characterization")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--c", type=float, default=None,
                   help="interference-to-degree ratio constant (derived if omitted)")

    p = sub.add_parser("generate", help="write an office instance file")
    p.add_argument("--scenario", required=True, help="scenario spec JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("schedule", help="build and verify a schedule")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--protocol", required=True,
                   choices=["randomized", "deterministic"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--m-override", type=int, default=None,
                   help="randomized: slots per phase, in place of m")
    p.add_argument("--fallback", action="store_true",
                   help="randomized: phases sized from n alone (abar = n - 1)")

    p = sub.add_parser("sweep", help="run instances x protocols x seeds to CSV")
    p.add_argument("--instance", action="append", default=[],
                   help="instance JSON file (repeatable)")
    p.add_argument("--scenario", default=None, help="scenario spec JSON")
    p.add_argument("--protocol", action="append", default=[],
                   choices=["randomized", "deterministic", "decay", "sinr"])
    p.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=MAX_ROUNDS_DEFAULT,
                   help="round cap of the decay and sinr baselines; "
                        "schedules always run to their end")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--m-override", type=int, default=None,
                   help="randomized: slots per phase, in place of m")
    p.add_argument("--density", type=int, default=None)
    p.add_argument("--dilution", type=int, default=None)
    return parser


# Built at import, not per call: every main() in a process parses with it.
PARSER = build_parser()


def cmd_characterize(args):
    A = load_instance(args.instance)
    char = characterize(A, c=args.c)
    print("receiver  |F_w|  abar_w")
    for w, degree, abar_w in zip(A.topo.receivers, A.topo.degree.tolist(), char.abar_w):
        print(f"{w:8d}  {degree:5d}  {abar_w:.6f}")
    print(f"abar={char.abar:.6f} c={char.c:.6f} b={char.b:.6f} d={char.d:.6f}")
    print(f"m={char.m} phases={char.phases} slot_bound={char.slot_bound}")
    return EXIT_OK


def cmd_generate(args):
    specs = load_scenario(args.scenario)
    if len(specs) != 1:
        raise InstanceError("generate needs a scenario with a single office count")
    save_instance(generate_office_layer(specs[0]), args.out)
    print(f"wrote {args.out} (n={specs[0].n})")
    return EXIT_OK


def cmd_schedule(args):
    if args.seed < 0:
        raise InstanceError(f"--seed must be >= 0, got {args.seed}")
    if args.protocol == "deterministic" and (args.fallback or args.m_override is not None):
        raise InstanceError("--fallback and --m-override apply to --protocol randomized only")
    A = load_instance(args.instance)
    char = characterize(A, c=args.c)
    if args.protocol == "randomized":
        if args.fallback:
            char = dataclasses.replace(char, phases=phase_count(A.n - 1, char.b))
        sched = randomized_schedule(RandomizedParams(char, args.seed, args.m_override), A.n)
    else:
        sched = deterministic_schedule(A, char)
    with open(args.out, "w") as fh:
        fh.write(schedule_to_text(sched))
    first = run_schedule(A, sched).first_success
    print(f"slots={len(sched)} covered={len(first)}/{A.n}")
    if len(first) < A.n:
        print(f"uncovered={[w for w in A.topo.receivers if w not in first]}")
    return EXIT_OK


def _sweep_instances(args):
    """Yield (instance_id, matrix, sinr options) for every --instance file,
    then every office size of --scenario, once sinr's flags (when sinr
    runs) and the presence of some instance are checked. The options are
    None unless sinr runs, else the flags or the spec's ``sinr_defaults``."""
    runs_sinr = "sinr" in args.protocol
    flags = _sinr_flags(args) if runs_sinr else None
    if not (args.instance or args.scenario):
        raise InstanceError("sweep needs --instance or --scenario")
    for path in args.instance:
        yield path, load_instance(path), flags
    for spec in load_scenario(args.scenario) if args.scenario else []:
        yield (f"office_n{spec.n}", generate_office_layer(spec),
               flags or (sinr_defaults(spec) if runs_sinr else None))


def _sinr_flags(args):
    """sinr's options from --density and --dilution, checked before any
    instance is built: both or neither, each >= 1; None when neither is
    given, which needs every instance to be an office scenario's, whose
    spec gives the defaults (an instance file has none)."""
    given = (args.density, args.dilution)
    if given == (None, None):
        if args.instance:
            raise InstanceError(
                f"sinr needs --density and --dilution for instance file {args.instance[0]}")
        return None
    if None in given or min(given) < 1:
        raise InstanceError("sinr needs both --density and --dilution, each >= 1")
    return {"density": args.density, "dilution": args.dilution}


def cmd_sweep(args):
    if args.seed_base < 0:
        raise InstanceError(f"--seed-base must be >= 0, got {args.seed_base}")
    if args.seeds < 1:
        raise InstanceError(f"--seeds must be >= 1, got {args.seeds}")
    if not args.protocol:
        raise InstanceError("sweep needs at least one --protocol")
    rows = sweep(_sweep_instances(args), args.protocol,
                 range(args.seed_base, args.seed_base + args.seeds), args.max_rounds,
                 c=args.c, m_override=args.m_override)
    write_csv(rows, args.out)
    stats = summarize(rows)
    bounds = {row.instance_id: row.slot_bound for row in rows if row.slot_bound is not None}
    print("instance_id,protocol,runs,mean,median,max,bound")
    for (instance_id, protocol), stat in sorted(stats.items()):
        bound = bounds.get(instance_id, "") if protocol == "randomized" else ""
        print(
            f"{instance_id},{protocol},{stat['runs']},{stat['mean']:.1f},"
            f"{stat['median']:.1f},{stat['max']},{bound}"
        )
    if any(not row.completed for row in rows):
        print("warning: truncated runs present", file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; its usage-error code 2 means 1 here.
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    handlers = {
        "characterize": cmd_characterize,
        "generate": cmd_generate,
        "schedule": cmd_schedule,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    raise SystemExit(main())
