"""Command-line front end: generate instances, characterize them, build
schedules, and run comparison sweeps.

Exit codes: 0 success, 1 validation error, 2 a greedy schedule over its slot
budget or a sweep whose results include truncated runs.
"""
from __future__ import annotations

import argparse
import sys

from .core import (
    InstanceError,
    characterize,
    schedule_to_text,
    verify_selective,
)
from .engine import (
    MAX_ROUNDS_DEFAULT,
    ProtocolSpec,
    summarize,
    sweep,
    write_csv,
)
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


def _add_instance_args(parser, repeatable=False):
    if repeatable:
        parser.add_argument("--instance", action="append", default=[],
                            help="instance JSON file (repeatable)")
    else:
        parser.add_argument("--instance", required=True, help="instance JSON file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affsim",
        description="Interference-aware layer dissemination: schedules and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="print instance characterization")
    _add_instance_args(p)
    p.add_argument("--c", type=float, default=None,
                   help="interference-to-degree ratio constant (derived if omitted)")

    p = sub.add_parser("generate", help="write an office instance file")
    p.add_argument("--scenario", required=True, help="scenario spec JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("schedule", help="build and verify a schedule")
    _add_instance_args(p)
    p.add_argument("--protocol", required=True,
                   choices=["randomized", "deterministic"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--m-override", type=int, default=None)
    p.add_argument("--fallback", action="store_true",
                   help="size phases from n alone")

    p = sub.add_parser("sweep", help="run instances x protocols x seeds to CSV")
    _add_instance_args(p, repeatable=True)
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
    p.add_argument("--m-override", type=int, default=None)
    p.add_argument("--density", type=int, default=None)
    p.add_argument("--dilution", type=int, default=None)
    return parser


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
    A = load_instance(args.instance)
    char = characterize(A, c=args.c)
    if args.protocol == "randomized":
        params = RandomizedParams(
            characterization=char,
            seed=args.seed,
            fallback_mode=args.fallback,
            m_override=args.m_override,
        )
        sched = randomized_schedule(params, A.n)
    else:
        sched = deterministic_schedule(A, char)
    with open(args.out, "w") as fh:
        fh.write(schedule_to_text(sched))
    report = verify_selective(A, sched)
    print(f"slots={len(sched)} covered={len(report.covered)}/{A.n}")
    if report.uncovered:
        print(f"uncovered={sorted(report.uncovered)}")
    return EXIT_OK


def _sweep_instances(args):
    """(instance_id, matrix, office spec or None) for every --instance file,
    then every office size of --scenario."""
    instances = [(path, load_instance(path), None) for path in args.instance]
    if args.scenario:
        for spec in load_scenario(args.scenario):
            instances.append((f"office_n{spec.n}", generate_office_layer(spec), spec))
    if not instances:
        raise InstanceError("sweep needs --instance or --scenario")
    return instances


def _sweep_protocol(args, name, instance_id, office_spec):
    """The protocol column ``name`` with its options on one instance: sinr
    takes --density and --dilution (both, each >= 1), else the defaults of
    the instance's own office spec; an instance file has none."""
    if name == "randomized":
        opts = {"c": args.c}
        if args.m_override is not None:
            opts["m_override"] = args.m_override
        return ProtocolSpec(name, opts)
    if name == "deterministic":
        return ProtocolSpec(name, {"c": args.c})
    if name == "sinr":
        given = (args.density, args.dilution)
        if given != (None, None):
            if None in given or min(given) < 1:
                raise InstanceError("sinr needs both --density and --dilution, each >= 1")
            return ProtocolSpec(name, {"density": args.density, "dilution": args.dilution})
        if office_spec is None:
            raise InstanceError(
                f"sinr needs --density and --dilution for instance file {instance_id}"
            )
        return ProtocolSpec(name, sinr_defaults(office_spec))
    return ProtocolSpec(name, {})


def cmd_sweep(args):
    if args.seed_base < 0:
        raise InstanceError(f"--seed-base must be >= 0, got {args.seed_base}")
    instances = _sweep_instances(args)
    if not args.protocol:
        raise InstanceError("sweep needs at least one --protocol")
    # Rows run protocol by protocol, then instance, then seed.
    runs = [
        (_sweep_protocol(args, name, instance_id, office_spec), instance_id, A)
        for name in args.protocol
        for instance_id, A, office_spec in instances
    ]
    all_seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    rows = []
    for spec, instance_id, A in runs:
        seeds = all_seeds if spec.uses_seed else all_seeds[:1]
        rows.extend(sweep([(instance_id, A)], [spec], seeds, max_rounds=args.max_rounds))
    write_csv(rows, args.out)
    stats = summarize(rows)
    bounds = {}
    if "randomized" in args.protocol:
        for instance_id, A, _ in instances:
            bounds[instance_id] = characterize(A, c=args.c).slot_bound
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
        args = build_parser().parse_args(argv)
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
    except (InstanceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    raise SystemExit(main())
