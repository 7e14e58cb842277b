"""Measurement loop, output checks and metrics of the affsim benchmark.

One run: set up (import timing and input files, several times), one untimed
warm-up pass, then timed passes of the workload's commands until
``--seconds`` have passed. With ``--trace 1`` the first half of that time is
untraced and the second half traced. The checks run after the timed passes.
Every reported time is scaled by the machine's speed as it was measured
(see speed.py); the result file also keeps the raw host times.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import affsim.cli
import affsim.engine
from affsim.core import characterize, is_selected, schedule_from_text, verify_selective
from affsim.engine import MAX_ROUNDS_DEFAULT, run_adaptive, run_schedule
from affsim.protocols import RandomizedParams, greedy_slot_budget, randomized_schedule
from affsim.scenario import load_instance

import speed
from spans import LAYERS, Tracer, roots, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
IMPORT_REPEATS = 5
WRITE_REPEATS = 3
# A full replay makes about (slots x receivers) scalar is_selected calls.
# Past this many, only each receiver's recorded first-success slot is
# re-checked (a randomized run at n = 600 would take minutes in full).
REPLAY_LIMIT = 200_000
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import affsim.cli; print(time.perf_counter() - t)"
)
MB = 2 ** 20


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Ledger:
    """Checks every command's output after each pass and counts operations
    (sweep rows and greedy schedules). An operation fails when its command
    exits non-zero, when its run is truncated, or when it fails a check."""

    def __init__(self, cmds, reference):
        self.cmds = cmds
        self.reference = reference  # output file -> sha256 (default seed only)
        self.first = {}  # output file -> bytes of its first pass
        self.bad = {}  # output file -> failed operations per pass
        self.rows = {}  # sweep output -> CSV rows
        self.slots = {}  # output file -> simulated slots of each operation
        self.replays = {"full": 0, "first_slots": 0}
        self.replay_s = 0.0
        self.passes = self.attempted = self.failed = 0
        self.problems = []

    def problem(self, message):
        if message not in self.problems:
            self.problems.append(message)

    def record(self, codes):
        self.passes += 1
        for cmd, code in zip(self.cmds, codes):
            self.attempted += cmd.ops
            self.failed += self._failures(cmd, code)

    def _failures(self, cmd, code):
        if code != 0:
            self.problem(f"{cmd.out}: exit code {code}")
            return cmd.ops
        try:
            data = Path(cmd.out).read_bytes()
        except FileNotFoundError:
            self.problem(f"{cmd.out}: not written")
            return cmd.ops
        if cmd.out not in self.first:
            self.first[cmd.out] = data
            self.bad[cmd.out] = self._check(cmd, data)
        elif data != self.first[cmd.out]:
            self.problem(f"{cmd.out}: output differs between passes")
            return cmd.ops
        return self.bad[cmd.out]

    def _check(self, cmd, data):
        expected = self.reference.get(cmd.out)
        if expected is not None and sha256(data) != expected:
            self.problem(f"{cmd.out}: differs from the reference digest")
            return cmd.ops
        if cmd.kind == "sweep":
            rows = list(csv.DictReader(io.StringIO(data.decode())))
            self.rows[cmd.out] = rows
            self.slots[cmd.out] = [int(r["rounds"]) for r in rows]
            truncated = sum(r["completed"] != "true" for r in rows)
            if truncated or len(rows) != cmd.ops:
                self.problem(f"{cmd.out}: {truncated} truncated, {len(rows)}/{cmd.ops} rows")
            return truncated + max(0, cmd.ops - len(rows))
        sched = schedule_from_text(data.decode())
        self.slots[cmd.out] = [len(sched)]
        A = load_instance(cmd.instance)
        budget = greedy_slot_budget(A.n, characterize(A))
        if not verify_selective(A, sched).selective or len(sched) > budget:
            self.problem(f"{cmd.out}: not selective or over {budget} slots")
            return 1
        return 0

    def replay(self):
        """Re-run the first seed of each (size, protocol) of every sweep
        outside the CLI, require the CSV's rounds, and replay the record
        through ``replay_first_success``. A failure counts in every pass."""
        start = time.perf_counter()
        for cmd in self.cmds:
            if cmd.out not in self.rows:
                continue
            rounds = {(r["instance_id"], r["protocol"], int(r["seed"])): r["rounds"]
                      for r in self.rows[cmd.out]}
            seed = cmd.seed_base
            for instance_id, (load, sinr) in cmd.instances.items():
                A = load()
                for name in cmd.protocols:
                    if name == "randomized":
                        params = RandomizedParams(characterization=characterize(A), seed=seed)
                        rec = run_schedule(A, randomized_schedule(params, A.n), name, seed)
                    else:
                        opts = sinr if name == "sinr" else {}
                        rec = run_adaptive(A, name, opts, seed, MAX_ROUNDS_DEFAULT)
                    if rounds.get((instance_id, name, seed)) != str(rec.rounds) \
                            or not self._replay_matches(A, rec):
                        self.problem(f"{instance_id} {name} seed {seed}: replay mismatch")
                        self.failed += self.passes
        self.replay_s = time.perf_counter() - start

    def _replay_matches(self, A, rec):
        slots = rec.per_slot_transmitters
        if len(slots) * A.n <= REPLAY_LIMIT:
            self.replays["full"] += 1
            # Looked up on the module so that the traced run times it.
            return affsim.engine.replay_first_success(A, rec) == rec.first_success
        self.replays["first_slots"] += 1
        return len(rec.first_success) == A.n and all(
            is_selected(A, slots[j - 1], w) for w, j in rec.first_success.items())

    def sim_slots(self):
        return [s for cmd in self.cmds for s in self.slots.get(cmd.out, ())]

    def protocol_rounds(self):
        """Per-protocol mean completion rounds, and the summed greedy
        schedule length, of the checked outputs."""
        by_protocol = {}
        for rows in self.rows.values():
            for r in rows:
                by_protocol.setdefault(r["protocol"], []).append(int(r["rounds"]))
        out = {f"rounds_{p}_mean": statistics.fmean(by_protocol.get(p, [0]))
               for p in ("randomized", "decay", "sinr")}
        out["greedy_slots"] = sum(
            s for cmd in self.cmds if cmd.kind == "schedule" for s in self.slots.get(cmd.out, ()))
        return out


def run_pass(cmds):
    """Run every command once. Returns the pass's scaled seconds, its host
    seconds (kernel samples included, as the traced spans include them)
    and the exit codes."""
    gc.collect()  # every pass starts without the previous pass's garbage
    scaled = elapsed = 0.0
    codes = []
    for cmd in cmds:
        with contextlib.redirect_stdout(io.StringIO()), speed.timed() as t:
            try:
                # Looked up on the module so that the traced run times it.
                codes.append(affsim.cli.main(cmd.argv))
            except Exception as exc:  # a crash fails the command's operations
                codes.append(f"{type(exc).__name__}: {exc}")
        scaled += t.scaled_s
        elapsed += t.elapsed_s
    return scaled, elapsed, codes


def timed_passes(cmds, ledger, seconds, tracer=None):
    walls, elapsed = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.tag = len(walls)
        wall, host, codes = run_pass(cmds)
        walls.append(wall)
        elapsed.append(host)
        ledger.record(codes)
    return walls, elapsed


def setup(workload, seed):
    """Median import time of affsim in a fresh interpreter plus median time
    to write the workload's inputs, both scaled. The import is scaled by
    kernel times taken in this process just before and after it."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        kernel_times = [speed.kernel_time() for _ in range(3)]
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        kernel_times += [speed.kernel_time() for _ in range(3)]
        imports.append(speed.scale(float(proc.stdout), kernel_times))
    writes = []
    for _ in range(WRITE_REPEATS):
        with speed.timed() as t:
            cmds = WORKLOADS[workload](seed)
        writes.append(t.scaled_s)
    return statistics.median(imports) + statistics.median(writes), cmds


def _matrix(A):
    """Float arrays the instance object holds: sizes computed, not measured."""
    arrays = [v for v in getattr(A, "__dict__", {}).values()
              if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
    return {"n": A.n, "bytes": sum(a.nbytes for a in arrays),
            "size": sum(a.size for a in arrays),
            "nnz": sum(int(np.count_nonzero(a)) for a in arrays)}


def _instance(args, kwargs):
    return args[0] if args else kwargs["A"]


def _record(args, kwargs, rec):
    return {"n": _instance(args, kwargs).n, "protocol": rec.protocol,
            "slots": rec.slots_executed, "rounds": rec.rounds}


PROBES = {
    "scenario.generate_office_layer": lambda a, k, A: _matrix(A),
    "scenario.load_instance": lambda a, k, A: _matrix(A),
    "core.characterize": lambda a, k, c: {"n": _instance(a, k).n, "m": c.m, "phases": c.phases},
    "protocols.randomized_schedule": lambda a, k, s: {"slots": len(s)},
    "protocols.deterministic_schedule": lambda a, k, s: {"slots": len(s), "n": _instance(a, k).n},
    "engine.run_schedule": _record,
    "engine.run_adaptive": _record,
}


def layer_metrics(tracer, walls, elapsed, untraced_wall):
    spans = tracer.spans
    root = roots(spans)
    own = self_times(spans)
    by_pass = [[] for _ in walls]
    for s in spans:
        r = spans[root[s.id]]
        if r.name == "cli.main" and isinstance(r.tag, int):
            by_pass[r.tag].append(s)

    def per_pass(fn):
        return statistics.median(fn(ss) for ss in by_pass)

    def total(name):
        return per_pass(lambda ss: sum(s.duration for s in ss if s.name == name))

    def info_sum(name, fn):
        return per_pass(lambda ss: sum(fn(s.info) for s in ss if s.name == name))

    def ms(name, checks=False):
        pool = [s for s in spans if s.tag == "check"] if checks else [s for ss in by_pass for s in ss]
        durations = [1e3 * s.duration for s in pool if s.name == name]
        p50, p90 = np.percentile(durations, [50, 90]) if durations else (0.0, 0.0)
        return float(p50), float(p90), len(durations)

    def rate(name, key):
        seconds = total(name)
        return info_sum(name, lambda i: i[key]) / seconds if seconds else 0.0

    out = {}
    matrices = [s.info for ss in by_pass for s in ss
                if s.name in ("scenario.generate_office_layer", "scenario.load_instance")]
    largest = max(matrices, key=lambda i: i["bytes"], default=None)
    out["scenario.generate_office_layer.s"] = total("scenario.generate_office_layer")
    out["scenario.load_instance.s"] = total("scenario.load_instance")
    out["core.characterize.s"] = total("core.characterize")
    out["core.verify_selective.s"] = total("core.verify_selective")
    out["core.dense_mb"] = largest["bytes"] / MB if largest else 0.0
    out["core.nnz_frac"] = largest["nnz"] / largest["size"] if largest and largest["size"] else 0.0

    p50, p90, calls = ms("protocols.randomized_schedule")
    out["protocols.randomized_schedule.ms_p50"] = p50
    out["protocols.randomized_schedule.ms_p90"] = p90
    out["protocols.randomized_schedule.calls"] = calls
    out["protocols.randomized_schedule.slots"] = info_sum(
        "protocols.randomized_schedule", lambda i: i["slots"])
    decisions = info_sum("protocols.deterministic_schedule", lambda i: i["slots"] * i["n"])
    out["protocols.deterministic_schedule.s"] = total("protocols.deterministic_schedule")
    out["protocols.greedy_decisions"] = decisions
    out["protocols.greedy_us_per_decision"] = (
        1e6 * out["protocols.deterministic_schedule.s"] / decisions if decisions else 0.0)

    p50, p90, calls = ms("engine.run_schedule")
    out["engine.run_schedule.ms_p50"] = p50
    out["engine.run_schedule.ms_p90"] = p90
    out["engine.run_schedule.calls"] = calls
    out["engine.run_schedule.slots_per_s"] = rate("engine.run_schedule", "slots")
    executed = info_sum("engine.run_schedule", lambda i: i["slots"])
    out["engine.useful_slot_frac"] = (
        info_sum("engine.run_schedule", lambda i: i["rounds"] or 0) / executed if executed else 0.0)
    p50, p90, calls = ms("engine.run_adaptive")
    out["engine.run_adaptive.ms_p50"] = p50
    out["engine.run_adaptive.ms_p90"] = p90
    out["engine.run_adaptive.calls"] = calls
    out["engine.run_adaptive.rounds_per_s"] = rate("engine.run_adaptive", "slots")
    out["engine.write_csv.s"] = total("engine.write_csv")
    p50, _, calls = ms("engine.replay_first_success", checks=True)
    out["engine.replay_first_success.ms"] = p50
    out["engine.replay_first_success.calls"] = calls

    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_pass(
            lambda ss: sum(own[s.id] for s in ss if s.layer == layer))
    traced_wall = statistics.median(walls)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.spans"] = per_pass(len)
    out["trace.self_sum_frac"] = statistics.median(
        sum(own[s.id] for s in ss) / host for ss, host in zip(by_pass, elapsed))
    return out


def coverage_table(spans):
    """Per office size: m and phases from ``characterize``, the median
    completion round of each protocol and the randomized phase(s) in which
    coverage completed, from the first traced pass's run records."""
    chars, runs = {}, {}
    for s in spans:
        if s.tag != 0 or s.info is None:
            continue
        if s.name == "core.characterize":
            chars[s.info["n"]] = s.info
        elif s.name in ("engine.run_schedule", "engine.run_adaptive") and s.info["rounds"]:
            runs.setdefault((s.info["n"], s.info["protocol"]), []).append(s.info["rounds"])
    lines = ["| n | m | phases | randomized | decay | sinr | randomized completes in phase |",
             "|---:|---:|---:|---:|---:|---:|---|"]
    for n in sorted(chars):
        m, phases = chars[n]["m"], chars[n]["phases"]
        medians = [statistics.median(runs[(n, p)]) if (n, p) in runs else "-"
                   for p in ("randomized", "decay", "sinr")]
        done = sorted({(r - 1) // m + 1 for r in runs.get((n, "randomized"), [])})
        where = "-".join(map(str, sorted({done[0], done[-1]}))) if done else "-"
        lines.append(f"| {n} | {m} | {phases} | " + " | ".join(map(str, medians))
                     + f" | {where} of {phases} |")
    return lines if any(p == "randomized" for _, p in runs) else []


def environment(blas_threads):
    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                     capture_output=True, text=True, check=True,
                                     timeout=30).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "affsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha, "src_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


def declared_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(args):
    setup_s, cmds = setup(args.workload, args.seed)
    reference = {}
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    ledger = Ledger(cmds, reference)
    ledger.record(run_pass(cmds)[2])  # untimed warm-up
    half = args.seconds / 2 if args.trace else args.seconds
    walls, elapsed = timed_passes(cmds, ledger, half)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    tracer = None
    if args.trace:
        tracer = Tracer(PROBES)
        tracer.install()
        try:
            traced_walls, traced_elapsed = timed_passes(
                cmds, ledger, args.seconds - half, tracer)
            tracer.tag = "check"
            ledger.replay()
        finally:
            tracer.uninstall()
    else:
        ledger.replay()

    wall = statistics.median(walls)
    slots = ledger.sim_slots()
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": sum(cmd.ops for cmd in cmds) / wall,
        "peak_rss_mb": peak_rss_mb,
        "success_frac": 1.0 - ledger.failed / ledger.attempted,
        "sim_slots_mean": statistics.fmean(slots) if slots else 0.0,
    }
    outputs = dict(ledger.protocol_rounds(), digests={
        out: sha256(data) for out, data in ledger.first.items()})
    report = {"passes": ledger.passes, "walls_s": walls, "host_walls_s": elapsed,
              "replays": ledger.replays,
              "replay_s": ledger.replay_s, "problems": ledger.problems,
              "outputs": outputs}
    if tracer is not None:
        metrics = dict(layer_metrics(tracer, traced_walls, traced_elapsed, wall), **{
            k: v for k, v in outputs.items() if k != "digests"})
        report["traced_walls_s"] = traced_walls
        report["traced_host_walls_s"] = traced_elapsed
        frac = metrics["trace.self_sum_frac"]
        if not 0.97 <= frac <= 1.0 + 1e-9:
            ledger.problem(f"layer self times sum to {frac:.4f} of the traced wall time")
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT / f"spans-{stem}.jsonl")
        report["coverage_by_phase"] = coverage_table(tracer.spans)
    correct = ledger.failed == 0 and not ledger.problems
    return correct, ledger.attempted, ledger.failed, metrics, report


def run(argv, blas_threads):
    args = parse_args(argv)
    e2e_units, layer_units = declared_units()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        correct, attempted, failed, metrics, report = measure(args)
    finally:
        os.chdir(home)
        shutil.rmtree(work)
    units = layer_units if args.trace else e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(blas_threads),
              **report, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(record["environment"]))
    print("outputs " + json.dumps(report["outputs"]))
    for line in report.get("coverage_by_phase", []):
        print(line)
    for message in report["problems"]:
        print(f"problem: {message}")
    print(json.dumps(result))
    return 0
