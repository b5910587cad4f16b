"""qcnied benchmark: CLI pipelines in a closed loop, end to end and per layer.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

One client runs one CLI subprocess at a time (a closed loop). A run
executes whole rounds of the workload's chains, stopping at the round
boundary nearest to ``--seconds`` of command time, timing set-up (a fresh interpreter importing
``qcnied.cli``) before and between the commands, and checks every
output. The client and its children are pinned to one CPU, and the
end-to-end times are scaled by the speed of that CPU, measured with
``reference()`` before every command. With ``--trace 0`` it
prints the end-to-end metrics. With ``--trace 1`` it runs the untraced
pass for half the time, replays the same rounds with the span wrappers of
``launch.py`` installed, requires the two passes to write byte-identical
files, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result
record (versions, input properties, sample counts, file hashes) is
written to ``perfbench/_results/`` and printed on the line before.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_CLI = ROOT / "src" / "qcnied" / "cli.py"
LAUNCH = HERE / "launch.py"
RUNS_DIR = HERE / "_runs"
RESULTS_DIR = HERE / "_results"

import checks  # noqa: E402  (run as a script: this directory is on sys.path)
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_FIRST_PROBES = 3
SETUP_PROBE_SHARE = 1 / 10  # one more set-up probe per this share of --seconds of command time
P90_MIN_SAMPLES = 100
REFUSED, TRIPPED = 1, 3
# One child at a time, each on one core: importing numpy otherwise starts an
# OpenBLAS thread pool as wide as the host, whose start-up spins on the other
# core and makes every command's time depend on who else holds that core.
# qcnied makes no BLAS call, so the pool does no work for it.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Nominal time of reference() on a reference host; see summarize().
REFERENCE_NOMINAL_S = 0.025


def reference() -> float:
    """Time a fixed piece of pure-Python work in this process.

    It runs before every command. The host's speed drifts by tens of
    percent over minutes, in step for the client and for its children; the
    median of these times over a pass measures that speed, independently of
    the program under test, and summarize() scales the pass's times by it.
    """
    gc.disable()
    start = time.perf_counter()
    x = 0
    for i in range(150_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    table = {}
    for i in range(15_000):
        table[str(i)] = i
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class ChainAbort(Exception):
    """A command ended in an exit code its chain does not accept."""


def execute(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    env = {k: v for k, v in os.environ.items() if k != "QCNIED_SEED"}
    env.update(CHILD_ENV)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss


@dataclass
class Result:
    exit: int
    stdout: str


@dataclass
class Command:
    exit: int
    wall: float
    rss_kb: int
    unexpected: bool


@dataclass
class Pass:
    """One sequence of rounds, untraced or traced."""

    traced: bool
    dir: Path
    commands: list[Command] = field(default_factory=list)
    chain_walls: list[float] = field(default_factory=list)
    keys: list[tuple[int, int]] = field(default_factory=list)
    trace_files: list[Path] = field(default_factory=list)
    manifest: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    measured: float = 0.0
    rounds: int = 0


class Chain:
    """Handle a workload chain body uses to run commands and queue checks."""

    def __init__(self, pas: Pass, name: str, rng: random.Random, before_command):
        self.pas = pas
        self.name = name
        self.rng = rng
        self.before_command = before_command
        self.dir = pas.dir / name
        self.dir.mkdir(parents=True)
        self.checks: list = []
        self.n = 0
        self.planned = 1
        self.wall = 0.0

    def plan(self, commands: int) -> None:
        """Declare how many commands the chain expects to run."""
        self.planned = commands

    @property
    def progress(self) -> float:
        return self.n / self.planned

    def file(self, name: str) -> Path:
        return self.dir / name

    def key(self, n: int, e: int) -> None:
        self.pas.keys.append((n, e))

    def check(self, fn, *args) -> None:
        self.checks.append((fn, args))

    def run(self, kind: str, *args, expect=(0,), refusable: bool = False):
        """Run one command; a generator that yields once, before the command
        starts, so the runner can interleave chains. Returns its Result."""
        yield
        self.n += 1
        stem = self.dir / f"{self.n:02d}-{kind}"
        argv = [sys.executable, str(LAUNCH)]
        if self.pas.traced:
            trace = self.pas.dir / "trace" / f"{self.name}.{self.n:02d}.json"
            self.pas.trace_files.append(trace)
            argv += ["--trace", str(trace), "--chain", self.name]
        argv += ["--", kind, *map(str, args)]
        self.before_command()
        code, wall, rss = execute(argv, stem.with_suffix(".out"), stem.with_suffix(".err"))
        self.wall += wall
        self.pas.measured += wall
        accepted = set(expect) | ({REFUSED} if refusable else set())
        self.pas.commands.append(Command(code, wall, rss, code not in accepted))
        if code not in accepted:
            err = stem.with_suffix(".err").read_text(encoding="utf-8", errors="replace").strip()
            raise ChainAbort(f"{self.name} {kind} exited {code}: {err[-300:]}")
        return Result(code, stem.with_suffix(".out").read_text(encoding="utf-8"))


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = RUNS_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.screened: dict[tuple[int, int], tuple[int, bytes]] = {}
        self.screen_commands = 0
        self.round = 0

    # -- inputs ----------------------------------------------------------

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.workload, self.seed, *parts))))

    def screen(self, slot: int, params, stratum, attempts: int, flags=()) -> tuple[int, bytes]:
        """First search seed, drawn from the workload seed, whose matrix is in
        the stratum. Runs untimed before the round; reused by a replay."""
        key = (self.round, slot)
        if key not in self.screened:
            rng = self.rng("screen", *key)
            work = self.dir / "screen"
            work.mkdir(parents=True, exist_ok=True)
            for _ in range(attempts):
                seed = rng.randrange(workloads.SEED_RANGE)
                m = work / f"r{self.round}s{slot}.qcm"
                argv = [sys.executable, str(LAUNCH), "--", "search",
                        *map(str, params), *flags, "--seed", str(seed), "-o", str(m)]
                code, _, _ = execute(argv, work / "out", work / "err")
                self.screen_commands += 1
                checks.require(code == 0, f"screening search {params} seed {seed} exited {code}")
                if stratum(checks.read_matrix(m, params)):
                    self.screened[key] = (seed, m.read_bytes())
                    break
            else:
                raise checks.CheckFailed(f"no {params} matrix in the stratum after {attempts} seeds")
        return self.screened[key]

    # -- passes ----------------------------------------------------------

    def probe_setup(self, pas: Pass, keep: bool = True) -> None:
        """Time one fresh interpreter importing qcnied.cli and exiting."""
        argv = [sys.executable, str(LAUNCH), "--import-only"]
        code, wall, _ = execute(argv, self.dir / "setup.out", self.dir / "setup.err")
        checks.require(code == 0, f"import-only launcher exited {code}")
        if keep:
            pas.setup.append(wall)

    def run_pass(self, pas: Pass, budget: float | None = None, rounds: int | None = None,
                 probes: bool = False) -> None:
        """Run whole rounds until the command time is as near the budget as
        whole rounds allow, or for a given number of rounds. With probes,
        set-up is timed before the first command and then between commands,
        spread over the pass, so its median covers the same stretch of time
        as the commands."""
        build = workloads.WORKLOADS[self.workload]
        probe_every = self.seconds * SETUP_PROBE_SHARE
        last_probe = 0.0

        def before_command() -> None:
            nonlocal last_probe
            pas.reference.append(reference())
            if probes and pas.measured - last_probe >= probe_every:
                self.probe_setup(pas)
                last_probe = pas.measured

        try:
            if probes:
                self.probe_setup(pas, keep=False)  # warms the bytecode cache
                for _ in range(SETUP_FIRST_PROBES):
                    self.probe_setup(pas)
            while not pas.failures:
                self.round = pas.rounds
                bodies = build(self)
                chains = [Chain(pas, f"r{self.round}c{i}", self.rng(self.round, i), before_command)
                          for i in range(len(bodies))]
                try:
                    self.interleave(pas, [body(ch) for body, ch in zip(bodies, chains)], chains)
                except ChainAbort as exc:
                    pas.failures.append(str(exc))
                pas.rounds += 1
                for ch in chains:
                    for fn, args in ch.checks:
                        try:
                            fn(*args)
                        except Exception as exc:  # any exception in a check is a failed check
                            pas.failures.append(f"{ch.name}: {type(exc).__name__}: {exc}")
                            break
                if rounds is not None and pas.rounds >= rounds:
                    break
                # stop at the round boundary nearest the budget: one more
                # round of the mean length would overshoot it by more than
                # the pass now falls short
                if budget is not None and pas.measured + pas.measured / pas.rounds / 2 >= budget:
                    break
            if probes:
                self.probe_setup(pas)
        except (checks.CheckFailed, OSError) as exc:
            pas.failures.append(f"round {self.round}: {exc}")
        pas.manifest = _manifest(pas.dir)

    @staticmethod
    def interleave(pas: Pass, gens: list, chains: list[Chain]) -> None:
        """Run the chains of a round one command at a time, always advancing
        the chain that is least far through its planned commands. A round's
        short commands are thus spread between its long ones instead of
        bunched into one stretch of time, which makes the medians less
        sensitive to the host's speed at any one moment."""
        active = []
        for gen, ch in zip(gens, chains):
            try:
                next(gen)  # runs the body up to its first command
                active.append((gen, ch))
            except StopIteration:
                pas.chain_walls.append(ch.wall)
        while active:
            gen, ch = min(active, key=lambda item: item[1].progress)
            try:
                next(gen)
            except StopIteration:
                active.remove((gen, ch))
                pas.chain_walls.append(ch.wall)

    def execute_all(self) -> dict:
        self.dir.mkdir(parents=True)
        plain = Pass(False, self.dir / "untraced")
        self.run_pass(plain, budget=self.seconds / 2 if self.trace else self.seconds, probes=True)
        scaled = workloads.HOST_SCALED.get(self.workload)
        record = {"untraced": summarize(plain, scaled)}
        passes = [plain]
        if self.trace and not plain.failures:
            traced = Pass(True, self.dir / "traced")
            (traced.dir / "trace").mkdir(parents=True)
            self.run_pass(traced, rounds=plain.rounds)
            passes.append(traced)
            record["traced"] = summarize(traced, scaled)
            record["traced_matches_untraced"] = traced.manifest == plain.manifest
            if not record["traced_matches_untraced"]:
                traced.failures.append("traced pass wrote different files than the untraced pass")
            if not traced.failures:
                record["trace_overhead"] = (record["traced"]["metrics"]["pipeline_s.p50"]["value"]
                                            / record["untraced"]["metrics"]["pipeline_s.p50"]["value"])
                record["layers"] = {
                    name: {"value": v, "unit": u}
                    for name, (v, u) in layers.per_layer(traced.trace_files, traced.rounds).items()}
        record["failures"] = [f for pas in passes for f in pas.failures]
        record["attempted"] = sum(len(pas.commands) for pas in passes)
        record["screening_commands"] = self.screen_commands
        return record


def _manifest(root: Path) -> dict[str, str]:
    """sha256 of every file a pass wrote (outputs and captured stdout)."""
    out = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and not rel.startswith("trace/") and path.suffix != ".err":
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(pas: Pass, scaled: set[str] | None = None) -> dict:
    """Metrics of a pass; scaled limits the host-speed scaling to those
    metrics (None: every time and rate)."""
    cmd_walls = [c.wall for c in pas.commands]
    ok = sum(c.exit in (0, TRIPPED) and not c.unexpected for c in pas.commands)
    refused = sum(c.exit == REFUSED for c in pas.commands)
    metrics = {}

    def put(name, value, unit, samples):
        metrics[name] = {"value": value, "unit": unit, "samples": samples}

    if pas.setup:
        put("setup_s", statistics.median(pas.setup), "s", len(pas.setup))
    if cmd_walls:
        put("cmd_s.p50", statistics.median(cmd_walls), "s", len(cmd_walls))
        if len(cmd_walls) >= P90_MIN_SAMPLES:
            put("cmd_s.p90", _percentile(cmd_walls, 0.9), "s", len(cmd_walls))
        put("peak_rss_mb", max(c.rss_kb for c in pas.commands) / 1024, "MB", len(cmd_walls))
        put("fail_ratio", refused / len(cmd_walls), "fraction", len(cmd_walls))
    if pas.chain_walls:
        put("pipeline_s.p50", statistics.median(pas.chain_walls), "s", len(pas.chain_walls))
        if len(pas.chain_walls) >= P90_MIN_SAMPLES:
            put("pipeline_s.p90", _percentile(pas.chain_walls, 0.9), "s", len(pas.chain_walls))
    if pas.measured > 0:
        put("cmds_per_s", ok / pas.measured, "1/s", len(cmd_walls))
    # Times as they would read on the reference host: a pass on a host
    # running at 0.8 of its reference speed reads its reference() time as
    # 1.25 x nominal, so its wall times are scaled by 0.8, and its rates by 1.25.
    # The unscaled figures stay in the record as wall_metrics.
    reference_s = statistics.median(pas.reference) if pas.reference else REFERENCE_NOMINAL_S
    speed = REFERENCE_NOMINAL_S / reference_s
    scale = {"s": speed, "1/s": 1 / speed}
    wall_metrics = metrics
    metrics = {name: {**m, "value": m["value"] * scale.get(m["unit"], 1.0)}
               if scaled is None or name in scaled else m
               for name, m in wall_metrics.items()}
    sizes: dict[int, int] = {}
    for n, e in pas.keys:
        size = checks.table_size(n, e)
        sizes[size] = sizes.get(size, 0) + 1
    return {
        "rounds": pas.rounds,
        "measured_s": pas.measured,
        "commands": len(pas.commands),
        "refused": refused,
        "tripped": sum(c.exit == TRIPPED for c in pas.commands),
        "metrics": metrics,
        "wall_metrics": wall_metrics,
        "reference_s": reference_s,
        "reference_samples": len(pas.reference),
        "host_speed": speed,
        "inputs": {
            "keys": len(pas.keys),
            "share_e_equals_n": sum(e == n for n, e in pas.keys) / len(pas.keys) if pas.keys else None,
            "capacity_table_sizes": {str(k): v for k, v in sorted(sizes.items())},
            "refused_share": refused / len(cmd_walls) if cmd_walls else None,
        },
        "manifest_sha256": hashlib.sha256(json.dumps(pas.manifest, sort_keys=True).encode()).hexdigest(),
        "manifest": pas.manifest,
    }


def _environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the command it is waiting for (see execute)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The client and its children share one CPU, so reference() times the
    # CPU the commands run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not SRC_CLI.is_file():
        print(f"run.py: {SRC_CLI} not found; run from a qcnied checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = run.execute_all()
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              **_environment(args.seed), **record}
    source = record.get("layers", {}) if args.trace else record["untraced"]["metrics"]
    metrics = {}
    for m in spec[section]:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            record["failures"].append(f"metric {m['name']} [{m['unit']}] not measured")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    record["failed"] = len(record["failures"])
    record["correct"] = not record["failures"]
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if record["correct"]:
        shutil.rmtree(run.dir, ignore_errors=True)
    brief = {k: v for k, v in record.items() if k not in ("untraced", "traced")}
    for name in ("untraced", "traced"):
        if name in record:
            brief[name] = {k: v for k, v in record[name].items() if k != "manifest"}
    print("record " + json.dumps(brief, separators=(",", ":")))
    print(json.dumps({"correct": record["correct"], "attempted": max(1, record["attempted"]),
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
