"""The repository benchmark: two workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It spawns the real command-line
programs (``python -m repro.experiments.runner``, ``python -m repro
campaign submit``) with ``PYTHONPATH=src`` and a private cache directory
under ``.perfbench/``, measures them, checks their outputs, and prints
one JSON object as the last line of stdout.  It exits 1 if any output
is wrong, and 2 without a result when the checkout has no ``src/repro``.

Workloads (why each exists):

* ``all-cold`` — ``runner --all --out DIR`` at full fidelity, default
  ``--jobs``, empty events and reuse stores.  The only workload where
  trace generation, the reuse profile, derivation, store writes, the
  stepping ``Cache`` outside the engine, and the analysis code do most
  of the work.  Its inputs are fixed by the experiment registry: the
  runner takes no seed, so ``--seed`` changes nothing here.
* ``campaign-grid`` — ``campaign submit`` of a dense 360-point grid
  (3 spec92 traces at 60k instructions x 3 caches x 5 policies x 8 βm)
  against stores warmed in set-up and an empty registry.  Phase 1 is
  bypassed; replay, store loads and registry writes dominate.  The seed
  picks the trace seeds.

There is no serving workload: on the shared 2-vCPU machine this was
built on, no open-loop measurement of ``python -m repro serve`` (one
process or a fleet) that was tried kept its knee or median latency
within 25% from run to run; in bad spells of the host a fleet's
latency doubled while a pure-Python loop slowed by a sixth.

End-to-end metrics (``--trace 0``), each reported on both workloads.
Times are scaled to a reference host: each timed interval is multiplied
by ``Speed``'s factor for that interval, from a probe that times a fixed
pure-Python loop all through the run and from the CPU time the host
stole meanwhile.  The machine ran the same code at speeds up to 1.8x
apart, in spells of seconds to minutes; scaled, the spread between runs
fell to a third or less.  The details line gives the figures as
measured too (``walls_s``), the probe's loop times and the stolen share.

* ``wall_s`` — median wall time of one timed command.
* ``knee_rps`` — the commands run one at a time, so this is their work
  rate: experiments (all-cold) or campaign points (campaign-grid)
  completed per second.
* ``ref_p50_ms`` — median wall time of the commands, in ms.
* ``setup_s`` — median of several untimed preparations: interpreter
  start plus ``import repro.experiments.runner`` (all-cold); warming the
  stores for the seed's traces (campaign-grid).
* ``peak_rss_mib`` — peak RSS (``VmHWM``) of the measured process tree.

Wrong outputs are counted in ``attempted`` and ``failed`` on every run
and as ``error_rate`` in the traced run; any of them fails the run.
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``boot/perfbench_trace.py`` installed and prints the
per-layer metrics of ``layers.py``, after checking wrapper call counts
against the program's own counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from procs import run_timed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BOOT = HERE / "boot"

WORKLOADS = ("all-cold", "campaign-grid")
#: Seed kept out of tuning, for checking a claimed gain (also in BENCHMARK.json).
HOLDOUT_SEED = 20261017
POLICIES = ("FS", "BL", "BNL1", "BNL2", "BNL3")
SETUP_REPEATS = 3
#: The probe loop's time (``speed.py``) on the reference host, where
#: every reported time of work is scaled to.
REFERENCE_SPIN_S = 0.0015


class RunState:
    """What one run measured and every correctness problem it found."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.rng = random.Random(f"perfbench/{workload}/{seed}")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.details: dict = {}
        #: The host-speed probe of an untraced run.
        self.speed: Speed | None = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def program_env(xdg: Path, spans: Path | None = None) -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PERFBENCH_"))
    }
    env["PYTHONPATH"] = str(SRC) if spans is None else f"{BOOT}{os.pathsep}{SRC}"
    env["XDG_CACHE_HOME"] = str(xdg)
    env["PYTHONUNBUFFERED"] = "1"
    if spans is not None:
        spans.mkdir(parents=True, exist_ok=True)
        env["PERFBENCH_SPANS_DIR"] = str(spans)
    return env


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Oracle:
    """Direct ``repro.cpu.replay.simulate()`` answers, for byte comparison."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from repro.cache.events import extract_events
        from repro.core.stalling import StallPolicy
        from repro.cpu.replay import simulate
        from repro.service import queries, schemas
        from repro.trace.spec92 import spec92_trace
        from repro.util.jsonout import dump_json

        self.extract_events, self.simulate = extract_events, simulate
        self.StallPolicy, self.queries, self.schemas = StallPolicy, queries, schemas
        self.spec92_trace, self.dump_json = spec92_trace, dump_json
        self._events: dict[str, tuple] = {}

    def simulate_bytes(self, params: dict) -> str:
        validated = self.schemas.validate_simulate(params)
        config = self.queries.cache_config_of(validated)
        trace = validated["trace"]
        key = json.dumps([trace, repr(config)], sort_keys=True)
        if key not in self._events:
            instructions = self.spec92_trace(trace["name"], trace["instructions"], seed=trace["seed"])
            self._events[key] = (instructions, self.extract_events(instructions, config))
        instructions, events = self._events[key]
        result = self.simulate(
            instructions,
            config,
            self.queries.memory_of(validated),
            self.StallPolicy(validated["policy"]),
            events=events,
        )
        return self.dump_json(self.queries.timing_result_dict(result, "replay"))


# -- provenance --------------------------------------------------------------


def provenance(state: RunState) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration": calibration(),
        "workload": state.workload,
        "seed": state.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": state.seconds,
        "trace": int(state.traced),
    }


def python_loop_s(iterations: int) -> float:
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - started


def steal_ticks() -> tuple[int, int]:
    """Stolen and total CPU ticks so far, over all CPUs (``/proc/stat``)."""
    with open("/proc/stat") as stat:
        ticks = [int(f) for f in stat.readline().split()[1:9]]
    return ticks[7], sum(ticks)


class Speed:
    """Scales host times to a reference host, from ``speed.py``'s probe.

    The shared machine runs the same code at speeds up to 1.8x apart,
    changing within seconds and in spells of minutes, and the program's
    times follow a pure-Python loop's.  The probe times that loop every
    50 ms for the whole run; ``begin()`` starts an interval and
    ``scale()`` ends it, returning ``REFERENCE_SPIN_S`` over the loop's
    mean time during the interval, times the share of the interval the
    host ran the CPUs at all (``/proc/stat`` steal, which the probe's
    CPU time does not see): the factor that turns a time measured in the
    interval into seconds on a host where the loop takes the reference
    time and nothing is stolen.
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.spins_ms: list[float] = []
        self.stolen: list[float] = []
        self.ticks = (0, 0)

    def _samples(self) -> list[float]:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("speed probe exited mid-run")
        return json.loads(line)

    def begin(self) -> None:
        self._samples()
        self.ticks = steal_ticks()

    def scale(self) -> float:
        spin = statistics.fmean(self._samples())
        stolen, total = (b - a for a, b in zip(self.ticks, steal_ticks()))
        share = stolen / total if total else 0.0
        self.spins_ms.append(spin * 1e3)
        self.stolen.append(share)
        return REFERENCE_SPIN_S / spin * (1.0 - share)

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                assert self.process.stdin is not None
                self.process.stdin.close()
                self.process.wait(timeout=10.0)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=10.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


def calibration() -> dict:
    """A fixed kernel, so figures from another machine can be scaled."""
    result = {"python_loop_ms": statistics.median(python_loop_s(1_000_000) * 1e3 for _ in range(3))}
    try:
        import numpy as np
    except ImportError:
        result["numpy_sort_ms"] = None
        return result
    data = np.random.default_rng(0).random(1_000_000)

    def numpy_pass() -> float:
        started = time.perf_counter()
        np.sort(data)
        return time.perf_counter() - started

    result["numpy_sort_ms"] = statistics.median(numpy_pass() * 1e3 for _ in range(3))
    return result


# -- batch workloads ---------------------------------------------------------


def command_loop(state: RunState, run_one) -> tuple[list, list[float]]:
    """Run ``run_one(k)`` back to back for about ``--seconds`` (at least once).

    Returns the results and, for each, the ``Speed`` factor measured
    while it ran.
    """
    results, scales = [], []
    started = time.perf_counter()
    while True:
        state.speed.begin()
        results.append(run_one(len(results)))
        scales.append(state.speed.scale())
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(results) > state.seconds:
            return results, scales


def scaled_setups(state: RunState, prepare, repeats: int) -> float:
    """Median of ``repeats`` calls of ``prepare()`` (which returns seconds),
    each scaled to the reference host."""
    scaled = []
    for _ in range(repeats):
        state.speed.begin()
        seconds = prepare()
        scaled.append(seconds * state.speed.scale())
    return statistics.median(scaled)


def batch_metrics(
    state: RunState, walls: list[float], scales: list[float], peaks: list[float],
    units: int, setup: float,
) -> dict:
    state.details["walls_s"] = walls
    state.details["raw_median_wall_s"] = statistics.median(walls)
    median = statistics.median(w * f for w, f in zip(walls, scales))
    return {
        "wall_s": metric(median, "s"),
        "knee_rps": metric(units / median, "req/s"),
        "ref_p50_ms": metric(median * 1e3, "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mib": metric(max(peaks), "MiB"),
    }


def all_cold(state: RunState) -> dict:
    expected = json.loads((HERE / "all_cold_digests.json").read_text())
    python = sys.executable
    runner = [python, "-m", "repro.experiments.runner", "--all", "--out"]

    def run_once(k: int, spans: Path | None = None):
        scratch = fresh(WORK / f"op{k}")
        timed = run_timed(
            runner + [str(scratch / "out")],
            program_env(scratch / "xdg", spans),
            scratch / "logs",
        )
        if timed.returncode != 0:
            state.fail(f"runner exited {timed.returncode}: {timed.stderr[-500:]}")
            return timed, scratch
        out = scratch / "out"
        produced = {p.name for p in out.iterdir() if not p.name.endswith(".meta.json")}
        state.attempted += len(expected)
        for name in sorted(set(expected) | produced):
            path = out / name
            if name not in expected or not path.exists():
                state.fail(f"all-cold: unexpected or missing data file {name}")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != expected[name]:
                state.fail(f"all-cold: {name} differs from the recorded digest")
        return timed, scratch

    if state.traced:
        untraced, scratch = run_once(0)
        shutil.rmtree(scratch, ignore_errors=True)
        spans_dir = fresh(WORK / "spans")
        traced, scratch = run_once(1, spans_dir)
        counters: dict = {}
        for manifest in (scratch / "out").glob("*.meta.json"):
            for key, value in json.loads(manifest.read_text())["metrics"]["counters"].items():
                counters[key] = counters.get(key, 0) + value
        shutil.rmtree(scratch, ignore_errors=True)
        return batch_layers(state, spans_dir, counters, traced.wall_s, untraced.wall_s)

    setup = scaled_setups(
        state,
        lambda: run_timed(
            [python, "-c", "import repro.experiments.runner"],
            program_env(fresh(WORK / "setup") / "xdg"),
            WORK / "setup" / "logs",
        ).wall_s,
        5,
    )

    def op(k: int):
        timed, scratch = run_once(k)
        experiments = len(list((scratch / "out").glob("*.meta.json")))
        shutil.rmtree(scratch, ignore_errors=True)
        return timed, experiments

    ops, scales = command_loop(state, op)
    state.details["inputs"] = "fixed by the experiment registry; the runner has no seed flag"
    return batch_metrics(
        state, [t.wall_s for t, _ in ops], scales, [t.peak_rss_mib for t, _ in ops],
        ops[0][1], setup,
    )


CAMPAIGN_TRACES = ("ear", "swm256", "doduc")
CAMPAIGN_CACHES = [
    {"total_bytes": 4096, "line_size": 32},
    {"total_bytes": 8192, "line_size": 32},
    {"total_bytes": 16384, "line_size": 64},
]
CAMPAIGN_BETAS = [2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]


def campaign_grid(state: RunState) -> dict:
    traces = [
        {"kind": "spec92", "name": name, "instructions": 60000, "seed": state.rng.randrange(1, 10**6)}
        for name in CAMPAIGN_TRACES
    ]
    grid = {"name": "grid", "traces": traces, "caches": CAMPAIGN_CACHES,
            "policies": list(POLICIES), "memory_cycles": CAMPAIGN_BETAS}
    # Same traces and caches, one point each: fills the events and reuse
    # stores without touching any point of the timed grid.
    warm = {"name": "warm", "traces": traces, "caches": CAMPAIGN_CACHES,
            "policies": ["FS"], "memory_cycles": [1.0]}
    base = fresh(WORK / "campaign")
    (base / "grid.json").write_text(json.dumps(grid))
    (base / "warm.json").write_text(json.dumps(warm))
    python = sys.executable
    points = len(traces) * len(CAMPAIGN_CACHES) * len(POLICIES) * len(CAMPAIGN_BETAS)

    def warm_stores(k: int) -> tuple[Path, float]:
        xdg = fresh(base / f"xdg{k}")
        timed = run_timed(
            [python, "-m", "repro", "campaign", "submit", str(base / "warm.json"),
             "--registry", str(base / f"warm-registry{k}"), "--quiet"],
            program_env(xdg),
            base / f"warm-logs{k}",
        )
        if timed.returncode != 0:
            raise RuntimeError(f"store warm-up failed: {timed.stderr[-500:]}")
        return xdg, timed.wall_s

    def submit(k: int, xdg: Path, spans: Path | None = None):
        registry = fresh(base / f"registry{k}")
        timed = run_timed(
            [python, "-m", "repro", "campaign", "submit", str(base / "grid.json"),
             "--registry", str(registry), "--quiet", "--json"],
            program_env(xdg, spans),
            base / f"logs{k}",
        )
        state.attempted += points
        if timed.returncode != 0:
            state.fail(f"campaign exited {timed.returncode}: {timed.stderr[-500:]}", points)
            return timed, None
        report = json.loads(timed.stdout[timed.stdout.index("{"):])
        progress = report["progress"]
        if progress["done"] != points or progress["errors"] or not progress["complete"]:
            state.fail(f"campaign incomplete: {progress}", points - progress["done"])
        campaign_dir = registry / report["campaign"]
        return timed, (campaign_dir / "results.jsonl").read_bytes()

    if state.traced:
        xdg, _ = warm_stores(0)
        untraced, first = submit(0, xdg)
        spans_dir = fresh(WORK / "spans")
        traced, again = submit(1, xdg, spans_dir)
        check_campaign(state, base / "registry0", first, [again])
        docs = layers.load_spans(spans_dir)
        counters = next((d["program_counters"] for d in docs if d["program_counters"]), {})
        return batch_layers(state, spans_dir, counters, traced.wall_s, untraced.wall_s)

    warmed: list[Path] = []

    def prepare() -> float:
        xdg, wall = warm_stores(len(warmed))
        warmed.append(xdg)
        return wall

    setup = scaled_setups(state, prepare, SETUP_REPEATS)
    ops, scales = command_loop(state, lambda k: submit(k, warmed[-1]))
    check_campaign(state, base / "registry0", ops[0][1], [r for _, r in ops[1:]])
    return batch_metrics(
        state, [t.wall_s for t, _ in ops], scales, [t.peak_rss_mib for t, _ in ops],
        points, setup,
    )


def check_campaign(state: RunState, registry: Path, first: bytes | None, others: list) -> None:
    """Registry validation, a re-simulated sample, and run-to-run identity."""
    if first is None:
        return
    campaign_dir = next(p for p in registry.iterdir() if p.is_dir())
    validate = run_timed(
        [sys.executable, "-m", "repro.obs.validate", "--campaign", str(campaign_dir)],
        program_env(WORK / "validate-xdg"),
        WORK / "validate-logs",
    )
    if validate.returncode != 0:
        state.fail(f"campaign registry invalid: {validate.stdout[-300:]}{validate.stderr[-300:]}")
    for k, results in enumerate(others, start=1):
        if results is not None and results != first:
            state.fail(f"campaign run {k} results.jsonl differs from run 0")
    rows = [json.loads(line) for line in first.decode().splitlines()]
    rows = [row for row in rows if "index" in row]
    spec = json.loads((campaign_dir / "spec.json").read_text())
    oracle = Oracle()
    for row in state.rng.sample(rows, 6):
        point = row["point"]
        params = {
            "trace": spec["traces"][point["trace_index"]],
            "cache": point["cache"],
            "policy": point["policy"],
            "memory_cycle": point["memory_cycle"],
        }
        state.attempted += 1
        if oracle.simulate_bytes(params) != oracle.dump_json(row["result"]):
            state.fail(f"campaign point {row['index']} differs from simulate()")


def batch_layers(
    state: RunState, spans_dir: Path, counters: dict, traced_wall: float, untraced_wall: float
) -> dict:
    spans = layers.Spans(layers.load_spans(spans_dir))
    for problem in layers.cross_check(spans, counters):
        state.fail(problem)
    values = layers.layer_metrics(spans)
    unattributed = traced_wall - spans.covered_s()
    values.update(
        {
            "unattributed_s": unattributed,
            "unattributed_share": unattributed / traced_wall,
            "tracing.overhead": traced_wall / untraced_wall,
        }
    )
    return values


# -- entry point -------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    state = RunState(args.workload, args.seed, args.seconds, bool(args.trace))
    fresh(WORK)
    print(json.dumps({"provenance": provenance(state)}), flush=True)
    handler = {"all-cold": all_cold, "campaign-grid": campaign_grid}[args.workload]
    try:
        if not state.traced:
            state.speed = Speed()
        values = handler(state)
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 3
    finally:
        if state.speed is not None:
            state.details["probe_spins_ms"] = state.speed.spins_ms
            state.details["stolen_share"] = state.speed.stolen
            state.speed.close()
        shutil.rmtree(WORK, ignore_errors=True)
    if state.traced:
        values["error_rate"] = state.failed / max(1, state.attempted)
        metrics = layers.complete(values)
    else:
        metrics = values
    print(json.dumps({"details": state.details, "errors": state.errors}), flush=True)
    correct = state.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, state.attempted),
        "failed": state.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
