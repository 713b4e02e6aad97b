"""The benchmark's workloads, driven through the public ``repro`` API.

``paper_cbs`` (the EXPERIMENTS.md evaluation point) runs like the others
but is not in ``BENCHMARK.json``: its single 30 s ARIMA-bound iteration
per run spread by 0.17 to 0.31 (quartile distance over median) across
ten-run sets on a shared 2-vCPU host, beyond any bound the gate allows.
It stays for the EXPERIMENTS.md reproduction and for traced profiles of
the forecasting layer.

Each workload has four steps:

- ``inputs(seed)`` builds the generated inputs, outside any timed region;
- ``setup(inputs)`` is everything from those inputs to the first control
  tick (timed as ``setup_s``);
- ``run(state)`` is the timed work;
- ``check(inputs, outcome)`` returns the list of output checks that failed.

Inputs.  Every workload replays a fixed reference trace: its generator
configuration, seed 7 included, is the workload's definition, so all runs
measure the same kind of input.  ``--seed`` perturbs it: with a seed other
than 0, every job's submit time moves later by a seed-drawn amount under
``JITTER_S`` (the fleet, whose shards generate their own trace, gets the
seed as its routing seed instead).  Seed 0 replays the reference trace
unchanged.  Generating each seed's own trace instead would change task
count and class structure from seed to seed by up to 2x on the 4 h
evaluation point, which would swamp the run-to-run noise the bounds are
meant to catch.

Host speed.  On a shared host the same work takes up to 1.7x longer from
one minute to the next.  Outside tracing, every workload times a fixed
pure-Python loop (:class:`HostProbe`) between its control ticks, and the
caller rescales host seconds by ``PROBE_REF_S`` over the probe's median:
the probe's own time is taken out of every wall, tick and CPU figure.
Tick times are rescaled one by one, by the probes taken right before and
right after each tick (:func:`bracket_scales`): the host switches speed
within a run, and a tick's neighbouring probes track that better than
the run's median.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.fleet import (
    FleetConfig,
    fleet_scenarios,
    fleet_shard_task,
    merge_fleet_report,
)
from repro.runner import ScenarioRunner
from repro.runner.defaults import trace_config_from_params
from repro.runner.runner import summary_digest
from repro.runner.scenario import register_task
from repro.serve import ReplayFeeder, ServeConfig, ServeDaemon, derive_run_id
from repro.serve.checkpoint import CheckpointStore
from repro.simulation import HarmonyConfig, HarmonySimulation
from repro.trace import Trace, generate_trace

#: Upper bound of the per-job submit-time shift a nonzero seed draws.
JITTER_S = 10.0

#: The EXPERIMENTS.md standard configuration (benchmarks/conftest.py).
PAPER_TRACE = {
    "hours": 4.0,
    "machines": 400,
    "load": 0.5,
    "seed": 7,
    "constraints": True,
}

#: The scalability suite's deep-backlog replay point, cut to 1 h / 2,000
#: machines so that a run fits the benchmark's time budget.
BACKLOG_TRACE = {"hours": 1.0, "machines": 2000, "load": 0.85, "seed": 7}

#: The fleet point: 2,400-machine census at load 0.55, cut to a 1 h horizon.
FLEET_TRACE = {"hours": 1.0, "machines": 2400, "load": 0.55, "seed": 7}
FLEET_SHARDS = 4
FLEET_WORKERS = 2

#: Serve control-tick length (1,440 ticks over the 4 h paper trace).
SERVE_TICK_S = 10.0
#: Serve ticks between two host-speed probes.
SERVE_PROBE_EVERY = 16

#: Iterations of the host-speed probe loop, and its nominal time.
PROBE_LOOPS = 100_000
PROBE_REF_S = 0.010

FLEET_TASK = "perfbench_fleet_shard"


def jittered(trace: Trace, seed: int) -> Trace:
    """The reference trace with every job shifted by a seed-drawn delay."""
    if seed == 0:
        return trace
    rng = np.random.default_rng(seed)
    job_ids = sorted({task.job_id for task in trace.tasks})
    shift = dict(zip(job_ids, rng.uniform(0.0, JITTER_S, len(job_ids))))
    tasks = []
    for task in trace.tasks:
        moved = task.submit_time + float(shift[task.job_id])
        if moved < trace.horizon:
            task = dataclasses.replace(task, submit_time=moved)
        tasks.append(task)
    tasks.sort(key=lambda t: (t.submit_time, t.job_id, t.index))
    return dataclasses.replace(trace, tasks=tuple(tasks))


def reference_trace(params: dict, seed: int) -> Trace:
    return jittered(generate_trace(trace_config_from_params(params)), seed)


def bracket_scales(slots: list[int], samples: list[float]) -> list[float]:
    """Host-speed factor per tick, from the probes on either side of it.

    ``slots[i]`` indexes the last probe sample taken before tick ``i``;
    the sample after it closes the bracket (the last tick has none after
    it and uses its own).  Without samples every factor is 1.
    """
    if not samples:
        return [1.0] * len(slots)
    last = len(samples) - 1
    return [
        2.0 * PROBE_REF_S / (samples[k] + samples[min(k + 1, last)]) for k in slots
    ]


class HostProbe:
    """Times a fixed pure-Python loop; the samples track the host's speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        started = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        return elapsed


@dataclasses.dataclass
class Outcome:
    """What one timed run produced, for metrics and checks.

    ``ticks`` exclude probe time and ``tick_scales`` are their host-speed
    factors; ``probe_wall_s`` is the probe time inside the run's wall
    (probes in parallel workers count once per worker).
    """

    tasks: int
    digest: str
    ticks: list[float]
    tick_scales: list[float]
    control_ticks: int
    failed_ticks: int
    quality: dict
    extra: dict = dataclasses.field(default_factory=dict)
    probes: list[float] = dataclasses.field(default_factory=list)
    probe_wall_s: float = 0.0


# ------------------------------------------------------------ tick clock


@contextmanager
def tick_clock(probe: HostProbe | None = None):
    """Host time per control tick of every simulation built in the block.

    Wraps the ``decide`` of each policy ``HarmonySimulation.build_policy``
    returns, on the instance, and records when the simulator calls it; a
    tick is the time between two consecutive calls (the replay of one
    control interval plus its decision).  With a probe, each call first
    samples it, and the sample is taken back out of that tick.
    """
    runs: list[tuple[list[float], list[float]]] = []
    original = HarmonySimulation.__dict__["build_policy"]

    def build_policy(self):
        policy = original(self)
        marks: list[float] = []
        spent: list[float] = []
        runs.append((marks, spent))
        decide = policy.decide

        def timed_decide(view):
            marks.append(perf_counter())
            spent.append(probe.sample() if probe is not None else 0.0)
            return decide(view)

        policy.decide = timed_decide
        return policy

    HarmonySimulation.build_policy = build_policy
    try:
        yield runs
    finally:
        HarmonySimulation.build_policy = original


def tick_samples(runs) -> tuple[list[float], list[float]]:
    """Tick times and their host-speed factors, over every simulation."""
    ticks: list[float] = []
    scales: list[float] = []
    for marks, spent in runs:
        slots = range(len(marks) - 1)
        ticks.extend(marks[i + 1] - marks[i] - spent[i] for i in slots)
        scales.extend(bracket_scales(list(slots), spent if any(spent) else []))
    return ticks, scales


# ----------------------------------------------------------- batch replay


class BatchWorkload:
    """One ``HarmonySimulation`` over the reference trace, then ``summary()``."""

    def __init__(self, name: str, probe: bool, trace_params: dict, **config) -> None:
        self.name = name
        self.probe = probe
        self.trace_params = trace_params
        self.config = HarmonyConfig(engine="columnar", **config)

    def inputs(self, seed: int) -> Trace:
        return reference_trace(self.trace_params, seed)

    def setup(self, trace: Trace, workers: int) -> HarmonySimulation:
        return HarmonySimulation(self.config, trace)

    def run(self, simulation: HarmonySimulation) -> Outcome:
        probe = HostProbe() if self.probe else None
        with tick_clock(probe) as runs:
            summary = simulation.run().summary()
        ticks, scales = tick_samples(runs)
        probes = probe.samples if probe is not None else []
        return Outcome(
            tasks=summary["tasks_submitted"],
            digest=summary_digest(summary),
            ticks=ticks,
            tick_scales=scales,
            control_ticks=sum(len(marks) for marks in runs),
            failed_ticks=summary["resilience"]["degradation"]["degraded_ticks"],
            quality=_quality(summary),
            probes=probes,
            probe_wall_s=sum(probes),
        )

    def check(self, trace: Trace, outcome: Outcome) -> list[str]:
        errors = _quality_errors(outcome.quality)
        if outcome.tasks != trace.num_tasks:
            errors.append(f"submitted {outcome.tasks} != trace tasks {trace.num_tasks}")
        return errors

    def cleanup(self, state) -> None:
        pass


def _quality(summary: dict) -> dict:
    submitted = summary["tasks_submitted"]
    return {
        "submitted": submitted,
        "scheduled": summary["tasks_scheduled"],
        "scheduled_fraction": (
            summary["tasks_scheduled"] / submitted if submitted else 0.0
        ),
        "energy_kwh": summary["energy_kwh"],
        "delay_mean_s": summary["mean_delay_s"],
        "unscheduled": summary["tasks_unscheduled"],
    }


def _quality_errors(quality: dict) -> list[str]:
    errors = []
    if not 0 <= quality["scheduled"] <= quality["submitted"]:
        errors.append(
            f"scheduled {quality['scheduled']} outside [0, {quality['submitted']}]"
        )
    if not quality["energy_kwh"] > 0:
        errors.append(f"energy {quality['energy_kwh']} kWh is not positive")
    return errors


# ------------------------------------------------------------ fleet run


@register_task(FLEET_TASK)
def timed_fleet_shard(params: dict) -> dict:
    """``fleet_shard`` with its control ticks timed; runs in spawn workers.

    The tick samples travel back in the ``phases`` block, which the merge
    never reads, so the shard summary (and its digest) is untouched.
    """
    probe = HostProbe() if params.get("perfbench_probe") else None
    with tick_clock(probe) as runs:
        result = fleet_shard_task(params)
    ticks, scales = tick_samples(runs)
    result["phases"]["perfbench.ticks"] = ticks
    result["phases"]["perfbench.tick_scales"] = scales
    result["phases"]["perfbench.control_ticks"] = sum(len(m) for m, _ in runs)
    result["phases"]["perfbench.probes"] = probe.samples if probe is not None else []
    return result


class FleetWorkload:
    """``run_fleet``'s plan / fan-out / merge, as separately timed steps."""

    name = "fleet_sharded"

    def __init__(self, probe: bool) -> None:
        self.probe = probe

    def inputs(self, seed: int) -> FleetConfig:
        return FleetConfig(
            shards=FLEET_SHARDS,
            policy="cbs",
            predictor="ewma",
            engine="columnar",
            route_seed=seed,
        )

    def setup(self, config: FleetConfig, workers: int):
        scenarios = [
            dataclasses.replace(
                s,
                task=FLEET_TASK,
                params={**s.params, "perfbench_probe": self.probe},
            )
            for s in fleet_scenarios(FLEET_TRACE, config)
        ]
        return scenarios, workers

    def run(self, state) -> Outcome:
        scenarios, workers = state
        report = ScenarioRunner(suite="perfbench_fleet").run(scenarios, workers=workers)
        ticks: list[float] = []
        scales: list[float] = []
        probes: list[float] = []
        control_ticks = 0
        for result in report.results:
            ticks.extend(result.phases.pop("perfbench.ticks"))
            scales.extend(result.phases.pop("perfbench.tick_scales"))
            probes.extend(result.phases.pop("perfbench.probes"))
            control_ticks += int(result.phases.pop("perfbench.control_ticks"))
        fleet = merge_fleet_report("perfbench_fleet", FLEET_SHARDS, report)
        merged = fleet.merged or {}
        walls = [r.wall_seconds for r in report.results]
        quality = _quality(merged) if merged else {}
        return Outcome(
            tasks=int(merged.get("tasks_submitted", 0)),
            digest=fleet.digest or "",
            ticks=ticks,
            tick_scales=scales,
            control_ticks=control_ticks,
            failed_ticks=(
                merged["resilience"]["degradation"]["degraded_ticks"] if merged else 0
            ),
            quality=quality,
            extra={
                "partial": fleet.partial,
                "shards": [r.summary["shard"] for r in report.results],
                "tasks_routed": merged.get("shards", {}).get("tasks_routed", -1),
                "shard_imbalance": (
                    max(walls) / statistics.mean(walls) if walls else 0.0
                ),
            },
            probes=probes,
            probe_wall_s=sum(probes) / min(workers, len(scenarios)),
        )

    def check(self, config: FleetConfig, outcome: Outcome) -> list[str]:
        if outcome.extra["partial"] or not outcome.quality:
            return ["fleet merge is partial"]
        errors = _quality_errors(outcome.quality)
        routed = sum(s["tasks_routed"] for s in outcome.extra["shards"])
        if not outcome.tasks == routed == outcome.extra["tasks_routed"]:
            errors.append(f"merged submitted {outcome.tasks} != routed sum {routed}")
        seen = {s["tasks_seen"] for s in outcome.extra["shards"]}
        if seen != {outcome.tasks}:
            errors.append(f"shard tasks_seen {sorted(seen)} != merged {outcome.tasks}")
        return errors

    def cleanup(self, state) -> None:
        pass


# ------------------------------------------------------------ serve loop


class PulledFeeder:
    """A feeder wrapper that times each tick between two pulls.

    The daemon asks for the next batch only after the previous tick is
    journaled, applied and checkpointed, so the time from handing out a
    batch to the next pull is that tick's full latency (a closed loop with
    one client).
    """

    def __init__(self, feeder: ReplayFeeder, probe: HostProbe | None) -> None:
        self.feeder = feeder
        self.probe = probe
        self.rejected = 0
        self.ticks: list[float] = []
        #: Index of the last probe sample taken before each tick.
        self.probe_slots: list[int] = []

    def batches(self, start_tick: int = 0):
        for batch in self.feeder.batches(start_tick):
            if self.probe is not None and batch.tick % SERVE_PROBE_EVERY == 0:
                self.probe.sample()
            if self.probe is not None:
                self.probe_slots.append(len(self.probe.samples) - 1)
            handed_out = perf_counter()
            yield batch
            self.ticks.append(perf_counter() - handed_out)


class ServeWorkload:
    """``ServeDaemon`` fed by a ``ReplayFeeder`` over the paper trace."""

    name = "serve_replay"

    def __init__(self, probe: bool, work_dir: Path) -> None:
        self.probe = probe
        self.work_dir = work_dir
        self.config = ServeConfig(tick_seconds=SERVE_TICK_S)
        self._runs = 0

    def inputs(self, seed: int):
        trace = reference_trace(PAPER_TRACE, seed)
        return trace, seed

    def setup(self, inputs, workers: int):
        trace, seed = inputs
        self._runs += 1
        state_dir = self.work_dir / f"serve-{os.getpid()}-{self._runs}"
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        feeder = PulledFeeder(
            ReplayFeeder(trace.tasks, horizon=trace.horizon, tick_seconds=SERVE_TICK_S),
            HostProbe() if self.probe else None,
        )
        run_id = derive_run_id(
            self.config, {"kind": "replay", "benchmark": self.name, "seed": seed}
        )
        return ServeDaemon(self.config, feeder, state_dir, run_id), state_dir

    def run(self, state) -> Outcome:
        daemon, _ = state
        counts = {"fsync": 0, "checkpoint": 0}
        fsync = os.fsync
        write = CheckpointStore.write

        def counted_fsync(fd):
            counts["fsync"] += 1
            return fsync(fd)

        def counted_write(store, serve_state):
            counts["checkpoint"] += 1
            return write(store, serve_state)

        os.fsync = counted_fsync
        CheckpointStore.write = counted_write
        try:
            summary = daemon.run()
        finally:
            os.fsync = fsync
            CheckpointStore.write = write
        retried = int(daemon.metrics.snapshot().get("restarts") or 0)
        feeder = daemon.feeder
        probes = feeder.probe.samples if feeder.probe is not None else []
        ticks = list(feeder.ticks)
        slots = feeder.probe_slots or [0] * len(ticks)
        return Outcome(
            tasks=summary["arrivals_total"],
            digest=summary["chain"],
            ticks=ticks,
            tick_scales=bracket_scales(slots[: len(ticks)], probes),
            control_ticks=summary["ticks"],
            failed_ticks=retried,
            quality={},
            extra={
                "fsyncs": counts["fsync"],
                "checkpoints": counts["checkpoint"],
                "journaled": daemon.journal.tick_count(),
                "expected_ticks": daemon.feeder.feeder.num_ticks,
            },
            probes=probes,
            probe_wall_s=sum(probes),
        )

    def check(self, inputs, outcome: Outcome) -> list[str]:
        trace, _ = inputs
        extra = outcome.extra
        errors = []
        if outcome.control_ticks != extra["expected_ticks"]:
            errors.append(
                f"applied {outcome.control_ticks} of {extra['expected_ticks']} ticks"
            )
        if extra["journaled"] != outcome.control_ticks:
            errors.append(
                f"journaled {extra['journaled']} != applied {outcome.control_ticks}"
            )
        expected = extra["journaled"] + extra["checkpoints"] + 1
        if extra["fsyncs"] != expected:
            errors.append(
                f"fsyncs {extra['fsyncs']} != journaled + checkpoints + 1 = {expected}"
            )
        in_horizon = sum(
            1
            for t in trace.tasks
            if t.submit_time < extra["expected_ticks"] * SERVE_TICK_S
        )
        if outcome.tasks != in_horizon:
            errors.append(
                f"arrivals applied {outcome.tasks} != trace arrivals {in_horizon}"
            )
        return errors

    def cleanup(self, state) -> None:
        shutil.rmtree(state[1], ignore_errors=True)


def make_workloads(work_dir: Path, probe: bool) -> dict:
    """The catalog; ``probe`` interleaves host-speed probes with the work."""
    workloads = [
        BatchWorkload("paper_cbs", probe, PAPER_TRACE, policy="cbs", predictor="arima"),
        BatchWorkload("deep_backlog", probe, BACKLOG_TRACE, policy="threshold"),
        FleetWorkload(probe),
        ServeWorkload(probe, work_dir),
    ]
    return {w.name: w for w in workloads}
