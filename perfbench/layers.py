"""Which public calls the traced run wraps, and the per-layer metrics.

Each wrapper sits at the name the program looks the callee up by: a class
method on its defining class (every instance sees it), or a module-level
function in the module whose code calls it.  The layers are the
``repro`` packages on the runtime path; ``statics`` and ``analysis`` are
not on it and are left out.
"""

from __future__ import annotations

import repro.classification.classifier as classifier_module
import repro.fleet.coordinator as coordinator_module
import repro.forecasting.predictors as predictors_module
import repro.serve.state as serve_state_module
import repro.trace.generator as generator_module
from repro.classification import TaskClassifier
from repro.clustering.kmeans import KMeans
from repro.provisioning.controller import HarmonyController
from repro.provisioning.relax import CbsRelaxSolver
from repro.provisioning.rounding import FirstFitRounder
from repro.queueing.mgn import queueing_cache_info
from repro.serve.checkpoint import CheckpointStore, TickJournal
from repro.serve.state import ServeState
from repro.simulation import HarmonySimulation
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.columnar import ColumnarClusterSimulator
from repro.simulation.harmony import SimulationResult

import workloads

#: Per-layer metric name -> unit, in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS = {
    "forecasting.observe_s": "s",
    "forecasting.arima_fits": "count",
    "forecasting.forecast_s": "s",
    "provisioning.decide_s": "s",
    "provisioning.decide_p50_ms": "ms",
    "provisioning.relax_s": "s",
    "provisioning.round_s": "s",
    "provisioning.placement_ratio": "ratio",
    "containers.demand_s": "s",
    "queueing.cache_hit_ratio": "ratio",
    "classification.fit_s": "s",
    "clustering.elbow_s": "s",
    "clustering.kmeans_fits": "count",
    "classification.batch_s": "s",
    "simulation.replay_self_s": "s",
    "simulation.summary_s": "s",
    "simulation.scheduled_fraction": "ratio",
    "simulation.delay_mean_s": "s",
    "energy.kwh": "kWh",
    "trace.plan_s": "s",
    "trace.stream_s": "s",
    "fleet.stream_useful_ratio": "ratio",
    "fleet.shard_imbalance": "ratio",
    "fleet.merge_s": "s",
    "serve.apply_s": "s",
    "serve.snapshot_s": "s",
    "serve.journal_s": "s",
    "serve.checkpoint_s": "s",
    "serve.fsyncs": "count",
    "resilience.degraded_ticks": "count",
    "tracing.overhead_s": "s",
}


def install(tracer, placements: list) -> None:
    """Wrap every layer boundary; ``placements`` collects decide results."""
    wrap = tracer.wrap

    # classification / clustering
    wrap(TaskClassifier, "fit", "classification.fit")
    wrap(TaskClassifier, "classify_batch", "classification.batch")
    wrap(classifier_module, "select_k_elbow", "clustering.elbow")
    wrap(KMeans, "fit", "clustering.kmeans")

    # forecasting
    wrap(HarmonyController, "observe", "forecasting.observe")
    wrap(HarmonyController, "forecast_rates", "forecasting.forecast")
    wrap(predictors_module, "fit_arima", "forecasting.arima_fit")

    # queueing / containers
    wrap(HarmonyController, "container_demand", "containers.demand")
    wrap(serve_state_module, "required_containers", "containers.demand")

    # provisioning
    wrap(
        HarmonyController,
        "decide",
        "provisioning.decide",
        on_result=placements.append,
    )
    wrap(CbsRelaxSolver, "solve", "provisioning.relax")
    wrap(FirstFitRounder, "round", "provisioning.round")

    # simulation: the policy callback is a child of the replay, so the
    # replay's self time excludes every control decision.
    wrap(ColumnarClusterSimulator, "run", "simulation.replay")
    wrap(ClusterSimulator, "run", "simulation.replay")
    wrap(SimulationResult, "summary", "simulation.summary")

    def traced_build_policy(original):
        def build_policy(self):
            policy = original(self)
            decide = policy.decide

            def traced_decide(view):
                with tracer.span("simulation.policy"):
                    return decide(view)

            policy.decide = traced_decide
            return policy

        return build_policy

    tracer.patch(HarmonySimulation, "build_policy", traced_build_policy)

    # trace + fleet
    wrap(coordinator_module, "plan_trace", "trace.plan")
    tracer.wrap_generator(generator_module, "stream_trace", "trace.stream")
    wrap(
        workloads,
        "fleet_shard_task",
        "fleet.shard",
        tag_of=lambda params: f"shard{params['shard_index']}",
    )
    wrap(workloads, "merge_fleet_report", "fleet.merge")

    # serve
    wrap(
        ServeState,
        "apply_tick",
        "serve.apply",
        tag_of=lambda state, batch, *rest, **kw: f"tick{batch.tick}",
    )
    wrap(ServeState, "to_state", "serve.snapshot")
    wrap(TickJournal, "append", "serve.journal")
    wrap(CheckpointStore, "write", "serve.checkpoint")


def cache_hit_ratio() -> float:
    info = queueing_cache_info()["required_containers"]
    calls = info["hits"] + info["misses"]
    return info["hits"] / calls if calls else 0.0


def metrics(tracer, outcome, placements: list, overhead_s: float) -> dict:
    """Every per-layer metric, 0 where the workload never reaches the layer."""
    demanded = sum(sum(d.demand.values()) for d in placements)
    dropped = sum(sum(d.dropped.values()) for d in placements)
    quality = outcome.quality
    extra = outcome.extra
    shards = extra.get("shards", [])
    streamed = sum(s["tasks_seen"] for s in shards)
    return {
        "forecasting.observe_s": tracer.total("forecasting.observe"),
        "forecasting.arima_fits": len(tracer.durations("forecasting.arima_fit")),
        "forecasting.forecast_s": tracer.total("forecasting.forecast"),
        "provisioning.decide_s": tracer.total("provisioning.decide"),
        "provisioning.decide_p50_ms": tracer.p50_ms("provisioning.decide"),
        "provisioning.relax_s": tracer.total("provisioning.relax"),
        "provisioning.round_s": tracer.total("provisioning.round"),
        "provisioning.placement_ratio": (
            (demanded - dropped) / demanded if demanded else 0.0
        ),
        "containers.demand_s": tracer.total("containers.demand"),
        "queueing.cache_hit_ratio": cache_hit_ratio(),
        "classification.fit_s": tracer.total("classification.fit"),
        "clustering.elbow_s": tracer.total("clustering.elbow"),
        "clustering.kmeans_fits": len(tracer.durations("clustering.kmeans")),
        "classification.batch_s": tracer.total("classification.batch"),
        "simulation.replay_self_s": tracer.self_time("simulation.replay"),
        "simulation.summary_s": tracer.total("simulation.summary"),
        "simulation.scheduled_fraction": quality.get("scheduled_fraction", 0.0),
        "simulation.delay_mean_s": quality.get("delay_mean_s", 0.0),
        "energy.kwh": quality.get("energy_kwh", 0.0),
        "trace.plan_s": tracer.total("trace.plan"),
        "trace.stream_s": tracer.counts.get("trace.stream.busy_s", 0.0),
        "fleet.stream_useful_ratio": (
            sum(s["tasks_routed"] for s in shards) / streamed if streamed else 0.0
        ),
        "fleet.shard_imbalance": extra.get("shard_imbalance", 0.0),
        "fleet.merge_s": tracer.total("fleet.merge"),
        "serve.apply_s": tracer.total("serve.apply"),
        "serve.snapshot_s": tracer.top_level("serve.snapshot", "serve.checkpoint"),
        "serve.journal_s": tracer.total("serve.journal"),
        "serve.checkpoint_s": tracer.total("serve.checkpoint"),
        "serve.fsyncs": extra.get("fsyncs", 0),
        "resilience.degraded_ticks": outcome.failed_ticks,
        "tracing.overhead_s": overhead_s,
    }


def shares(values: dict, wall: float) -> dict:
    """Each timed layer's share of the traced run's wall time."""
    untimed = ("simulation.delay_mean_s", "tracing.overhead_s")
    return {
        name: round(values[name] / wall, 4)
        for name, unit in LAYER_METRICS.items()
        if unit == "s" and name not in untimed and values[name] > 0 and wall > 0
    }
