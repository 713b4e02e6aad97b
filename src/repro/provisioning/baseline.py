"""The heterogeneity-oblivious baseline provisioner (Section IX-B).

"A baseline algorithm that finds the best trade-off between energy savings
and scheduling delay by maintaining an 80% utilization of the bottleneck
resource.  It provisions machines in a 'greedy' fashion by turning them on
in decreasing order of energy efficiency."

The baseline sees only *aggregate* demand — no task classes, no per-class
queueing model, no compatibility reasoning — which is precisely what makes
it turn on the wrong machines for large or constrained tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.models import MachineModel
from repro.provisioning.controller import ProvisioningDecision


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline knobs.

    ``target_utilization`` is the bottleneck-resource utilization the
    provisioner maintains (the paper's 80%).
    """

    target_utilization: float = 0.8

    def __post_init__(self) -> None:
        if not 0 < self.target_utilization <= 1:
            raise ValueError(
                f"target_utilization must be in (0, 1], got {self.target_utilization}"
            )


class BaselineProvisioner:
    """Greedy energy-efficiency-ordered, heterogeneity-oblivious provisioning."""

    def __init__(
        self,
        machine_models: tuple[MachineModel, ...],
        config: BaselineConfig | None = None,
    ) -> None:
        if not machine_models:
            raise ValueError("need at least one machine model")
        self.machine_models = machine_models
        self.config = config or BaselineConfig()
        #: Models in decreasing energy-efficiency (capacity per peak watt).
        self.efficiency_order = tuple(
            sorted(machine_models, key=lambda m: -m.efficiency)
        )
        self.decisions: list[ProvisioningDecision] = []

    def observe(self, arrival_counts: dict[int, float]) -> None:
        """The baseline ignores per-class arrivals (heterogeneity-oblivious)."""

    def decide(
        self,
        now: float,
        demand_cpu: float,
        demand_memory: float,
        available: dict[int, int] | None = None,
    ) -> ProvisioningDecision:
        """Provision for aggregate demand at the target utilization.

        Parameters
        ----------
        demand_cpu / demand_memory:
            Total requested resources of tasks currently in the system
            (pending + running), in normalized machine units.
        """
        if demand_cpu < 0 or demand_memory < 0:
            raise ValueError("demand must be non-negative")
        active = efficiency_fill(
            self.machine_models,
            demand_cpu / self.config.target_utilization,
            demand_memory / self.config.target_utilization,
            available,
        )
        decision = ProvisioningDecision(
            time=now,
            active=active,
            quotas=None,  # the baseline scheduler is unrestricted
            demand={},
        )
        self.decisions.append(decision)
        return decision


def efficiency_fill(
    machine_models: tuple[MachineModel, ...],
    required_cpu: float,
    required_memory: float,
    available: dict[int, int] | None = None,
) -> dict[int, int]:
    """Machines per platform id covering (cpu, memory), most efficient first.

    Machines are powered one at a time, type by type in decreasing energy
    efficiency, until both resources are covered or the available fleet
    runs out — the paper's greedy baseline fill.  The result lists every
    platform id of ``machine_models`` in their given order.
    """
    active = {m.platform_id: 0 for m in machine_models}
    got_cpu = 0.0
    got_memory = 0.0
    for model in sorted(machine_models, key=lambda m: -m.efficiency):
        cap = model.count if available is None else available.get(model.platform_id, model.count)
        cpu, memory = model.cpu_capacity, model.memory_capacity
        taken = 0
        while taken < cap and (got_cpu < required_cpu or got_memory < required_memory):
            taken += 1
            got_cpu += cpu
            got_memory += memory
        active[model.platform_id] = taken
        if taken < cap:
            break
    return active
