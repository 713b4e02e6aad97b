"""Tests for the MPC controller (Algorithm 1), CBP and the baseline."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.containers import ContainerManagerConfig, ContainerManager
from repro.energy import constant_price, table2_fleet
from repro.forecasting import EwmaPredictor
from repro.provisioning import (
    BaselineConfig,
    BaselineProvisioner,
    CbpController,
    ControllerConfig,
    HarmonyController,
)
from repro.provisioning.baseline import efficiency_fill


@pytest.fixture(scope="module")
def controller_setup(classifier):
    fleet = table2_fleet(scale=0.1)
    manager = ContainerManager(classifier, ContainerManagerConfig())
    config = ControllerConfig(
        interval_seconds=300.0,
        horizon=3,
        price=constant_price(0.1),
        predictor_factory=lambda: EwmaPredictor(alpha=0.5),
    )
    return fleet, manager, config


def steady_arrivals(controller, count_per_class=2.0, rounds=6):
    counts = {cid: count_per_class for cid in controller.class_ids}
    for _ in range(rounds):
        controller.observe(counts)


class TestControllerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(interval_seconds=0)
        with pytest.raises(ValueError):
            ControllerConfig(horizon=0)
        with pytest.raises(ValueError):
            ControllerConfig(overprovision=0.5)


class TestHarmonyController:
    def test_forecast_shape(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller)
        rates = controller.forecast_rates()
        assert rates.shape == (3, len(controller.class_ids))
        assert (rates >= 0).all()
        assert rates.max() > 0

    def test_decide_provisions_for_demand(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller)
        decision = controller.decide(now=0.0)
        assert decision.total_active() > 0
        assert decision.quotas is not None
        total_quota = sum(sum(q.values()) for q in decision.quotas.values())
        assert total_quota > 0

    def test_zero_arrivals_zero_machines(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        controller.observe({cid: 0.0 for cid in controller.class_ids})
        decision = controller.decide(now=0.0)
        assert decision.total_active() == 0

    def test_backlog_raises_demand(self, controller_setup):
        fleet, manager, config = controller_setup
        controller_a = HarmonyController(fleet, manager, config)
        controller_b = HarmonyController(fleet, manager, config)
        steady_arrivals(controller_a)
        steady_arrivals(controller_b)
        cid = controller_a.class_ids[0]
        plain = controller_a.decide(now=0.0)
        backlogged = controller_b.decide(now=0.0, backlog={cid: 200})
        assert backlogged.demand[cid] >= plain.demand[cid] + 150

    def test_running_tasks_keep_capacity(self, controller_setup):
        """Occupied containers hold machines even with zero arrivals."""
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        controller.observe({cid: 0.0 for cid in controller.class_ids})
        cid = controller.class_ids[0]
        decision = controller.decide(
            now=0.0,
            running={cid: 50},
            running_by_platform={fleet[3].platform_id: {cid: 50}},
        )
        assert decision.total_active() > 0
        assert decision.demand[cid] >= 50

    def test_available_caps_active(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller, count_per_class=20.0)
        available = {m.platform_id: 1 for m in fleet}
        decision = controller.decide(now=0.0, available=available)
        for platform_id, active in decision.active.items():
            assert active <= 1

    def test_switching_state_carries_over(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        steady_arrivals(controller)
        first = controller.decide(now=0.0)
        assert np.array_equal(
            controller._previous_active,
            np.array([first.active[m.platform_id] for m in fleet], dtype=float),
        )

    def test_prime_warm_starts(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        controller.prime({cid: 3.0 for cid in controller.class_ids})
        decision = controller.decide(now=0.0)
        assert decision.total_active() > 0

    def test_prime_validation(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        with pytest.raises(ValueError):
            controller.prime({}, repeats=0)

    def test_committed_matrix_alignment(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = HarmonyController(fleet, manager, config)
        cid = controller.class_ids[2]
        matrix = controller.committed_matrix({fleet[1].platform_id: {cid: 7}})
        assert matrix[1, 2] == 7
        assert matrix.sum() == 7
        assert controller.committed_matrix(None) is None


class TestCbpController:
    def test_cbp_no_packing_plan(self, controller_setup):
        fleet, manager, config = controller_setup
        controller = CbpController(fleet, manager, config)
        steady_arrivals(controller)
        decision = controller.decide(now=0.0)
        assert controller.last_plan is None
        assert decision.quotas is not None
        assert decision.total_active() > 0
        assert decision.dropped == {}

    def test_cbp_quota_totals_close_to_cbs(self, controller_setup):
        fleet, manager, config = controller_setup
        cbs = HarmonyController(fleet, manager, config)
        cbp = CbpController(fleet, manager, config)
        steady_arrivals(cbs)
        steady_arrivals(cbp)
        d_cbs = cbs.decide(now=0.0)
        d_cbp = cbp.decide(now=0.0)
        total = lambda d: sum(sum(q.values()) for q in d.quotas.values())
        assert total(d_cbp) == pytest.approx(total(d_cbs), rel=0.3)


    def test_cbp_differs_from_cbs_only_in_realization(self, controller_setup):
        """Section VIII-B: from one controller state, CBS and CBP share the
        forecast, demand, LP and quotas; CBP realizes step 0 by rounding."""
        fleet, manager, config = controller_setup
        cbs = HarmonyController(fleet, manager, config)
        cbp = CbpController(fleet, manager, config)
        steady_arrivals(cbs)
        steady_arrivals(cbp)
        backlog = {cbs.class_ids[0]: 12}
        d_cbs = cbs.decide(now=0.0, backlog=backlog)
        d_cbp = cbp.decide(now=0.0, backlog=backlog)
        assert d_cbp.demand == d_cbs.demand
        assert d_cbp.quotas == d_cbs.quotas
        assert d_cbp.objective == d_cbs.objective
        assert d_cbp.dropped == {}
        assert cbp.last_plan is None
        assert cbs.last_plan is not None
        z = cbp.last_solution.z[0]
        for m, model in enumerate(fleet):
            nearest = int(np.ceil(z[m] - 0.5 + 1e-9))
            assert d_cbp.active[model.platform_id] == min(max(nearest, 0), model.count)
        # The next period's switching costs start from the realized counts.
        assert list(cbp._previous_active) == [d_cbp.active[m.platform_id] for m in fleet]

    def test_cbp_realization_rounds_to_nearest_and_caps(self, controller_setup):
        fleet, manager, config = controller_setup
        cbp = CbpController(fleet, manager, config)
        solution = SimpleNamespace(z=np.array([[0.49, 0.5, 2.7, 1e6]]))
        active, dropped, plan = cbp.realize(
            None, solution, available={fleet[3].platform_id: 3}
        )
        assert [active[m.platform_id] for m in fleet] == [0, 1, 3, 3]
        assert dropped == {}
        assert plan is None


class TestEfficiencyFill:
    """The greedy energy-efficiency fill shared by the baseline and serve."""

    @staticmethod
    def _random_cases(seed=0, count=300):
        fleet = table2_fleet(0.1)
        rng = np.random.default_rng(seed)
        for _ in range(count):
            available = {
                m.platform_id: int(rng.integers(0, m.count + 1)) for m in fleet
            }
            cpu_cap = sum(m.cpu_capacity * available[m.platform_id] for m in fleet)
            mem_cap = sum(m.memory_capacity * available[m.platform_id] for m in fleet)
            yield (
                fleet,
                float(rng.uniform(0, 1.2) * cpu_cap),
                float(rng.uniform(0, 1.2) * mem_cap),
                available,
            )

    def test_covers_demand_whenever_the_fleet_can(self):
        covered = 0
        for fleet, cpu, memory, available in self._random_cases():
            active = efficiency_fill(fleet, cpu, memory, available)
            assert list(active) == [m.platform_id for m in fleet]
            got_cpu = sum(m.cpu_capacity * active[m.platform_id] for m in fleet)
            got_mem = sum(m.memory_capacity * active[m.platform_id] for m in fleet)
            if active == available:
                continue  # fleet exhausted: everything available is on
            assert got_cpu >= cpu and got_mem >= memory
            covered += 1
        assert covered > 100

    def test_never_skips_a_more_efficient_type(self):
        for fleet, cpu, memory, available in self._random_cases(seed=1):
            active = efficiency_fill(fleet, cpu, memory, available)
            order = sorted(fleet, key=lambda m: -m.efficiency)
            for position, model in enumerate(order):
                if active[model.platform_id] < available[model.platform_id]:
                    # A type with machines left: no less efficient type is on.
                    assert all(
                        active[later.platform_id] == 0
                        for later in order[position + 1:]
                    )
                    break

    def test_baseline_is_the_fill_at_its_target_utilization(self):
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet, BaselineConfig(target_utilization=0.8))
        decision = baseline.decide(now=0.0, demand_cpu=10.0, demand_memory=5.0)
        assert decision.active == efficiency_fill(fleet, 10.0 / 0.8, 5.0 / 0.8)


class TestBaselineProvisioner:
    def test_efficiency_order(self):
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet)
        names = [m.name for m in baseline.efficiency_order]
        assert names[0] == "HP DL385 G7"
        assert names[-1] == "Dell PowerEdge R210"

    def test_eighty_percent_rule(self):
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet, BaselineConfig(target_utilization=0.8))
        decision = baseline.decide(now=0.0, demand_cpu=10.0, demand_memory=5.0)
        got_cpu = sum(
            next(m for m in fleet if m.platform_id == pid).cpu_capacity * n
            for pid, n in decision.active.items()
        )
        got_mem = sum(
            next(m for m in fleet if m.platform_id == pid).memory_capacity * n
            for pid, n in decision.active.items()
        )
        assert got_cpu >= 10.0 / 0.8 - 1.0  # within one machine of target
        assert got_mem >= 5.0 / 0.8 - 1.0
        assert decision.quotas is None

    def test_zero_demand_zero_machines(self):
        baseline = BaselineProvisioner(table2_fleet(0.1))
        decision = baseline.decide(now=0.0, demand_cpu=0.0, demand_memory=0.0)
        assert decision.total_active() == 0

    def test_memory_bound_demand_cascades_models(self):
        """Heterogeneity-obliviousness: memory-heavy demand forces the
        baseline through its cpu-efficiency order into many machines."""
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet)
        decision = baseline.decide(now=0.0, demand_cpu=5.0, demand_memory=40.0)
        # All 100 DL385s (25 mem units) cannot cover 50 mem units alone.
        assert decision.active[fleet[2].platform_id] == 100
        assert decision.total_active() > 100

    def test_respects_availability(self):
        fleet = table2_fleet(0.1)
        baseline = BaselineProvisioner(fleet)
        available = {m.platform_id: 2 for m in fleet}
        decision = baseline.decide(
            now=0.0, demand_cpu=100.0, demand_memory=100.0, available=available
        )
        assert all(n <= 2 for n in decision.active.values())

    def test_negative_demand_rejected(self):
        baseline = BaselineProvisioner(table2_fleet(0.1))
        with pytest.raises(ValueError):
            baseline.decide(now=0.0, demand_cpu=-1.0, demand_memory=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BaselineConfig(target_utilization=0.0)
        with pytest.raises(ValueError):
            BaselineProvisioner(())
