"""CBP: container-based provisioning (Section VIII-B).

The deployable variant of CBS: CBS-RELAX still decides *how many machines of
each type* to provision, but the fractional machine counts and per-type
container assignments are simply rounded to the nearest integer — no
coordinated bin-packing — and the cluster's *existing* scheduler keeps its
own algorithm (e.g. first-fit), constrained only to keep the number of type-n
tasks on type-m machines below ``x^{mn}_t``.

CBP therefore trades CBS's delay guarantee for deployment simplicity, which
is exactly the gap Figs. 21-26 measure.
"""

from __future__ import annotations

import numpy as np

from repro.provisioning.controller import HarmonyController
from repro.provisioning.model import ProvisioningProblem
from repro.provisioning.relax import RelaxSolution
from repro.provisioning.rounding import RoundedPlan


class CbpController(HarmonyController):
    """CBS-RELAX provisioning with nearest-integer rounding (no packing).

    Shares forecasting, demand, the LP, quotas and the decision record with
    :class:`HarmonyController`; only the realization step differs.
    """

    def realize(
        self,
        problem: ProvisioningProblem,
        solution: RelaxSolution,
        available: dict[int, int] | None,
    ) -> tuple[dict[int, int], dict[int, int], RoundedPlan | None]:
        # Machines per type: nearest integer, rounded up at .5 so fractional
        # provisioning is not silently lost, capped by availability.  CBP
        # performs no packing, so nothing is dropped and there is no plan.
        z = np.ceil(solution.z[0] - 0.5 + 1e-9).astype(int)
        active: dict[int, int] = {}
        for m, model in enumerate(self.machine_models):
            cap = model.count if available is None else available.get(model.platform_id, model.count)
            active[model.platform_id] = int(min(max(z[m], 0), cap))
        return active, {}, None
