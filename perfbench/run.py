"""HARMONY benchmark: one workload, measured end to end or layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload deep_backlog --seed 1 --seconds 25 --trace 0

``--trace 0`` times whole runs and prints the end-to-end metrics;
``--trace 1`` runs a traced and then an untraced iteration, and prints
the per-layer metrics of the traced one plus the tracing overhead (its
wall minus the untraced one's).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it carries the run's environment and simulated outputs.

BLAS and OpenMP are pinned to one thread before numpy loads; spawn
workers inherit the pinning through the environment.
"""

import os
import sys
from pathlib import Path

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if (SRC / "repro").is_dir():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Registers the benchmark's fleet shard task; spawn workers re-import
    # this file, so they need it at import time too.
    import workloads  # noqa: E402, F401

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

#: Setups timed per run (the median is ``setup_s``).
SETUP_SAMPLES = 3
#: Host-speed probes sampled right before each set-up.
SETUP_PROBES = 3
WORK_DIR = ROOT / "perfbench" / ".work"

#: End-to-end metric name -> unit.
END_TO_END = {
    "tasks_per_s": "1/s",
    "cpu_s_per_mtask": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tick_p50_ms": "ms",
    "tick_p90_ms": "ms",
    "primary_tick_fraction": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reset_peak_rss() -> None:
    """Restart this process's high-water RSS (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Largest high-water RSS among this process and its reaped children."""
    own = None
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children)


def source_hash() -> str:
    """Digest of the program and benchmark sources (keys the digest store)."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digest(workload: str, seed: int, digest: str) -> str | None:
    """Compare with the digest an earlier run of this code and seed stored."""
    store = WORK_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{source_hash()}:{workload}:{seed}"
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
        return None
    if previous != digest:
        return f"digest {digest} differs from an earlier run of this seed ({previous})"
    return None


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Pool workers are joined by the pool itself, but a spawn pool also
    starts multiprocessing's resource tracker, which would otherwise
    outlive this process by a moment and be left unreaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def environment(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "workers": workers,
        "thread_env": {name: os.environ[name] for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload, inputs, workers: int, seconds: float):
    """Whole iterations (setup + run) until the next would overrun ``seconds``.

    Returns ``(setups, iterations)``: set-up samples as ``(raw_s, scale)``
    and per-iteration ``(setup_s, wall_s, cpu_s, outcome, scale)``, with
    probe time already taken out and ``scale`` the host-speed factor
    (``PROBE_REF_S`` over the median probe around that iteration).
    """
    import workloads as wl
    from repro.queueing.mgn import clear_queueing_caches

    def probed_setup():
        probe = wl.HostProbe()
        for _ in range(SETUP_PROBES):
            probe.sample()
        t0 = perf_counter()
        state = workload.setup(inputs, workers)
        return state, perf_counter() - t0, probe.samples

    setups, iterations = [], []
    started = perf_counter()
    while True:
        clear_queueing_caches()
        state, setup_s, probes = probed_setup()
        cpu0 = cpu_seconds()
        t1 = perf_counter()
        outcome = workload.run(state)
        wall = perf_counter() - t1 - outcome.probe_wall_s
        cpu = cpu_seconds() - cpu0 - sum(outcome.probes)
        workload.cleanup(state)
        scale = wl.PROBE_REF_S / statistics.median(probes + outcome.probes)
        setups.append((setup_s, scale))
        iterations.append((setup_s, wall, cpu, outcome, scale))
        elapsed = perf_counter() - started
        per_iteration = statistics.median(
            it[0] + it[1] + it[3].probe_wall_s for it in iterations
        )
        if elapsed + per_iteration > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        state, setup_s, probes = probed_setup()
        workload.cleanup(state)
        setups.append((setup_s, wl.PROBE_REF_S / statistics.median(probes)))
    return setups, iterations


def end_to_end(workload, inputs, seed, workers, seconds):
    import numpy

    reset_peak_rss()
    setups, iterations = measure(workload, inputs, workers, seconds)
    rss = peak_rss_mb()
    outcomes = [it[3] for it in iterations]
    checks = [workload.check(inputs, o) for o in outcomes]
    ok = [it for it, failures in zip(iterations, checks) if not failures]
    failed = len(outcomes) - len(ok)
    errors = [e for failures in checks for e in failures]
    digests = {it[3].digest for it in ok}
    if len(digests) > 1:
        errors.append(f"digests differ between iterations: {sorted(digests)}")
    for digest in digests:
        error = check_digest(workload.name, seed, digest)
        if error:
            errors.append(error)
    if not ok:
        return errors, len(outcomes), failed, {}, {}
    ticks = [t * f for *_, o, _ in ok for t, f in zip(o.ticks, o.tick_scales)]
    control = sum(o.control_ticks for _, _, _, o, _ in ok)
    degraded = sum(o.failed_ticks for _, _, _, o, _ in ok)
    values = {
        "tasks_per_s": statistics.median(
            o.tasks / (wall * scale) for _, wall, _, o, scale in ok
        ),
        "cpu_s_per_mtask": statistics.median(
            cpu * scale / o.tasks * 1e6 for _, _, cpu, o, scale in ok
        ),
        "setup_s": statistics.median(raw * scale for raw, scale in setups),
        "peak_rss_mb": rss,
        "tick_p50_ms": 1000.0 * float(numpy.percentile(ticks, 50)),
        "tick_p90_ms": 1000.0 * float(numpy.percentile(ticks, 90)),
        "primary_tick_fraction": 1.0 - degraded / control if control else 0.0,
    }
    info = {
        "iterations": len(outcomes),
        "raw_walls_s": [round(it[1], 4) for it in iterations],
        "raw_setups_s": [round(raw, 4) for raw, _ in setups],
        "raw_tasks_per_s": round(
            statistics.median(it[3].tasks / it[1] for it in ok), 4
        ),
        "speed_scales": [round(it[4], 4) for it in iterations],
        "probes": sum(len(it[3].probes) for it in iterations),
        "tick_samples": len(ticks),
        "digest": sorted(digests),
        "quality": ok[0][3].quality,
    }
    return errors, len(outcomes), failed, values, info


def layered(workload, inputs, seed, workers):
    """Per-layer metrics from a traced iteration, plus its overhead.

    The traced iteration runs first, so first-run costs (page faults,
    lazy imports) land on it and the overhead (its wall minus the
    untraced one's) errs high, never low.
    """
    import layers
    from repro.queueing.mgn import clear_queueing_caches
    from tracer import Tracer

    walls, outcomes = [], []
    tracer = Tracer()
    placements: list = []
    for traced in (True, False):
        clear_queueing_caches()
        if traced:
            layers.install(tracer, placements)
        try:
            t0 = perf_counter()
            state = workload.setup(inputs, workers)
            outcome = workload.run(state)
            walls.append(perf_counter() - t0)
        finally:
            tracer.restore()
        workload.cleanup(state)
        outcomes.append(outcome)
    checks = [workload.check(inputs, o) for o in outcomes]
    errors = [e for failures in checks for e in failures]
    if len({o.digest for o in outcomes}) > 1:
        errors.append("traced and untraced runs produced different digests")
    failed = sum(1 for failures in checks if failures)
    traced_wall, untraced_wall = walls
    values = layers.metrics(
        tracer, outcomes[0], placements, traced_wall - untraced_wall
    )
    tracer.write(WORK_DIR / f"spans-{workload.name}-{seed}.jsonl")
    info = {
        "traced_wall_s": round(traced_wall, 4),
        "untraced_wall_s": round(untraced_wall, 4),
        "spans": len(tracer.spans),
        "layer_shares": layers.shares(values, traced_wall),
    }
    return errors, len(outcomes), failed, values, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads as wl

    catalog = wl.make_workloads(WORK_DIR, probe=not args.trace)
    if args.workload not in catalog:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(catalog)}",
            file=sys.stderr,
        )
        return 2
    workload = catalog[args.workload]
    # Never more workers than usable CPUs; inline when tracing, so the
    # wrappers see the fleet's shards.
    workers = 1 if args.trace else min(wl.FLEET_WORKERS, usable_cpus())

    inputs = workload.inputs(args.seed)
    if args.trace:
        errors, attempted, failed, values, info = layered(
            workload, inputs, args.seed, workers
        )
        units = layers.LAYER_METRICS
    else:
        errors, attempted, failed, values, info = end_to_end(
            workload, inputs, args.seed, workers, args.seconds
        )
        units = END_TO_END
    info.update(workload=args.workload, seed=args.seed, errors=errors)
    info["environment"] = environment(workers)
    print(json.dumps({"info": info}, default=str))
    correct = not errors and bool(values)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
