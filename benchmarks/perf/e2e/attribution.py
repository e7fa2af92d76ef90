"""Per-layer attribution of a traced run, measured from outside ``src/``.

A traced run executes under :mod:`cProfile` in this process and, for
pooled workloads, in every pool worker forked while
:class:`WorkerProfiles` is active.  The merged statistics are grouped by
the ``repro`` package each function lives in (one layer per package);
interpreter builtins form the ``interp`` layer and everything else
(stdlib, numpy, this harness) ``other``.  Blocking waits -- a parent
idle on its pool, a worker idle on its task queue -- are not work and
are kept out of the layer totals.

Call counts at the layer boundaries come from the same statistics: the
profiler counts every call of the boundary functions named in
:func:`boundary_functions`, so a count is exact, not sampled.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from multiprocessing import util
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "LAYERS",
    "WorkerProfiles",
    "boundary_functions",
    "calls",
    "entered_time",
    "layer_of",
    "layer_times",
    "load_stats",
    "module_files",
]

#: The ``repro`` packages a run's host time is split across.
PACKAGES = (
    "sim",
    "services",
    "apps",
    "net",
    "workload",
    "telemetry",
    "cluster",
    "core",
    "solver",
    "stats",
    "experiments",
    "fleet",
)
LAYERS = PACKAGES + ("interp", "other")

#: Builtins that block rather than compute.
_WAIT_MARKERS = (
    "acquire' of '_thread.lock",
    "acquire' of '_multiprocessing.SemLock",
    "<built-in method select.",
    "<method 'poll' of 'select.",
    "<built-in method posix.read>",
    "<built-in method posix.waitpid>",
    "<built-in method time.sleep>",
)

Key = tuple[str, int, str]


def layer_of(key: Key) -> str:
    """Layer of one profiled function, or ``"wait"`` for a blocking wait."""
    filename, _line, name = key
    if filename == "~":
        return "wait" if any(m in name for m in _WAIT_MARKERS) else "interp"
    parts = Path(filename).parts
    if "repro" in parts:
        rest = parts[len(parts) - parts[::-1].index("repro"):]
        if len(rest) > 1 and rest[0] in PACKAGES:
            return rest[0]
    return "other"


def layer_times(stats: pstats.Stats) -> tuple[dict[str, float], float]:
    """Self seconds per layer, and the seconds spent blocked."""
    totals = dict.fromkeys(LAYERS, 0.0)
    wait = 0.0
    for key, (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        layer = layer_of(key)
        if layer == "wait":
            wait += tottime
        else:
            totals[layer] += tottime
    return totals, wait


def _key(fn: Callable) -> Key:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def calls(stats: pstats.Stats, functions: Iterable[Callable]) -> int:
    """Total calls of ``functions`` (generator resumptions count as calls)."""
    return sum(stats.stats.get(_key(fn), (0, 0))[1] for fn in functions)


def entered_time(stats: pstats.Stats, module_file: str) -> float:
    """Inclusive seconds inside ``module_file``, entered from elsewhere.

    Sums, over the module's functions, the cumulative time of calls made
    from functions outside the module, so nested calls inside it are not
    counted twice.  Covers what the module calls into (builtins, other
    packages) while it runs.
    """
    total = 0.0
    for key, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        if key[0] != module_file:
            continue
        for caller, entry in callers.items():
            if caller[0] != module_file:
                total += entry[3]
    return total


def boundary_functions() -> dict[str, tuple[Callable, ...]]:
    """Counted boundary functions, by per-layer metric name."""
    from repro.apps.topology import Application
    from repro.cluster.cluster import Cluster
    from repro.fleet.runner import _run_fleet_cell
    from repro.net.mq import MessageQueue
    from repro.services.base import Microservice
    from repro.sim.engine import Environment, Process
    from repro.sim.resources import Resource
    from repro.solver import branch_and_bound
    from repro.telemetry.metrics import CounterHandle, LatencyHandle, MetricsHub
    from repro.workload.generator import LoadGenerator

    return {
        "sim.resumes": (Process._resume,),
        "sim.timeouts": (Environment.timeout, Environment.timeout_at),
        "sim.acquires": (Resource.acquire,),
        "sim.envs": (Environment.__init__,),
        "services.hops": (Microservice.submit, Microservice.publish),
        "apps.requests": (Application.submit,),
        "net.publishes": (MessageQueue.publish,),
        "workload.batches": (
            LoadGenerator._arrivals_batched,
            LoadGenerator._arrivals_per_candidate,
        ),
        "telemetry.records": (
            LatencyHandle.record,
            CounterHandle.inc,
            MetricsHub.record_latency,
            MetricsHub.inc_counter,
            MetricsHub.observe_gauge,
        ),
        "cluster.scale_calls": (Cluster.scale,),
        "solver.solves": (branch_and_bound.solve, branch_and_bound.solve_exhaustive),
        "fleet.cell_runs": (_run_fleet_cell,),
    }


def module_files() -> dict[str, str]:
    """Source files whose entered time is reported, by metric name."""
    from repro.sim import trace
    from repro.telemetry import slo, tracing

    return {
        "sim.trace_s": trace.__file__,
        "telemetry.slo_s": slo.__file__,
        "telemetry.tracing_s": tracing.__file__,
    }


class WorkerProfiles:
    """Profile every multiprocessing child forked while this object lives.

    Each child starts a fresh profiler as it boots and writes its stats
    to ``directory`` when it exits cleanly (pool shutdown), through a
    multiprocessing finalizer -- pool workers leave via ``os._exit``, so
    ``atexit`` would never run.  Drop the object (and shut the pool
    down) before forking children that should not be profiled.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        util.register_after_fork(self, WorkerProfiles._start)

    def _start(self) -> None:
        profiler = cProfile.Profile()
        path = self.directory / f"worker-{os.getpid()}.prof"
        util.Finalize(None, _dump, args=(profiler, str(path)), exitpriority=100)
        profiler.enable()

    def dumps(self) -> list[Path]:
        return sorted(self.directory.glob("worker-*.prof"))


def _dump(profiler: cProfile.Profile, path: str) -> None:
    profiler.disable()
    profiler.dump_stats(path)


def load_stats(parent: cProfile.Profile, worker_dumps: Iterable[Path]) -> pstats.Stats:
    """The parent's profile merged with every worker dump."""
    stats = pstats.Stats(parent)
    for path in worker_dumps:
        stats.add(str(path))
    return stats
