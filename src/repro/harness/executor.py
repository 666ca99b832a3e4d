"""The one campaign engine: every grid of ``RunSpec``s runs through here.

The figure CLI (``python -m repro.harness``), the design-space sweeps
(:mod:`repro.harness.sweep`) and perfbench's ``campaign`` workload all
hand their runs to :meth:`CampaignExecutor.run_specs`, which:

1. takes them deduplicated by content fingerprint (the figure CLI's
   :meth:`~CampaignExecutor.run_campaign` keys every experiment's run
   list up front, so independent runs of *different* figures
   interleave);
2. serves what it can from the on-disk
   :class:`~repro.harness.diskcache.ResultCache`, so a re-run only
   simulates what changed;
3. runs the misses on one of three back ends: in-process (``jobs=1``,
   the reference path), a :class:`concurrent.futures.ProcessPoolExecutor`
   (``jobs=N``), or, when handed an
   :class:`~repro.harness.serve.ExperimentService`, that campaign's
   queue and ``jobs`` worker shards, which store the artifacts
   themselves and survive crashes and restarts.  In-process and on the
   pool, the misses are grouped by trace key
   (:meth:`~repro.harness.runner.RunSpec.trace_key`): a group records
   its trace once and times it under each run's config
   (:meth:`~repro.harness.runner.Runner.simulate`), and on the pool it
   travels as one task.  The service back end runs one job per run;
4. leaves every record in ``runner.records``, from which the figure
   tables and sweep rows are built serially — so the back end and its
   width never change the output.

Every run emits a structured progress line (cache status, wall time,
worker, remaining queue depth); ``--trace PATH`` additionally persists
the event log as JSON, and :meth:`CampaignExecutor.slowest` feeds the
campaign-end table of slowest runs.  Ctrl-C on any back end raises
:class:`CampaignInterrupted`.
"""
from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing
from dataclasses import asdict, dataclass
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import ReproError
from repro.harness import Experiment
from repro.harness.report import ExperimentResult
from repro.harness.runner import Runner, RunRecord, RunSpec


class CampaignInterrupted(ReproError):
    """Ctrl-C during a campaign: pending work was cancelled cleanly.

    Completed rows survive — they are already in the disk cache and in
    ``CampaignExecutor.events`` — so the CLI can flush a partial
    ``--json`` and exit with a distinct status instead of a traceback.
    On every back end ``cancelled`` counts each run that did not
    complete, so ``completed + cancelled`` is the number of runs the
    executor had to simulate."""

    def __init__(self, completed: int, cancelled: int) -> None:
        super().__init__(
            f"campaign interrupted: {completed} runs completed, "
            f"{cancelled} cancelled"
        )
        self.completed = completed
        self.cancelled = cancelled


@dataclass
class RunEvent:
    """Observability record for one campaign run."""

    kernel: str
    isa: str
    unroll: int
    key: str
    status: str  # "hit-disk" | "miss"
    wall_s: float
    worker: Union[int, str]  # pid, or shard id on the service back end
    queue_depth: int

    @property
    def label(self) -> str:
        tag = f"{self.kernel}/{self.isa}"
        if self.unroll:
            tag += f"/unroll{self.unroll}"
        return tag


#: the misses that share one trace key, as (fingerprint, spec) pairs
Group = List[Tuple[str, RunSpec]]


def _run_group(
    group: Group, scale: float, seed: int
) -> Iterator[Tuple[str, RunSpec, RunRecord, float, int]]:
    """Simulate one group in a fresh Runner, yielding ``(key, spec,
    record, seconds, pid)`` as each run is timed."""
    runner = Runner(scale=scale, seed=seed)
    timed = runner.simulate([spec for _, spec in group])
    for (key, spec), (record, wall) in zip(group, timed):
        yield key, spec, record, wall, os.getpid()


def _execute_group(group: Group, scale: float, seed: int):
    """Pool task: one whole group, its runs returned together."""
    return list(_run_group(group, scale, seed))


class CampaignExecutor:
    """Runs a campaign's specs: cache hits first, then the misses on one
    back end.  ``jobs`` is its width: 1 runs in-process, N > 1 on a
    process pool; with ``service`` it is the number of worker shards to
    boot (0: shards started elsewhere) and the service's artifact store
    is the cache."""

    #: perfbench's ``campaign`` workload keys specs with it.
    lowering = "ir"

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 0,
        jobs: Optional[int] = None,
        cache=None,
        progress: Optional[Callable[[str], None]] = None,
        service=None,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.jobs = max(0 if service is not None else 1,
                        jobs if jobs is not None else os.cpu_count() or 1)
        self.service = service
        if service is not None:
            cache = service.cache
        self.cache = cache
        self.runner = Runner(scale=scale, seed=seed)
        self.progress = progress
        self.events: List[RunEvent] = []

    # -- Execution -----------------------------------------------------------

    def run_specs(self, specs: Dict[str, RunSpec]) -> None:
        """Execute fingerprint-keyed specs into ``runner.records``: disk
        hits first, then the misses on the back end.  Also the entry
        point for external spec producers such as
        :mod:`repro.harness.sweep`."""
        pending: Dict[str, RunSpec] = {}
        for key, spec in specs.items():
            record = self.cache.load(key) if self.cache else None
            if record is not None:
                self.runner.records[key] = record
                self._emit(spec, key, "hit-disk", 0.0, os.getpid(),
                           len(pending))
            else:
                pending[key] = spec
        if not pending:
            return
        started = len(self.events)
        try:
            if self.service is not None:
                self._run_service(pending)
            elif self.jobs == 1:
                self._run_serial(self._groups(pending))
            else:
                self._run_pool(self._groups(pending))
        except KeyboardInterrupt:
            # Each back end emits one event per finished run, and those
            # runs are already cached.
            completed = len(self.events) - started
            raise CampaignInterrupted(
                completed, len(pending) - completed
            ) from None

    def _finish(self, key, spec, record, wall, worker, remaining) -> None:
        self.runner.records[key] = record
        if self.cache is not None:
            self.cache.store(key, record)
        self._emit(spec, key, "miss", wall, worker, remaining)

    def _groups(self, pending: Dict[str, RunSpec]) -> List[Group]:
        """The misses grouped by trace key, in first-appearance order."""
        groups: Dict[tuple, Group] = {}
        for key, spec in pending.items():
            trace_key = spec.trace_key(self.scale, self.seed)
            groups.setdefault(trace_key, []).append((key, spec))
        return list(groups.values())

    def _run_serial(self, groups: List[Group]) -> None:
        remaining = sum(len(group) for group in groups)
        for group in groups:
            for key, spec, record, wall, worker in _run_group(
                group, self.scale, self.seed
            ):
                remaining -= 1
                self._finish(key, spec, record, wall, worker, remaining)

    def _run_pool(self, groups: List[Group]) -> None:
        remaining = sum(len(group) for group in groups)
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = [
                pool.submit(_execute_group, group, self.scale, self.seed)
                for group in groups
            ]
            try:
                for future in as_completed(futures):
                    for key, spec, record, wall, worker in future.result():
                        remaining -= 1
                        self._finish(key, spec, record, wall, worker,
                                     remaining)
            except KeyboardInterrupt:
                # Drop the queued futures now instead of waiting out
                # every in-flight simulation.
                pool.shutdown(wait=False, cancel_futures=True)
                raise

    def _run_service(self, pending: Dict[str, RunSpec]) -> None:
        remaining = len(pending)
        results = self.service.run(pending, self.jobs)
        with closing(results):
            for result in results:
                remaining -= 1
                # "hit": a shard stored the artifact after this executor
                # looked for it.
                status = "miss" if result.status == "ran" else "hit-disk"
                self.runner.records[result.key] = result.record
                self._emit(pending[result.key], result.key, status,
                           result.run_s, result.worker or os.getpid(),
                           remaining)

    def run_campaign(
        self,
        experiments: Sequence[Experiment],
        on_result: Optional[Callable[[ExperimentResult], None]] = None,
    ) -> List[ExperimentResult]:
        """Run every experiment's runs in one :meth:`run_specs` call, then
        build each table from the records of its run list, invoking
        ``on_result`` as each completes.

        Each distinct run-list function is called once and each of its
        specs keyed once; experiments that share a run list (fig8a-d)
        share its runs and records."""
        run_lists: Dict[Callable, List[Tuple[RunSpec, str]]] = {}
        for experiment in experiments:
            if experiment.specs not in run_lists:
                run_lists[experiment.specs] = [
                    (spec, spec.key(self.scale, self.seed))
                    for spec in experiment.specs(self.runner)
                ]
        specs: Dict[str, RunSpec] = {}
        for keyed in run_lists.values():
            for spec, key in keyed:
                specs.setdefault(key, spec)
        self.run_specs(specs)
        results = []
        for experiment in experiments:
            result = experiment.build({
                spec: self.runner.records[key]
                for spec, key in run_lists[experiment.specs]
            })
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results

    # -- Observability -------------------------------------------------------

    def _emit(self, spec, key, status, wall, worker, queue_depth) -> None:
        event = RunEvent(
            kernel=spec.kernel, isa=spec.isa, unroll=spec.unroll,
            key=key, status=status, wall_s=wall, worker=worker,
            queue_depth=queue_depth,
        )
        self.events.append(event)
        if self.progress is not None:
            self.progress(
                f"[run] {event.status:<10} {event.label:<28} "
                f"{event.wall_s:6.2f}s  worker {event.worker}  "
                f"queue {event.queue_depth}"
            )

    def cache_summary(self) -> Dict[str, int]:
        counts = {"hit-disk": 0, "miss": 0}
        for event in self.events:
            counts[event.status] += 1
        counts["total"] = len(self.events)
        return counts

    def slowest(self, count: int = 10) -> List[RunEvent]:
        ran = [e for e in self.events if e.status == "miss"]
        return sorted(ran, key=lambda e: e.wall_s, reverse=True)[:count]

    def slowest_table(self, count: int = 10) -> ExperimentResult:
        rows = [
            (e.label, f"{e.wall_s:.2f}", e.worker, e.key[:12])
            for e in self.slowest(count)
        ]
        return ExperimentResult(
            "campaign",
            f"slowest simulated runs (of {len(self.events)} total; "
            f"jobs={self.jobs})",
            ["run", "seconds", "worker", "fingerprint"],
            rows,
        )

    def write_trace(self, path: str) -> None:
        payload = {
            "scale": self.scale,
            "seed": self.seed,
            "jobs": self.jobs,
            "salt": getattr(self.cache, "salt", ""),
            "events": [asdict(e) for e in self.events],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)


def stderr_progress(line: str) -> None:
    """Default progress sink: structured lines on stderr, tables stay
    clean on stdout."""
    print(line, file=sys.stderr, flush=True)
