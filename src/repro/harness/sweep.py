"""Declarative design-space-exploration sweeps over the simulator.

The paper's evaluation is a grid of (kernel × ISA × vector-bits ×
machine config) simulations; the "simulator as a design tool" workflow
(Ramírez et al., PAPERS.md) needs the same grid swept over *candidate*
configurations — engine sizing, stream cache level, vector length — with
thousands of points, run once, resumable, and summarised as a Pareto
front instead of nineteen hand-read tables.

A sweep is a small JSON document::

    {
      "name": "engine-sizing",
      "kernels": ["saxpy", "memcpy", "stream"],
      "isas": ["uve"],
      "axes": {
        "vector_bits": [128, 256, 512],
        "engine.fifo_depth": [4, 8, 16],
        "engine.processing_modules": [1, 2],
        "engine.mem_level_override": ["", "L2"]
      }
    }

Axis names are dotted paths into :class:`~repro.cpu.config.MachineConfig`
(validated against the dataclass tree at expansion time); the sweep is
the cartesian product kernels × isas × axes, expanded in a fixed,
documented order so row indices are stable across runs and machines.

Every point runs through the one campaign engine,
:class:`~repro.harness.executor.CampaignExecutor`: in-process
(``--workers 1``, the reference path) or on a process pool
(``--workers N``), or, with ``--queue DIR``, on N worker shards of the
experiment service (:mod:`repro.harness.serve`), whose campaign
directory makes the sweep durable and resumable.  Duplicate points
collapse by fingerprint and finished artifacts are cache hits.  On
every back end the emitted ``rows``/``pareto`` sections depend only on
simulation results — byte identical between in-process, pooled,
sharded, and resumed runs — while scheduling noise (requeues, worker
exits, wall time) is quarantined in ``jobs``.

CLI::

    python -m repro.harness.sweep SPEC.json --workers 1 --json out.json
    python -m repro.harness.sweep SPEC.json --queue DIR --workers 4 \
        --json out.json [--resume]
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.config import MachineConfig, default_machine
from repro.errors import ConfigError
from repro.harness.executor import (
    CampaignExecutor,
    CampaignInterrupted,
    stderr_progress,
)
from repro.harness.report import ExperimentResult, geomean
from repro.harness.runner import RunSpec
from repro.harness.serve import ExperimentService
from repro.kernels import get_kernel


# -- Spec --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: kernels × isas × config axes."""

    name: str
    kernels: Tuple[str, ...]
    isas: Tuple[str, ...]
    #: ordered (dotted_path, values) pairs; product order follows this.
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]
    description: str = ""

    _FIELDS = ("name", "kernels", "isas", "axes", "description")

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ConfigError(
                f"unknown sweep spec fields {unknown} "
                f"(expected {list(cls._FIELDS)})"
            )
        for field in ("name", "kernels", "isas", "axes"):
            if field not in payload:
                raise ConfigError(f"sweep spec missing {field!r}")
        if not payload["kernels"] or not payload["isas"]:
            raise ConfigError("sweep spec needs >= 1 kernel and >= 1 isa")
        axes = tuple(
            (path, tuple(values))
            for path, values in payload["axes"].items()
        )
        for path, values in axes:
            if not values:
                raise ConfigError(f"sweep axis {path!r} has no values")
        return cls(
            name=payload["name"],
            kernels=tuple(payload["kernels"]),
            isas=tuple(payload["isas"]),
            axes=axes,
            description=payload.get("description", ""),
        )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable sweep spec {path}: {exc}")
        return cls.from_dict(payload)

    def point_count(self) -> int:
        count = len(self.kernels) * len(self.isas)
        for _, values in self.axes:
            count *= len(values)
        return count

    def expand(self) -> List["SweepPoint"]:
        """The full point list in canonical order: kernels outermost,
        then isas, then the axes in spec order (itertools.product)."""
        for kernel in self.kernels:
            get_kernel(kernel)  # unknown kernels fail before any run
        points = []
        value_lists = [values for _, values in self.axes]
        paths = [path for path, _ in self.axes]
        index = 0
        for kernel in self.kernels:
            for isa in self.isas:
                for combo in itertools.product(*value_lists):
                    axes = dict(zip(paths, combo))
                    cfg = _apply_axes(default_machine(isa), axes)
                    _check_streaming(isa, cfg)
                    points.append(SweepPoint(
                        index=index, kernel=kernel, isa=isa,
                        axes=axes, spec=RunSpec(kernel, isa, cfg),
                    ))
                    index += 1
        return points


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point (a RunSpec plus its sweep coordinates)."""

    index: int
    kernel: str
    isa: str
    axes: Dict[str, object]
    spec: RunSpec


def _check_streaming(isa: str, cfg: MachineConfig) -> None:
    if (isa == "uve") != cfg.streaming:
        raise ConfigError(
            f"sweep axis set streaming={cfg.streaming} which is "
            f"inconsistent with isa {isa!r}"
        )


def _apply_axes(cfg: MachineConfig, axes: Dict[str, object]) -> MachineConfig:
    for path, value in axes.items():
        cfg = _set_path(cfg, path.split("."), value)
    return cfg


def _set_path(node, parts: List[str], value):
    """Replace one dotted-path field in a frozen dataclass tree."""
    if not dataclasses.is_dataclass(node) or isinstance(node, type):
        raise ConfigError(
            f"axis path descends into non-config value {node!r}"
        )
    head, rest = parts[0], parts[1:]
    names = {f.name for f in dataclasses.fields(node)}
    if head not in names:
        raise ConfigError(
            f"unknown config field {head!r} on {type(node).__name__} "
            f"(valid: {sorted(names)})"
        )
    new = value if not rest else _set_path(getattr(node, head), rest, value)
    return dataclasses.replace(node, **{head: new})


# -- Resource proxy + Pareto -------------------------------------------------


def resource_proxy(cfg: MachineConfig) -> float:
    """Dimensionless hardware-cost proxy for Pareto fronts (bigger =
    more silicon).  Normalised so the paper's 512-bit UVE configuration
    scores ~2.25: vector datapath and vector register file scale with
    vector width; a streaming engine adds its processing modules and the
    per-stream FIFO storage (streams × depth × vector bits).  A proxy,
    not an area model — it only needs to order configs sensibly."""
    proxy = cfg.vector_bits / 512.0
    proxy += (cfg.core.vec_phys_regs * cfg.vector_bits) / (48 * 512.0)
    if cfg.streaming:
        engine = cfg.engine
        fifo_bits = engine.max_streams * engine.fifo_depth * cfg.vector_bits
        proxy += fifo_bits / float(32 * 8 * 512)
        proxy += 0.25 * engine.processing_modules / 2.0
    return round(proxy, 6)


def pareto_front(rows: List[dict]) -> List[dict]:
    """Group rows by (isa, axes), aggregate cycles across kernels by
    geomean, and mark the non-dominated set minimising
    (geomean_cycles, resource_proxy)."""
    groups: Dict[str, dict] = {}
    for row in rows:
        label = json.dumps(
            {"isa": row["isa"], **row["axes"]}, sort_keys=True
        )
        group = groups.setdefault(label, {
            "isa": row["isa"], "axes": row["axes"],
            "resource_proxy": row["resource_proxy"], "cycles": [],
        })
        group["cycles"].append(row["cycles"])
    entries = []
    for label in sorted(groups):
        group = groups[label]
        entries.append({
            "isa": group["isa"],
            "axes": group["axes"],
            "geomean_cycles": round(geomean(group["cycles"]), 6),
            "resource_proxy": group["resource_proxy"],
        })
    for entry in entries:
        entry["on_front"] = not any(
            _dominates(other, entry) for other in entries
        )
    return entries


def _dominates(a: dict, b: dict) -> bool:
    """True when ``a`` is at least as good on both objectives and
    strictly better on one (minimisation)."""
    if a is b:
        return False
    better_eq = (a["geomean_cycles"] <= b["geomean_cycles"]
                 and a["resource_proxy"] <= b["resource_proxy"])
    strictly = (a["geomean_cycles"] < b["geomean_cycles"]
                or a["resource_proxy"] < b["resource_proxy"])
    return better_eq and strictly


# -- Campaign driver ---------------------------------------------------------


def _row_for(point: SweepPoint, record) -> dict:
    """One deterministic result row: sweep coordinates + measurements.
    No scheduling data here — rows must be byte-identical between
    in-process, pooled, sharded, and resumed runs."""
    return {
        "index": point.index,
        "kernel": point.kernel,
        "isa": point.isa,
        "axes": point.axes,
        "resource_proxy": resource_proxy(point.spec.resolved_config()),
        **dataclasses.asdict(record),
    }


def run_sweep(
    spec: SweepSpec,
    root=None,
    workers: int = 1,
    scale: float = 1.0,
    seed: int = 0,
    lease_seconds: float = 60.0,
    max_attempts: int = 3,
    resume: bool = False,
    chaos_kill: int = 0,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run every point of ``spec`` through the campaign executor.

    Without ``root`` the grid runs in-process (``workers=1``, the
    reference path) or on a process pool of ``workers``.  With ``root``,
    a campaign directory, it runs on ``workers`` shards of the
    experiment service (0: shards started elsewhere) and is resumable by
    construction: finished rows live in the artifact store, so a second
    invocation (``resume`` releases stale leases first) serves them as
    cache hits and only simulates the remainder, including rows whose
    artifact was pruned since."""
    points = spec.expand()
    service = None
    if root is not None:
        service = ExperimentService(
            root, scale=scale, seed=seed,
            lease_seconds=lease_seconds, max_attempts=max_attempts,
            resume=resume, chaos_kill=chaos_kill, timeout_s=timeout_s,
        )
        if resume:
            released = service.queue.release_stale_leases()
            if released and progress is not None:
                progress(f"[sweep] resume: released {released} stale leases")
    executor = CampaignExecutor(
        scale=scale, seed=seed, jobs=workers, progress=progress,
        service=service,
    )
    keys = [point.spec.key(scale, seed) for point in points]
    keyed = {}
    for key, point in zip(keys, points):
        keyed.setdefault(key, point.spec)
    start = time.monotonic()
    executor.run_specs(keyed)
    rows = [
        _row_for(point, executor.runner.cached(key))
        for key, point in zip(keys, points)
    ]

    # "ran" means *this* invocation: rows whose artifact already existed
    # are cache hits even if a prior invocation ran them.
    counts = executor.cache_summary()
    hits = counts["hit-disk"]
    jobs = {
        "mode": "service" if service is not None
        else "pool" if executor.jobs > 1 else "in-process",
        "workers": workers,
        "total": len(points),
        "unique": len(keyed),
        "cache_hits": hits,
        "ran": counts["miss"],
        "cache_hit_rate": round(hits / max(1, len(keyed)), 4),
        "wall_s": round(time.monotonic() - start, 3),
    }
    if service is not None:
        jobs["requeues"] = sum(
            service.queue.get(e.key).requeues
            for e in executor.events if e.status == "miss"
        )
        jobs["queue"] = service.queue.counts()
        jobs["worker_exits"] = service.worker_exits
    return {
        "sweep": spec.name,
        "description": spec.description,
        "scale": scale,
        "seed": seed,
        "rows": rows,
        "pareto": pareto_front(rows),
        "jobs": jobs,
    }


def pareto_table(payload: dict, limit: int = 15) -> ExperimentResult:
    """Render the Pareto front (plus how much it pruned) as a table."""
    entries = payload["pareto"]
    front = [e for e in entries if e["on_front"]]
    front.sort(key=lambda e: e["resource_proxy"])
    rows = [
        (
            e["isa"],
            json.dumps(e["axes"], sort_keys=True),
            e["resource_proxy"],
            e["geomean_cycles"],
        )
        for e in front[:limit]
    ]
    return ExperimentResult(
        f"sweep-{payload['sweep']}",
        f"Pareto front: {len(front)}/{len(entries)} configs "
        f"non-dominated (cycles vs. resource proxy, "
        f"{len(payload['rows'])} rows)",
        ["isa", "config", "resource", "geomean cycles"],
        rows,
    )


# -- CLI ---------------------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.sweep",
        description="Expand and run a declarative design-space sweep.",
    )
    parser.add_argument("spec", help="sweep spec JSON file")
    parser.add_argument("--queue", metavar="DIR", default="",
                        help="campaign directory: run on worker shards of "
                             "the experiment service, resumably (default: "
                             "in-process or on a process pool)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="without --queue, 1 runs in-process and N a "
                             "process pool of N; with --queue, worker "
                             "shards to boot, 0 attaches to shards "
                             "started elsewhere (default 2)")
    # The service-only options default to "absent", so that a use
    # without --queue is refused instead of silently ignored.
    parser.add_argument("--resume", action="store_true",
                        default=argparse.SUPPRESS,
                        help="with --queue: release stale leases and "
                             "continue a half-finished campaign")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lease-seconds", type=float,
                        default=argparse.SUPPRESS,
                        help="with --queue: worker lease/heartbeat window "
                             "(default 60)")
    parser.add_argument("--timeout", type=float, dest="timeout_s",
                        default=argparse.SUPPRESS, metavar="S",
                        help="with --queue: abort if no row completes "
                             "for S seconds")
    parser.add_argument("--json", metavar="PATH", default="",
                        help="write rows + Pareto front + job metrics")
    parser.add_argument("--expand", action="store_true",
                        help="print the expanded point count and exit")
    parser.add_argument("--chaos-kill", type=int, default=argparse.SUPPRESS,
                        metavar="N",
                        help="with --queue, fault-injection drill: SIGKILL "
                             "N worker shards mid-campaign (CI uses 1)")
    args = parser.parse_args(argv)

    flags = {"resume": "--resume", "lease_seconds": "--lease-seconds",
             "timeout_s": "--timeout", "chaos_kill": "--chaos-kill"}
    service_opts = {d: getattr(args, d) for d in flags if hasattr(args, d)}
    misplaced = [flags[dest] for dest in service_opts]
    if args.workers < 1:
        misplaced.append(f"--workers {args.workers}")
    if misplaced and not args.queue:
        parser.error(f"{', '.join(misplaced)}: only with --queue DIR")

    spec = SweepSpec.from_file(args.spec)
    if args.expand:
        points = spec.expand()
        print(f"{spec.name}: {len(points)} points "
              f"({len(spec.kernels)} kernels x {len(spec.isas)} isas x "
              f"{len(points) // max(1, len(spec.kernels) * len(spec.isas))}"
              f" configs)")
        return 0

    try:
        payload = run_sweep(
            spec, args.queue or None, args.workers, scale=args.scale,
            seed=args.seed, progress=stderr_progress, **service_opts,
        )
    except CampaignInterrupted as interrupt:
        hint = " — finished rows are stored; --resume continues" \
            if args.queue else ""
        print(f"{interrupt}{hint}", file=sys.stderr)
        return 130

    print(pareto_table(payload).render())
    jobs = payload["jobs"]
    print(
        f"sweep {spec.name}: {jobs['total']} rows in "
        f"{jobs['wall_s']:.1f}s ({jobs['ran']} simulated, "
        f"{jobs['cache_hits']} cache hits, "
        f"{jobs.get('requeues', 0)} requeues, mode {jobs['mode']})",
        file=sys.stderr,
    )
    if args.json:
        _write_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
