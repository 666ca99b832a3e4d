"""CLI: run one benchmark kernel on one ISA through the full simulator.

Usage::

    python -m repro.kernels --list
    python -m repro.kernels saxpy --isa uve
    python -m repro.kernels gemm --isa sve --scale 0.5 --listing
"""
from __future__ import annotations

import argparse
import sys
import time

from repro.cpu.config import default_machine
from repro.errors import ConfigError
from repro.kernels import all_kernels, get_kernel, kernel_names
from repro.sim.simulator import Simulator


def list_kernels() -> str:
    """The kernel table, with each kernel's lowering source (the shared
    loop-nest IR vs. hand-written builders) and supported ISAs."""
    rows = [("letter", "name", "domain", "pattern", "lowering", "isas")]
    for kernel in all_kernels(include_extensions=True):
        info = kernel.describe()
        name = info["name"] + ("" if kernel.paper else " (ext)")
        rows.append(
            (
                str(info["letter"]),
                name,
                str(info["domain"]),
                str(info["pattern"]),
                str(info["lowering"]),
                ",".join(info["isas"]),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.kernels")
    parser.add_argument("kernel", nargs="?",
                        choices=kernel_names(include_extensions=True))
    parser.add_argument("--isa", default="uve",
                        choices=("uve", "sve", "neon", "rvv"))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vector-bits", type=int, default=512)
    parser.add_argument("--listing", action="store_true",
                        help="print the assembled program")
    parser.add_argument("--list", action="store_true",
                        help="list all kernels (with lowering source) "
                             "and exit")
    args = parser.parse_args(argv)

    if args.list:
        print(list_kernels())
        return 0
    if args.kernel is None:
        parser.error("a kernel name is required (or use --list)")

    kernel = get_kernel(args.kernel)
    config = default_machine(args.isa).with_(vector_bits=args.vector_bits)
    wl = kernel.workload(seed=args.seed, scale=args.scale)
    try:
        program = kernel.build(args.isa, wl, args.vector_bits)
    except (ConfigError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.listing:
        print(program.listing())
        print()

    start = time.time()
    result = Simulator(program, wl.memory, config).run()
    wl.verify()
    wall = time.time() - start

    print(f"benchmark {kernel.letter}: {kernel.name} [{args.isa}] "
          f"(params {wl.params}, lowering {kernel.lowering_source()})")
    print(f"  verified against NumPy reference")
    print(f"  committed instructions : {result.committed}")
    print(f"  cycles                 : {result.cycles:.0f}")
    print(f"  IPC                    : {result.ipc:.2f}")
    print(f"  rename blocked         : {result.rename_blocks_per_cycle:.1%} "
          f"({result.timing.rename_block_causes})")
    print(f"  DRAM bus utilization   : {result.bus_utilization:.1%}")
    print(f"  branch mispredict rate : {result.timing.mispredict_rate:.2%}")
    engine = result.pipeline.engine
    if engine is not None:
        print(f"  engine line requests   : {engine.stats.line_requests}")
        print(f"  mean FIFO occupancy    : "
              f"{engine.stats.mean_fifo_occupancy:.1f}")
    print(f"  [simulated in {wall:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
