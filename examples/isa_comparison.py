"""ISA comparison: one kernel, three instruction sets, full timing.

Runs the jacobi-2d stencil on the UVE machine and on the baseline core
with the SVE-like and NEON-like ISAs, then prints a miniature version of
the paper's Fig. 8 row for this benchmark.

    python examples/isa_comparison.py [kernel-name]
"""
import sys

from repro.cpu.config import default_machine
from repro.kernels import get_kernel, kernel_names
from repro.sim.simulator import Simulator


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "jacobi-2d"
    kernel = get_kernel(name)
    print(f"benchmark {kernel.letter}: {kernel.name} ({kernel.domain}), "
          f"pattern {kernel.pattern}")
    if not kernel.sve_vectorized:
        print("  (starred benchmark: the baselines run scalar code)")
    print(f"  available kernels: {', '.join(kernel_names())}\n")

    results = {}
    for isa in ("uve", "sve", "neon"):
        config = default_machine(isa)
        wl = kernel.workload(seed=0)
        program = kernel.build(isa, wl, config.vector_bits)
        result = Simulator(program, wl.memory, config).run()
        wl.verify()
        results[isa] = result
        print(f"{isa:5s}: {result.committed:>9d} instructions  "
              f"{result.cycles:>10.0f} cycles  IPC {result.ipc:4.2f}  "
              f"bus {result.bus_utilization:5.1%}  "
              f"rename-blocked {result.rename_blocks_per_cycle:5.1%}")

    u, s, n = results["uve"], results["sve"], results["neon"]
    print()
    print(f"speed-up vs SVE : {s.cycles / u.cycles:5.2f}x   "
          f"(paper average on vectorized benchmarks: 2.4x)")
    print(f"speed-up vs NEON: {n.cycles / u.cycles:5.2f}x")
    print(f"instruction reduction vs SVE : {1 - u.committed / s.committed:6.1%}"
          f"  (paper average: 60.9%)")
    print(f"instruction reduction vs NEON: {1 - u.committed / n.committed:6.1%}"
          f"  (paper average: 93.2%)")


if __name__ == "__main__":
    main()
