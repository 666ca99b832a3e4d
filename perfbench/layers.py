"""Per-layer metrics of a traced run, from cProfile statistics.

Inside ``Pipeline.run`` the timing core, Streaming Engine, memory
hierarchy, functional simulator and stream iterators interleave every
cycle, so no call boundary separates them.  Their host time is split by
cProfile *self time grouped by package* (``repro.<package>``).  The
profiler runs with ``builtins=False``, so time in C functions (list and
dict methods, NumPy ufuncs) stays with the Python function that called
them; the self time of Python functions outside ``repro`` (NumPy's
Python layer, the standard library) goes to the package of their
caller.

The named public calls (``Kernel.workload``, ``Kernel.build``,
``Workload.verify``, the two functional passes, the result cache, the
fuzz generator and reference) are measured as cumulative time at the
call boundary, counted only where the call enters the group from
outside it, so nested members are not counted twice.
"""
from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

Func = Tuple[str, int, str]  # pstats key: (filename, line, function name)
Stats = Dict[Func, tuple]

#: the packages under ``src/repro`` whose self time is reported; files
#: directly under ``repro/`` count as ``common``.
PACKAGES = (
    "cpu", "engine", "memory", "streams", "sim", "isa", "lower", "ir",
    "kernels", "harness", "fuzz", "common",
)
#: the benchmark's own code (the op closures around the public calls)
BENCH = "bench"
#: Python code outside repro whose caller is outside repro as well
EXTERNAL = "ext"

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _module(func: Func) -> Tuple[str, str]:
    """``(package, file stem)`` of a profiled function; package is one of
    PACKAGES, BENCH or EXTERNAL."""
    filename = func[0]
    if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
        return BENCH, ""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return EXTERNAL, ""
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    stem = rest[-1][:-3] if rest[-1].endswith(".py") else rest[-1]
    if len(rest) == 1:
        return "common", stem
    return (rest[0] if rest[0] in PACKAGES else "common"), stem


def package_self_times(stats: Stats) -> Dict[str, float]:
    """Self time per package; external functions' self time is charged
    to the package of each caller (by that caller's share)."""
    out = {name: 0.0 for name in PACKAGES + (BENCH, EXTERNAL)}
    for func, (_, _, tt, _, callers) in stats.items():
        package = _module(func)[0]
        if package != EXTERNAL or not callers:
            out[package] += tt
            continue
        for caller, (_, _, caller_tt, _) in callers.items():
            out[_module(caller)[0]] += caller_tt
    return out


def entered_time(
    stats: Stats,
    member: Callable[[Func], bool],
    caller_ok: Optional[Callable[[Func], bool]] = None,
) -> float:
    """Cumulative time of the functions ``member`` selects, counted
    where they are called from outside the group (and, if given, from a
    caller ``caller_ok`` accepts)."""
    total = 0.0
    for func, (_, _, _, _, callers) in stats.items():
        if not member(func):
            continue
        for caller, (_, _, _, caller_ct) in callers.items():
            if member(caller):
                continue
            if caller_ok is not None and not caller_ok(caller):
                continue
            total += caller_ct
    return total


def _is(package: str, stem: str, *names: str) -> Callable[[Func], bool]:
    def match(func: Func) -> bool:
        return _module(func) == (package, stem) and (
            not names or func[2] in names
        )
    return match


def _numpy(name: str) -> Callable[[Func], bool]:
    def match(func: Func) -> bool:
        return func[2] == name and "numpy" in func[0]
    return match


def named_call_times(stats: Stats) -> Dict[str, float]:
    """Host time of each named public call, in seconds."""
    functional_run = _is("sim", "functional", "run")

    def kernel_workload(func: Func) -> bool:
        return _module(func)[0] == "kernels" and func[2] == "workload"

    def build(func: Func) -> bool:
        return (
            _is("kernels", "base", "build")(func)
            or (_module(func)[0] == "kernels"
                and func[2] == "build_uve_unrolled")
            or _is("fuzz", "lowering", "lower")(func)
        )

    def oracle_compare(func: Func) -> bool:
        return _is("fuzz", "oracle", "_outputs_match", "_diff_detail")(func)

    return {
        "kernels.workload_s": entered_time(stats, kernel_workload),
        "kernels.verify_s": entered_time(
            stats, _is("kernels", "base", "verify")
        ),
        "lower.build_s": entered_time(stats, build),
        "sim.functional_s": entered_time(stats, functional_run),
        # pass 2: the trace generator resumed by the timing pipeline
        "sim.trace_s": entered_time(
            stats, _is("sim", "functional", "trace"),
            caller_ok=lambda caller: not functional_run(caller),
        ),
        "harness.fingerprint_s": entered_time(
            stats, _is("harness", "fingerprint")
        ),
        "harness.cache_store_s": entered_time(
            stats, _is("harness", "diskcache", "store")
        ),
        "harness.cache_load_s": entered_time(
            stats, _is("harness", "diskcache", "load")
        ),
        "fuzz.generate_s": entered_time(
            stats, _is("fuzz", "generator", "generate_spec")
        ),
        "fuzz.reference_s": entered_time(
            stats, _is("fuzz", "reference", "materialize")
        ),
        # the oracle's output comparisons plus its stray-write scans
        "fuzz.compare_s": entered_time(stats, oracle_compare)
        + entered_time(
            stats, _numpy("array_equal"),
            caller_ok=_is("fuzz", "oracle", "run_case"),
        ),
    }
