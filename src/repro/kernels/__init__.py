"""The 19 evaluation kernels (paper §V, Fig. 8) plus extensions."""
from repro.kernels.base import ALL_ISAS, ISAS, Kernel, Workload
from repro.kernels.registry import (
    all_kernels,
    get_kernel,
    kernel_names,
    unsupported_isas,
)

__all__ = [
    "ALL_ISAS",
    "ISAS",
    "Kernel",
    "Workload",
    "all_kernels",
    "get_kernel",
    "kernel_names",
    "unsupported_isas",
]
