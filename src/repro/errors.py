"""Exception hierarchy for the UVE reproduction.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch a single type at the public-API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DescriptorError(ReproError):
    """Malformed or over-limit stream descriptor configuration."""


class StreamError(ReproError):
    """Illegal stream operation (e.g. reading a finished stream)."""


class IsaError(ReproError):
    """Malformed instruction, operand, or program."""


class AssemblerError(IsaError):
    """Syntax or semantic error in UVE assembly text."""


class EncodingError(IsaError):
    """Instruction cannot be encoded/decoded to/from its binary form."""


class ExecutionError(ReproError):
    """Functional simulator detected an illegal execution."""


class MemoryAccessError(ReproError):
    """Access outside the simulated physical memory."""


class PageFaultError(MemoryAccessError):
    """Virtual address touched an unmapped page."""


class ConfigError(ReproError):
    """Inconsistent simulator configuration."""


class SimulationError(ReproError):
    """The timing model stopped making progress (a wedged run)."""


class IRError(ReproError):
    """Structurally invalid loop-nest IR (see ``repro.ir.validate``)."""


class LoweringError(ReproError):
    """A backend cannot express a (valid) IR nest on its ISA."""
