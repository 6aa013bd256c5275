"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Base class for errors in the IR substrate."""


class IRTypeError(IRError):
    """An IR value or instruction was used with an incompatible type."""


class IRVerificationError(IRError):
    """The IR module violates a structural invariant (SSA, CFG, types)."""


class IRParseError(IRError):
    """Textual IR could not be parsed."""


class InterpreterError(ReproError):
    """The IR interpreter encountered an unrecoverable condition."""


class TrapError(InterpreterError):
    """The interpreted program executed a trap (e.g. division by zero)."""


class DetectionTrap(TrapError):
    """A protection pass's check fired: an injected error was detected."""


class FuelExhausted(InterpreterError):
    """Execution exceeded its instruction budget (likely a hang)."""


class WatchdogTimeout(FuelExhausted):
    """A supervisor watchdog expired before the task made progress.

    Subclasses :class:`FuelExhausted` so the interpreter classifies a
    watchdog bite as a hang; the machine emulator catches it separately.
    """


class MachineError(ReproError):
    """Base class for errors in the machine emulator."""


class InvalidInstruction(MachineError):
    """The emulator decoded an instruction it cannot execute."""


class MemoryFault(MachineError):
    """An access touched an unmapped or misaligned machine address."""


class MachineHalted(MachineError):
    """An operation was attempted on a halted machine."""


class AssemblerError(MachineError):
    """Assembly source could not be assembled."""


class EccError(ReproError):
    """Base class for ECC codec errors."""


class UncorrectableError(EccError):
    """The codeword contains more errors than the code can correct."""


class MemError(ReproError):
    """Base class for errors in the paged-memory substrate."""


class PageFault(MemError):
    """An access referenced an unmapped page."""


class HardwareError(ReproError):
    """Base class for errors in the hardware models."""


class DeviceDestroyed(HardwareError):
    """The simulated device suffered permanent (thermal/latch-up) damage."""


class DetectorError(ReproError):
    """An anomaly detector was misused (e.g. scored before fitting)."""


class ConfigError(ReproError):
    """A component received an invalid configuration value."""


class FaultInjectionError(ReproError):
    """A fault could not be injected as specified."""


class RecoveryError(ReproError):
    """The recovery subsystem was misused or could not proceed."""


class CheckpointError(RecoveryError):
    """A checkpoint could not be taken, verified, or restored."""


class ServiceError(ReproError):
    """The mission-control service was misused or failed internally."""


class ShardCrashed(ServiceError):
    """A shard scorer was lost mid-run (recoverable via snapshot restore)."""
