"""repro: software protection against space radiation.

A complete reproduction of the systems proposed in "Mars Attacks! Software
Protection Against Space Radiation" (HotNets '23): SEL detection from
software-extractable metrics, tunable double modular redundancy, quantized
data-flow checking, coprocessor-based memory scrubbing, a static SEU risk
analysis — plus every substrate they need (an SSA compiler IR, a machine
emulator with cache plugin and fault port, ECC codecs, paged memory, a
hardware power/thermal model, anomaly detectors, and a radiation
environment model).

Quickstart::

    from repro import ProtectedProgram, ProtectionLevel, build_program

    module = build_program("fact")
    prog = ProtectedProgram(module, "fact", ProtectionLevel.BB_CFI)
    print(prog.overhead((12,)))           # cycle overhead factor
    print(prog.campaign((12,)).counts)    # fault-injection outcomes
"""

__version__ = "1.0.0"

# The paper's contributions.
from repro.core.dmr import ProtectedProgram, ProtectionLevel, instrument_module
from repro.core.quantize import QuantizedProgram, instrument_quantized
from repro.core.risk import rate_function, rate_blocks, rate_sccs, rate_module
from repro.core.sel import (
    SelDaemon, DaemonConfig, SelTrialConfig, SelFleetService, FleetMember,
    run_detection_trial, train_detector_on_clean_trace,
)
from repro.core.scrubber import (
    ScrubSimConfig, run_scrub_simulation, KernelScrubModule,
)

# Workloads and fault injection.
from repro.workloads import PROGRAMS, build_program, build_suite, golden_run
from repro.faults import (
    Campaign, run_campaign, FaultTarget, FaultOutcome, FaultSpec,
)
from repro.perf import GOLDEN_CACHE, module_fingerprint

# Recovery & supervision.
from repro.recover import (
    AdaptiveConfig, AdaptiveController, CheckpointManager, EscalationLadder,
    LadderConfig, RecoveryParams, RecoveryRung, Supervisor, SupervisorConfig,
    run_supervised_campaign,
)

# Mission-level simulation.
from repro.sim import (
    MissionConfig, ProtectionProfile, run_mission, render_mission_table,
    UNPROTECTED_COMMODITY, PROTECTED_COMMODITY, RAD_HARD_BASELINE,
    SUPERVISED_COMMODITY,
)

__all__ = [
    "__version__",
    # core
    "ProtectedProgram", "ProtectionLevel", "instrument_module",
    "QuantizedProgram", "instrument_quantized",
    "rate_function", "rate_blocks", "rate_sccs", "rate_module",
    "SelDaemon", "DaemonConfig", "SelTrialConfig",
    "SelFleetService", "FleetMember",
    "run_detection_trial", "train_detector_on_clean_trace",
    "ScrubSimConfig", "run_scrub_simulation", "KernelScrubModule",
    # workloads / faults
    "PROGRAMS", "build_program", "build_suite", "golden_run",
    "Campaign", "run_campaign", "FaultTarget", "FaultOutcome",
    "FaultSpec", "GOLDEN_CACHE", "module_fingerprint",
    # recovery
    "AdaptiveConfig", "AdaptiveController", "CheckpointManager",
    "EscalationLadder", "LadderConfig", "RecoveryParams", "RecoveryRung",
    "Supervisor", "SupervisorConfig", "run_supervised_campaign",
    # mission
    "MissionConfig", "ProtectionProfile", "run_mission",
    "render_mission_table",
    "UNPROTECTED_COMMODITY", "PROTECTED_COMMODITY", "RAD_HARD_BASELINE",
    "SUPERVISED_COMMODITY",
]
