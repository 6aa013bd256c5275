"""Fault injection: SEU bit flips and SEL current events.

This package is the library's stand-in for the paper's QEMU fault-injection
framework (sect. 4.2): faults are injected *between instructions* into live
register state or heap memory, at a precisely controlled dynamic instruction
index, and each run's outcome is classified against a golden execution.
"""

from repro.faults.model import (
    FaultTarget,
    FaultSpec,
    flip_int_bit,
    flip_float_bit,
    flip_value_bit,
    float_bit_class,
)
from repro.faults.outcomes import FaultOutcome, TrialResult, OutcomeCounts
from repro.faults.seu import RegisterFaultInjector, HeapFaultInjector
from repro.faults.campaign import (
    Campaign,
    CampaignResult,
    PlannedTrial,
    PrunedTrials,
    TimelineCampaignResult,
    prune_masked_trials,
    run_campaign,
    run_campaign_pruned,
    run_timeline_campaign,
)
from repro.faults.sel import LatchupEvent, LatchupGenerator

__all__ = [
    "FaultTarget", "FaultSpec",
    "flip_int_bit", "flip_float_bit", "flip_value_bit", "float_bit_class",
    "FaultOutcome", "TrialResult", "OutcomeCounts",
    "RegisterFaultInjector", "HeapFaultInjector",
    "Campaign", "CampaignResult", "run_campaign",
    "PlannedTrial", "PrunedTrials",
    "prune_masked_trials", "run_campaign_pruned",
    "TimelineCampaignResult", "run_timeline_campaign",
    "LatchupEvent", "LatchupGenerator",
]
