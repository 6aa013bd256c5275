"""Soundness gate for the fault-masking prover.

The central acceptance test of the masking analysis: for every gate
workload, at every protection level, replay the golden run once to
enumerate each static injection point's live sites, classify every
(site, bit) the analysis claims PROVEN_BENIGN, and *actually inject*
each claim through the reference interpreter.  A single claim producing
SDC, CRASH or HANG falsifies the analysis.

Claims in ``EXACT_BENIGN`` are held to the stronger contract the trial
pruner relies on: the faulted run must be bit-identical to the golden
run (same value, cycles and instruction count) — that is what lets
``run_campaign_pruned`` reconstruct the trial record without executing.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.masking import (
    EXACT_BENIGN,
    PROVEN_BENIGN,
    MaskClass,
    analyze_masking,
)
from repro.core.dmr import ProtectionLevel, instrument_module
from repro.faults.model import FaultSpec, FaultTarget
from repro.faults.outcomes import FaultOutcome, classify
from repro.faults.seu import RegisterFaultInjector
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.refinterp import ReferenceInterpreter
from repro.ir.types import INT64
from repro.workloads.irprograms import build_program

#: Gate workloads with deliberately small arguments: the gate injects
#: hundreds of faults per program, each a full reference-interpreter run.
WORKLOADS = {
    "fact": (5,),
    "gcd": (21, 6),
    "checksum": (8,),
    "dot": (6,),
    "horner": (2.5, 4),
    "fmul_chain": (3.7, 1.9),
}

LEVELS = (ProtectionLevel.NONE, ProtectionLevel.FULL_DMR)

GATE_FUEL = 2_000_000


class _SiteRecorder:
    """Step hook recording each static point's first firing opportunity.

    For every (func, block, body_index) body instruction reached with a
    non-empty environment, records the dynamic index of its first
    occurrence and the live site names at that moment — exactly the
    opportunities a register injector can resolve at.
    """

    def __init__(self, module: Module) -> None:
        self._points: dict[int, tuple[str, str, int]] = {}
        for func in module:
            for block in func.blocks:
                for body_index, instr in enumerate(block.body):
                    self._points[id(instr)] = (
                        func.name, block.name, body_index
                    )
        self.seen: dict[tuple[str, str, int], tuple[int, tuple[str, ...]]] = {}

    def __call__(self, interp, frame, instr, dynamic_index: int) -> None:
        if not frame.env:
            return
        point = self._points.get(id(instr))
        if point is None or point in self.seen:
            return
        self.seen[point] = (dynamic_index, tuple(sorted(frame.env)))


def _sample_bits(bits: list[int], mask_class: MaskClass) -> list[int]:
    """Bits to actually inject for one (site, class) group.

    MASKED_BITS claims are bit-specific (each bit's benignity has its own
    proof), so every one is injected.  The other classes are uniform over
    the site — first / middle / last bits exercise the boundaries.
    """
    if mask_class is MaskClass.MASKED_BITS or len(bits) <= 3:
        return bits
    return sorted({bits[0], bits[len(bits) // 2], bits[-1]})


def _inject(module, func_name, args, dyn, site, bit):
    spec = FaultSpec(
        target=FaultTarget.REGISTER, dynamic_index=dyn, location=site, bit=bit
    )
    injector = RegisterFaultInjector(spec)
    result = ReferenceInterpreter(
        module, fuel=GATE_FUEL, step_hook=injector
    ).run(func_name, list(args))
    assert injector.fired, f"gate injector never fired for {spec}"
    return result


@pytest.mark.parametrize("level", LEVELS, ids=lambda lv: lv.value)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_proven_benign_claims_hold_under_injection(name, level):
    args = WORKLOADS[name]
    module = build_program(name)
    if level is not ProtectionLevel.NONE:
        module, _plans = instrument_module(module, level)
    func_name = next(iter(module)).name

    golden = ReferenceInterpreter(module, fuel=GATE_FUEL).run(
        func_name, list(args)
    )
    assert golden.ok

    recorder = _SiteRecorder(module)
    replay = ReferenceInterpreter(
        module, fuel=GATE_FUEL, step_hook=recorder
    ).run(func_name, list(args))
    assert replay.ok and replay.instructions == golden.instructions

    report = analyze_masking(module)
    checked = 0
    for (func, block, body_index), (dyn, sites) in sorted(recorder.seen.items()):
        fm = report.for_function(func)
        assert fm is not None
        for site in sites:
            by_class: dict[MaskClass, list[int]] = {}
            for bit in range(fm.width_of(site)):
                cls = fm.classify(block, body_index, site, bit)
                if cls in PROVEN_BENIGN:
                    by_class.setdefault(cls, []).append(bit)
            for cls, bits in by_class.items():
                for bit in _sample_bits(bits, cls):
                    result = _inject(module, func_name, args, dyn, site, bit)
                    outcome, _err = classify(result, golden.value)
                    where = (
                        f"{name}/{level.value} @{func} {block}[{body_index}] "
                        f"%{site} bit {bit} ({cls.value})"
                    )
                    assert outcome in (
                        FaultOutcome.BENIGN, FaultOutcome.DETECTED
                    ), f"unsound claim: {where} -> {outcome.value}"
                    if cls in EXACT_BENIGN:
                        assert outcome is FaultOutcome.BENIGN, where
                        assert result.value == golden.value, where
                        assert result.cycles == golden.cycles, where
                        assert result.instructions == golden.instructions, where
                    checked += 1
    assert checked > 0, f"no PROVEN_BENIGN claims exercised for {name}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_have_proven_benign_mass(name):
    """The analysis proves a useful fraction of each workload's sites."""
    module = build_program(name)
    report = analyze_masking(module)
    fm = report.for_function(next(iter(module)).name)
    proven = sum(n for cls, n in fm.counts.items() if cls in PROVEN_BENIGN)
    total = sum(fm.counts.values())
    assert total > 0
    assert proven / total > 0.10
    assert 0.0 <= fm.avf_upper_bound <= 1.0
    assert fm.avf_upper_bound == pytest.approx(
        fm.counts[MaskClass.POSSIBLY_ACE] / total
    )


def _masked_bits_module() -> Module:
    """A program whose high bits are provably masked by a literal AND.

    The gate workloads never mask with literal constants, so the
    MASKED_BITS class is exercised synthetically: every bit of ``%wide``
    above bit 7 is demanded by nothing — ``and %wide, 255`` strips it.
    """
    module = Module("masked")
    func = Function("f", [("a", INT64)], INT64)
    module.add_function(func)
    b = IRBuilder(func)
    b.set_block(func.add_block("entry"))
    wide = b.mul(func.args[0], b.i64(2654435761))
    low = b.and_(wide, b.i64(255))
    b.ret(b.add(low, b.i64(1)))
    return module


def test_masked_bits_class_is_proven_and_sound():
    module = _masked_bits_module()
    report = analyze_masking(module)
    fm = report.for_function("f")
    assert fm.counts[MaskClass.MASKED_BITS] > 0

    golden = ReferenceInterpreter(module, fuel=GATE_FUEL).run("f", [12345])
    recorder = _SiteRecorder(module)
    ReferenceInterpreter(module, fuel=GATE_FUEL, step_hook=recorder).run(
        "f", [12345]
    )
    masked_seen = 0
    for (func, block, body_index), (dyn, sites) in sorted(recorder.seen.items()):
        for site in sites:
            for bit in range(fm.width_of(site)):
                if (
                    fm.classify(block, body_index, site, bit)
                    is not MaskClass.MASKED_BITS
                ):
                    continue
                masked_seen += 1
                result = _inject(module, "f", [12345], dyn, site, bit)
                assert result.value == golden.value
                assert result.cycles == golden.cycles
    assert masked_seen > 0


def test_report_shapes():
    module = build_program("gcd")
    report = analyze_masking(module)
    data = report.as_dict()
    assert data["module"] == module.name
    assert set(data["functions"]) == {f.name for f in module}
    for entry in data["functions"].values():
        assert set(entry["counts"]) <= {c.value for c in MaskClass}
        assert 0.0 <= entry["avf_upper_bound"] <= 1.0
    text = report.render()
    assert "gcd" in text and "avf" in text.lower()


#: SHA-256 of ``json.dumps(report.as_dict(), sort_keys=True)`` for E17's
#: programs at each of its levels, taken before the census (counts,
#: class_counts, AVF bound) moved to first read.  Computing it lazily
#: must not change a single number.
CENSUS_DIGESTS = [
    ("fact", "none", "dd30e77e7296736b3ec8bea859a207810b581fe5f74b8286e02e3421222af6b5"),
    ("fact", "bb-cfi", "1b49136c720259bdfbd4007df41770c7b938c0449b173d8340538d14aae4f50f"),
    ("fact", "full-dmr", "d7399865d4a00ee77ffdcb5e77b57bfff6823c8290e2e05378322f2c518ea042"),
    ("gcd", "none", "ae5ef7731ae6ccc35e81739ab5beaa6492c30eaf24b4d28215be960efe43c1b3"),
    ("gcd", "bb-cfi", "6d68a197d876662223fd0c7566dba43d6191da5fa682d6320924cda64f16de1f"),
    ("gcd", "full-dmr", "1b855b9cf87f0e41ae40a35adbcca91f18056720ff91e84180d2bd6ee5b80c23"),
    ("checksum", "none", "55e28b0ddc8f406aa5cf06cdf66b69cdbe990cdc60b1dd65fd8101d98a83b516"),
    ("checksum", "bb-cfi", "bc87c66a88f22a033cb2628431cab701397b3ae17b0d9f39822b478573f7f740"),
    ("checksum", "full-dmr", "9ea87ed427f27b928fac2e7bac8c5e462817186e026885c3f902041b0f2107f0"),
    ("dot", "none", "926d73cf92baa8e4b503d0780791e2e37f99388dc194cac17cecd8dac451ba84"),
    ("dot", "bb-cfi", "a3f0ef2d2f9b43ccc655970261e44148fb2c6391f12da7ac7ee889cc5f1f6b61"),
    ("dot", "full-dmr", "26f58b508ce9d828713269f1b4b96099022773e6de09fb5e17623f0a75ad297f"),
    ("horner", "none", "fadcd45d567be277eac2bde56072bac1cbd0648da985e6349ca6ce0855671514"),
    ("horner", "bb-cfi", "28ceb52d5425e375183ec53079b0e3196a8adbb988447817c2d26d7b7dedb16e"),
    ("horner", "full-dmr", "0047d57b242ed1c5ce80ba815c503b3a7bdb12a76f9a7b0537d251698a3dbde6"),
    ("fmul_chain", "none", "2c51a6873169dcb4f74d15bd65ed0eaa73618d5a8ff1a0509f54681ca4d71277"),
    ("fmul_chain", "bb-cfi", "c69b954e12d61612f951df15652d6d4077faf0832c0510c576bfd93eac28b412"),
    ("fmul_chain", "full-dmr", "992db53e68c401601bd26cd73aef9ef8147906483c5be0cc44911398dabb7a20"),
]


@pytest.mark.parametrize("name,level,digest", CENSUS_DIGESTS)
def test_census_is_pinned(name, level, digest):
    module = build_program(name)
    if level != ProtectionLevel.NONE.value:
        module, _plans = instrument_module(module, ProtectionLevel(level))
    data = json.dumps(analyze_masking(module).as_dict(), sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == digest
