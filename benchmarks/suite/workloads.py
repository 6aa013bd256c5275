"""The suite's four workloads: inputs from a seed, one repeat, checks.

Every workload is a closed loop run in one process with no extra threads:
each campaign (or service run) finishes before the next starts.  A repeat
returns the raw ``(t0, t1)`` of every timed unit; the worker turns them
into metrics.  ``repro`` is imported inside the methods, so listing the
workloads needs nothing but this file.

Campaign seeds come from (``--seed``, repeat index, cell, slot) through
:func:`campaign_seed`, so no repeat reuses a seed from an earlier one and
a cache keyed on (module, seed) cannot win by repetition alone.  The
service workloads replay the *same* recorded window every repeat — the
catch-up after a loss of signal — which is what lets their histories be
checked for byte-identity across repeats.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median, quantiles
from typing import Any

#: Trials per module checked against the reference interpreter.
REFERENCE_TRIALS = 10
#: Trials per campaign of the warm-up repeat.
WARMUP_TRIALS = 10
RATE_HZ = 10.0
SPE_ONSET_S = 25.0
SEL_RATE_PER_BOARD_DAY = 400.0
#: Candidate seeds per campaign cell, written by ``seedpool.py``.
SEED_POOL = Path(__file__).with_name("seedpool.json")
#: A power of two, so bit reversal permutes each slot's candidates.
POOL_SIZE = 64


def derive_seed(*parts: object) -> int:
    """A 63-bit seed that is a pure function of ``parts``."""
    digest = hashlib.blake2b(
        "/".join(map(str, parts)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") >> 1


def pool_seed(label: str, k: int) -> int:
    """Candidate seed ``k`` of campaign cell ``label``."""
    return derive_seed("pool", label, k)


@functools.cache
def _pool_order() -> dict[str, list[int]]:
    return json.loads(SEED_POOL.read_text())["cells"]


def campaign_seed(run_seed: int, label: str, draw: int) -> int:
    """Seed of the ``draw``-th timed campaign of cell ``label`` in a run.

    At the engine's default fuel a trial that hangs runs 50 times as
    long as the golden run, so a campaign's time follows how many of
    its trials hang, and fresh random seeds made one run's trials/s move
    by 5-11 % with ``--seed`` alone.  Each cell therefore draws from
    :data:`POOL_SIZE` candidate seeds sorted by the campaign's simulated
    cycles (``seedpool.json``): draw ``d`` takes the candidate at the
    bit-reversed ``d`` (a van der Corput sequence) shifted by an offset
    from ``--seed``.  A run's first four draws hit each quarter of the
    cost order once, its first eight each eighth, and no candidate is
    drawn twice.  Warm-up draws (negative), draws past the pool and
    cells it lacks get a fresh derived seed.
    """
    order = _pool_order().get(label)
    if order is None or not 0 <= draw < POOL_SIZE:
        return derive_seed(run_seed, label, draw)
    bits = POOL_SIZE.bit_length() - 1
    position = int(f"{draw:0{bits}b}"[::-1], 2)
    offset = derive_seed(run_seed, label) % POOL_SIZE
    return pool_seed(label, order[(offset + position) % POOL_SIZE])


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def trial_line(trial) -> str:
    """Canonical text of one trial record (NaN-safe through ``repr``)."""
    spec = trial.spec
    return (
        f"{spec.target.value} {spec.dynamic_index} {spec.location} "
        f"{spec.bit} {trial.outcome.value} {trial.value!r} "
        f"{trial.rel_error!r} {trial.cycles}"
    )


@dataclass
class Repeat:
    """One closed-loop pass over a workload's inputs.

    Attributes:
        ops: operations offered (trials or frames).
        units: raw ``(t0, t1)`` of each timed call, in order.
        digest: SHA-256 of every simulated output of the repeat.
        refused: operations refused by design (shed frames).
        latency_s: the service's own decision-latency summary.
        problems: invariants this repeat broke on its own.
        outputs: what ``verify`` compares against an independent
            computation; the worker keeps it for the first timed repeat.
        group: consecutive units that draw from one sample (the seed
            slots of one campaign cell).
    """

    ops: int
    units: list[tuple[float, float]]
    digest: str
    group: int = 1
    refused: int = 0
    latency_s: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    outputs: Any = None


# -- campaigns -------------------------------------------------------------------


@dataclass
class CampaignInputs:
    seed: int
    #: (label, campaign) per program x protection-level cell.
    cells: list[tuple[str, Any]]


@dataclass(frozen=True)
class CampaignWorkload:
    """Serial campaigns over a program x protection-level grid."""

    name: str
    programs: tuple[str, ...]
    levels: tuple[str, ...]
    seeds_per_cell: int
    pruned: bool
    n_trials: int = 100
    unit: str = "trials"

    def record(self, seed: int, quick: bool) -> None:
        """Campaigns have no recorded input: seeds are drawn per repeat."""
        return None

    def setup(self, seed: int, quick: bool, recorded: None) -> CampaignInputs:
        """Build and instrument every module.

        Campaigns keep the engine's default fuel, so a trial that hangs
        runs to the engine's own watchdog as it does for every caller.
        """
        from repro.core.dmr import ProtectionLevel, instrument_module
        from repro.faults.campaign import Campaign
        from repro.workloads.irprograms import PROGRAMS, build_program

        programs = self.programs[:2] if quick else self.programs
        cells = []
        for program in programs:
            for level_name in self.levels:
                level = ProtectionLevel(level_name)
                module = build_program(program)
                if level is not ProtectionLevel.NONE:
                    module, _plans = instrument_module(module, level)
                cells.append((f"{program}@{level_name}", Campaign(
                    module=module, func_name=program,
                    args=PROGRAMS[program].default_args,
                    n_trials=10 if quick else self.n_trials,
                )))
        return CampaignInputs(seed=seed, cells=cells)

    def warm_up(self, inputs: CampaignInputs, clock) -> Repeat:
        """One short campaign per cell: fills the golden cache and the
        interpreter's compiled blocks for a tenth of a repeat's cost."""
        short = CampaignInputs(inputs.seed, [
            (label, replace(campaign, n_trials=WARMUP_TRIALS))
            for label, campaign in inputs.cells
        ])
        return self.repeat(short, -1, clock)

    def hooks(self, inputs: CampaignInputs):
        from benchmarks.suite.ledger import campaign_hooks

        return campaign_hooks()

    def repeat(self, inputs: CampaignInputs, index: int, clock,
               ledger=None) -> Repeat:
        import repro.faults.campaign as engine

        # Looked up per repeat so a traced repeat calls the wrapper.
        run = engine.run_campaign_pruned if self.pruned else engine.run_campaign
        # The index-th traced repeat draws, in every cell, the candidate
        # after the one the index-th untraced repeat draws in cost order
        # (cyclically: bit reversal maps d + POOL_SIZE/2 to d's position
        # + 1), so the two kinds run the same mix of work without sharing
        # a seed and their ratio is the tracing overhead alone.
        first = index * self.seeds_per_cell
        if ledger is not None:
            first += POOL_SIZE // 2
        units, lines, outputs = [], [], []
        for cell, (label, campaign) in enumerate(inputs.cells):
            for slot in range(self.seeds_per_cell):
                seed = campaign_seed(inputs.seed, label, first + slot)
                if ledger is not None:
                    ledger.op = f"r{index}/c{len(units)}"
                result, span = clock.time(run, campaign, seed=seed)
                units.append(span)
                outputs.append((cell, slot, seed, result))
                lines.append(f"{label} {seed}")
                lines.extend(trial_line(t) for t in result.trials)
        return Repeat(
            ops=sum(len(out[3].trials) for out in outputs),
            units=units,
            digest=sha256_lines(lines),
            group=self.seeds_per_cell,
            outputs=outputs,
        )

    def latencies_ms(self, repeats: list[Repeat], clock) -> dict[str, float]:
        """Campaign completion time in reference milliseconds.

        Each cell's median over every campaign it ran in ``repeats``,
        then percentiles over the cells, interpolated between the two
        nearest cells: a nearest-rank percentile is one cell's time
        alone, which moves with that cell's draws.
        """
        per_cell: dict[int, list[float]] = {}
        for repeat in repeats:
            for position, unit in enumerate(repeat.units):
                per_cell.setdefault(
                    position // self.seeds_per_cell, []
                ).append(clock.normalised(*unit) * 1e3)
        percentiles = quantiles(
            [median(values) for values in per_cell.values()],
            n=100, method="inclusive",
        )
        return {f"p{p}": percentiles[p - 1] for p in (50, 90, 99)}

    def verify(self, inputs: CampaignInputs, repeats: list[Repeat]):
        """Check the first repeat against an independent computation.

        Pruned: every slot-0 campaign equals the unpruned ``run_campaign``
        trial for trial.  Plain: the first :data:`REFERENCE_TRIALS` trials
        of every campaign equal a loop on the reference interpreter.
        Returns ``(failed trials, notes)``.
        """
        from repro.faults.campaign import run_campaign

        failed, checked = 0, 0
        notes = []
        for cell, slot, seed, result in repeats[0].outputs:
            label, campaign = inputs.cells[cell]
            if self.pruned:
                if slot:
                    continue
                expected = [trial_line(t) for t in
                            run_campaign(campaign, seed=seed).trials]
                got = [trial_line(t) for t in result.trials]
            else:
                expected = _reference_trials(campaign, seed, result.golden)
                got = [trial_line(t) for t in result.trials][:len(expected)]
            bad = sum(a != b for a, b in zip(expected, got))
            bad += abs(len(expected) - len(got))
            checked += len(expected)
            failed += bad
            if bad:
                notes.append(f"{label} seed {seed}: {bad} trials differ")
        oracle = ("unpruned run_campaign" if self.pruned
                  else "the reference interpreter")
        notes.insert(0, f"{checked - failed}/{checked} trials match {oracle}")
        return failed, notes


def _reference_trials(campaign, seed: int, golden) -> list[str]:
    """The first trials of ``campaign`` run on ``ReferenceInterpreter``.

    A golden run that disagrees with the engine's marks every checked
    trial as differing.
    """
    from repro.faults.campaign import (
        classify_trial,
        make_injector,
        trial_fuel_for,
    )
    from repro.ir.refinterp import ReferenceInterpreter
    from repro.rng import fork, make_rng

    n = min(REFERENCE_TRIALS, campaign.n_trials)
    ref_golden = ReferenceInterpreter(
        campaign.module, cost_model=campaign.cost_model, fuel=campaign.fuel
    ).run(campaign.func_name, list(campaign.args))
    if (ref_golden.status, repr(ref_golden.value), ref_golden.cycles,
            ref_golden.instructions) != (golden.status, repr(golden.value),
                                         golden.cycles, golden.instructions):
        return ["golden run differs"] * n
    trial_fuel = trial_fuel_for(campaign, ref_golden)
    lines = []
    for trial_rng in fork(make_rng(seed), campaign.n_trials)[:n]:
        injector = make_injector(campaign, ref_golden, trial_rng)
        result = ReferenceInterpreter(
            campaign.module, cost_model=campaign.cost_model,
            fuel=trial_fuel, step_hook=injector,
        ).run(campaign.func_name, list(campaign.args))
        lines.append(trial_line(
            classify_trial(campaign, ref_golden, injector, result)
        ))
    return lines


# -- mission-control service -----------------------------------------------------


@dataclass
class ServiceInputs:
    detector: Any
    rows: Any
    member_seed: int
    boards: int
    ticks: int


@dataclass(frozen=True)
class ServiceWorkload:
    """``AsyncFleetService`` replaying one recorded storm window.

    ``lossless`` workloads keep every queue below capacity, so their
    history must equal the synchronous ``run_replay_reference``.
    """

    name: str
    boards: int
    ticks: int
    shards: int
    queue_capacity: int
    inflight: int
    lossless: bool
    unit: str = "frames"

    def record(self, seed: int, quick: bool) -> ServiceInputs:
        """The storm window the boards downlink, without a detector.

        This is the benchmark's input, telemetry the fleet simulator
        makes in place of the spacecraft, so it is made once per run
        and not timed (about 6 s on the sizing host).
        """
        from repro.service import make_members, record_fleet_telemetry
        from repro.service.loadgen import storm_timeline

        boards, ticks = (8, 300) if quick else (self.boards, self.ticks)
        member_seed = derive_seed(seed, "members") % 1_000_000
        rows = record_fleet_telemetry(
            make_members(boards, seed=member_seed),
            duration_s=ticks / RATE_HZ,
            rate_hz=RATE_HZ,
            timeline=storm_timeline(
                seed=derive_seed(seed, "storm"), onset_s=SPE_ONSET_S
            ),
            sel_rate_per_board_day=SEL_RATE_PER_BOARD_DAY,
            timeline_seed=derive_seed(seed, "latchups"),
        )
        return ServiceInputs(None, rows, member_seed, boards, ticks)

    def setup(self, seed: int, quick: bool,
              recorded: ServiceInputs) -> ServiceInputs:
        """Train the detector the service scores ``recorded`` with."""
        from repro.core.sel import SelTrialConfig, train_detector_on_clean_trace
        from repro.detect import ResidualCusumDetector

        detector = train_detector_on_clean_trace(
            ResidualCusumDetector(h_sigma=40.0),
            SelTrialConfig(train_duration_s=60.0),
            seed=derive_seed(seed, "detector"),
        )
        return replace(recorded, detector=detector)

    def warm_up(self, inputs: ServiceInputs, clock) -> Repeat:
        """One untimed service run."""
        return self.repeat(inputs, -1, clock)

    def hooks(self, inputs: ServiceInputs):
        from benchmarks.suite.ledger import service_hooks

        return service_hooks(type(inputs.detector))

    def repeat(self, inputs: ServiceInputs, index: int, clock,
               ledger=None) -> Repeat:
        from repro.detect import FleetConfig
        from repro.service import (
            AsyncFleetService,
            ReplaySource,
            ServiceConfig,
            ShedPolicy,
            make_members,
        )

        service = AsyncFleetService(
            inputs.detector,
            make_members(inputs.boards, seed=inputs.member_seed),
            config=FleetConfig(),
            service=ServiceConfig(
                n_shards=self.shards,
                strategy="sequential",
                queue_capacity=self.queue_capacity,
                shed_policy=ShedPolicy.DROP_OLDEST,
                max_inflight_ticks=self.inflight,
            ),
            source=ReplaySource(inputs.rows),
        )
        if ledger is not None:
            ledger.op = f"r{index}"
        report, span = clock.time(
            service.run, duration_s=inputs.ticks / RATE_HZ, rate_hz=RATE_HZ
        )
        history = (
            service.alarm_times(),
            service.reboot_times(),
            service.health_rollup().merge_key(),
        )
        counters = report.shard_counters
        return Repeat(
            ops=inputs.boards * inputs.ticks,
            units=[span],
            digest=sha256_lines([repr(history), repr(counters)]),
            refused=report.rows_shed,
            latency_s=report.latency,
            problems=[
                f"shard {shard} loses frames: {c}"
                for shard, c in enumerate(counters)
                if c["arrivals"] != c["processed"] + c["shed"] + c["queued"]
            ],
            outputs=history,
        )

    def latencies_ms(self, repeats: list[Repeat], clock) -> dict[str, float]:
        """Enqueue-to-decision latency in reference milliseconds: each
        percentile's median over ``repeats``."""
        return {
            f"p{p}": median([
                repeat.latency_s[f"p{p}"] / clock.factor(*repeat.units[0])
                for repeat in repeats
            ]) * 1e3
            for p in (50, 90, 99)
        }

    def verify(self, inputs: ServiceInputs, repeats: list[Repeat]):
        """Conservation per shard, one digest across repeats and, when
        lossless, equality with the synchronous reference.

        Returns ``(failed frames, notes)``.
        """
        from repro.service import make_members, run_replay_reference

        first = repeats[0]
        off_reference = False
        if self.lossless:
            reference = run_replay_reference(
                inputs.detector,
                make_members(inputs.boards, seed=inputs.member_seed),
                inputs.rows,
                rate_hz=RATE_HZ,
            )
            off_reference = first.refused > 0 or first.outputs != (
                reference.alarm_times, reference.reboot_times,
                reference.health.merge_key(),
            )
        failed = 0
        notes = []
        for index, repeat in enumerate(repeats):
            problems = list(repeat.problems)
            if repeat.digest != first.digest:
                problems.append("history digest differs from repeat 0")
            elif off_reference:
                problems.append("history differs from run_replay_reference")
            if problems:
                failed += repeat.ops
                notes.append(f"repeat {index}: " + "; ".join(problems))
        alarms = sum(len(v) for v in first.outputs[0].values())
        reboots = sum(len(v) for v in first.outputs[1].values())
        checks = "frames conserved per shard, one shared digest"
        if self.lossless:
            checks += ", equal to run_replay_reference"
        notes.insert(0, (
            f"{len(repeats) - len(notes)}/{len(repeats)} repeats pass "
            f"({checks}); {alarms} alarms, {reboots} reboots, "
            f"{first.refused} shed per repeat"
        ))
        return failed, notes


WORKLOADS = {
    workload.name: workload
    for workload in (
        CampaignWorkload(
            "campaign-plain",
            programs=("isort", "orbit", "dot", "checksum"),
            levels=("none", "full-dmr"),
            seeds_per_cell=1,
            pruned=False,
        ),
        CampaignWorkload(
            "campaign-pruned",
            programs=("fact", "gcd", "checksum", "dot", "horner",
                      "fmul_chain"),
            levels=("none", "bb-cfi", "full-dmr"),
            seeds_per_cell=2,
            pruned=True,
        ),
        ServiceWorkload(
            "service-replay", boards=64, ticks=1000, shards=1,
            queue_capacity=64, inflight=8, lossless=True,
        ),
        ServiceWorkload(
            "service-overload", boards=128, ticks=500, shards=2,
            queue_capacity=8, inflight=10, lossless=False,
        ),
    )
}
