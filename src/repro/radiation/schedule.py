"""Environment timeline: a seeded, piecewise phase schedule for a mission.

The static :class:`~repro.radiation.environment.Environment` answers "what
is the rate multiplier right now?" from a frozen configuration; campaigns
and the fleet service that want *environment-driven* fault arrivals need
more: a deterministic schedule of QUIET orbit, South Atlantic Anomaly
passes and solar particle events (SPEs) over mission time, with
per-subsystem rate modulation and an exact integrator so expected event
counts — and non-homogeneous Poisson thinning — follow from it.

Structure of the model:

* **SAA passes** come from :class:`~repro.radiation.orbit.LeoOrbit`
  geometry (deterministic, periodic).
* **SPE onsets** are a homogeneous Poisson process drawn deterministically
  per ``seed`` in fixed week-long blocks, so the schedule is identical no
  matter in which order (or how often) it is queried; each event raises
  the solar source term to ``peak_storm_scale`` and decays exponentially
  with time constant ``decay_tau_s`` (the classic fast-rise/slow-decay
  SPE profile).  Overlapping events stack additively.
* **Per-subsystem sensitivity** scales the SAA (trapped proton) and SPE
  (solar heavy ion) enhancements differently for RAM, register files,
  sensors and whole-board latch-up susceptibility.

Everything downstream keys off three queries: :meth:`phase_at` (which
phase are we in), :meth:`multiplier_at` (instantaneous rate multiplier for
one subsystem) and :meth:`phase_profile` (exact integral of the multiplier
plus per-phase occupancy over a window).  The integral is closed-form —
the storm term is a sum of exponentials — so expected event counts carry
no quadrature error, and :func:`sample_arrivals` can thin a homogeneous
candidate stream against an exact upper bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.radiation.flux import FluxModel
from repro.radiation.orbit import LeoOrbit
from repro.units import SECONDS_PER_DAY


class MissionPhase(enum.Enum):
    """Radiation phase of the mission at an instant.

    Precedence when conditions overlap: an active solar particle event
    dominates an SAA pass dominates quiet orbit (the *multiplier* still
    composes both enhancements; the phase label drives policy).
    """

    QUIET = "quiet"
    SAA = "saa"
    SPE = "spe"


@dataclass(frozen=True)
class SpeModel:
    """Stochastic solar-particle-event process.

    Attributes:
        onset_rate_per_day: Poisson rate of SPE onsets (solar-cycle
            average for events strong enough to matter: a few per month
            at solar max, rare at solar min).
        peak_storm_scale: solar source-term multiplier at onset (the
            :class:`FluxModel` storm multiplier is the calibration
            anchor).
        decay_tau_s: exponential decay time constant of the enhancement.
        active_scale: storm scale at or above which the mission phase
            reads SPE (below it the residual tail is background).
        forced_onsets: extra deterministic onset times (mission seconds),
            merged with the stochastic draw — the benchmark/test hook for
            "an SPE begins at day 3 sharp".
    """

    onset_rate_per_day: float = 0.02
    peak_storm_scale: float = 100.0
    decay_tau_s: float = 6 * 3600.0
    active_scale: float = 2.0
    forced_onsets: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.onset_rate_per_day < 0:
            raise ConfigError("SPE onset rate must be non-negative")
        if self.decay_tau_s <= 0:
            raise ConfigError("SPE decay constant must be positive")
        if not self.peak_storm_scale > self.active_scale > 1.0:
            raise ConfigError(
                "need peak_storm_scale > active_scale > 1 (the event must "
                "start active and eventually decay back to background)"
            )
        if any(t < 0 for t in self.forced_onsets):
            raise ConfigError("forced SPE onsets must be at t >= 0")

    @property
    def active_duration_s(self) -> float:
        """How long one isolated event stays above ``active_scale``."""
        return self.decay_tau_s * math.log(
            (self.peak_storm_scale - 1.0) / (self.active_scale - 1.0)
        )


@dataclass(frozen=True)
class SubsystemSensitivity:
    """How strongly one subsystem feels each enhancement.

    Attributes:
        saa: scale on the SAA trapped-proton enhancement (1.0 = the flux
            model's full ``saa_multiplier``).
        storm: scale on the SPE solar enhancement.
    """

    saa: float = 1.0
    storm: float = 1.0

    def __post_init__(self) -> None:
        if self.saa < 0 or self.storm < 0:
            raise ConfigError("subsystem sensitivities must be >= 0")


#: Default per-subsystem sensitivities.  Trapped protons (SAA) are felt
#: most by large DRAM arrays and analog sensors; SPE heavy ions punch
#: through to flip-flops and are the dominant latch-up ("board") driver.
DEFAULT_SENSITIVITY: dict[str, SubsystemSensitivity] = {
    "ram": SubsystemSensitivity(saa=1.0, storm=1.0),
    "register": SubsystemSensitivity(saa=0.7, storm=1.4),
    "sensor": SubsystemSensitivity(saa=1.2, storm=1.8),
    "board": SubsystemSensitivity(saa=1.0, storm=2.5),
}

#: SPE onsets are drawn in fixed blocks of this length, each from its own
#: deterministic (seed, block-index) stream — query order cannot change
#: the schedule.
ONSET_BLOCK_S = 7 * SECONDS_PER_DAY

#: Stream-domain tag separating SPE onset draws from every other consumer
#: of the same integer seed.
_SPE_STREAM = 0x5BE

#: Storm-tail contributions below this are treated as fully decayed.
_TAIL_EPS = 1e-9


@dataclass(frozen=True)
class PhaseSegment:
    """One maximal interval with a constant phase label.

    Within a segment the multiplier is monotonically non-increasing (the
    only time-varying term is storm decay), so its maximum is at ``t0``.
    """

    t0: float
    t1: float
    phase: MissionPhase
    in_saa: bool
    spe_active: bool

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class PhaseProfile:
    """Exact integral of one subsystem's multiplier over a window.

    Attributes:
        t0 / t1: the window.
        subsystem: which sensitivity the numbers are for.
        seconds: occupancy per phase (sums to ``t1 - t0``).
        integral: ``∫ multiplier dt`` in multiplier-seconds — multiply by
            a base event rate (events/s) to get expected event counts.
        peak_multiplier: maximum instantaneous multiplier in the window
            (the thinning bound).
    """

    t0: float
    t1: float
    subsystem: str
    seconds: dict[MissionPhase, float] = field(
        default_factory=lambda: {p: 0.0 for p in MissionPhase}
    )
    integral: float = 0.0
    peak_multiplier: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    @property
    def mean_multiplier(self) -> float:
        return self.integral / self.duration_s if self.duration_s else 0.0

    def occupancy(self, phase: MissionPhase) -> float:
        """Fraction of the window spent in ``phase``."""
        if not self.duration_s:
            return 0.0
        return self.seconds[phase] / self.duration_s


class EnvironmentTimeline:
    """Seeded piecewise phase schedule driving rates and policies.

    Attributes:
        orbit: SAA geometry (None disables SAA passes — deep space).
        flux: source mix and enhancement anchors.
        spe: the stochastic SPE process (None disables storms).
        seed: integer seed for the onset draw (a timeline must be
            replayable from its configuration, so only plain integers are
            accepted — not live generator objects).
        sensitivity: per-subsystem sensitivity map.
        constant_storm: hold the solar term at the flux model's full
            ``storm_multiplier`` for the whole mission (the back-compat
            rendering of the deprecated ``Environment.storm_active``).
        name: label for reports and benchmark tables.
    """

    def __init__(
        self,
        orbit: LeoOrbit | None = None,
        flux: FluxModel | None = None,
        spe: SpeModel | None = None,
        seed: int = 0,
        sensitivity: dict[str, SubsystemSensitivity] | None = None,
        constant_storm: bool = False,
        name: str = "timeline",
    ) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise ConfigError(
                "timeline seed must be a plain integer (the schedule must "
                "be replayable from configuration alone)"
            )
        self.name = name
        self.orbit = orbit
        self.flux = flux if flux is not None else FluxModel()
        self.spe = spe
        self.seed = int(seed)
        self.sensitivity = dict(sensitivity or DEFAULT_SENSITIVITY)
        if not self.sensitivity:
            raise ConfigError("sensitivity map must not be empty")
        self.constant_storm = constant_storm
        self._onset_blocks: dict[int, tuple[float, ...]] = {}

    # -- SPE onset process -----------------------------------------------------

    def _block_onsets(self, block: int) -> tuple[float, ...]:
        """Stochastic onsets inside block ``block`` (cached, deterministic)."""
        cached = self._onset_blocks.get(block)
        if cached is not None:
            return cached
        assert self.spe is not None
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _SPE_STREAM, block])
        )
        rate_per_s = self.spe.onset_rate_per_day / SECONDS_PER_DAY
        n = int(rng.poisson(rate_per_s * ONSET_BLOCK_S))
        t0 = block * ONSET_BLOCK_S
        onsets = tuple(sorted(t0 + rng.uniform(0.0, ONSET_BLOCK_S, n)))
        self._onset_blocks[block] = onsets
        return onsets

    def _tail_s(self) -> float:
        """Look-back beyond which an old event's contribution is dust."""
        assert self.spe is not None
        return self.spe.decay_tau_s * math.log(
            (self.spe.peak_storm_scale - 1.0) / _TAIL_EPS
        )

    def onsets_in(self, t0: float, t1: float) -> list[float]:
        """All SPE onset times in ``[t0, t1)`` (forced + stochastic)."""
        self._check_window(t0, t1)
        if self.spe is None:
            return []
        first = max(0, int(t0 // ONSET_BLOCK_S))
        last = int(t1 // ONSET_BLOCK_S)
        onsets = [
            t
            for block in range(first, last + 1)
            for t in self._block_onsets(block)
        ]
        onsets.extend(self.spe.forced_onsets)
        return sorted(t for t in set(onsets) if t0 <= t < t1)

    def _relevant_onsets(self, t0: float, t1: float) -> list[float]:
        """Onsets whose decay tail can still matter anywhere in [t0, t1)."""
        if self.spe is None:
            return []
        return self.onsets_in(max(0.0, t0 - self._tail_s()), t1)

    def storm_scale_at(self, t: float) -> float:
        """Solar source-term multiplier at ``t`` (1.0 = quiet sun)."""
        self._check_time(t)
        if self.constant_storm:
            return self.flux.storm_multiplier
        if self.spe is None:
            return 1.0
        return 1.0 + self._storm_excess(
            t, [o for o in self._relevant_onsets(0.0, t + 1.0) if o <= t]
        )

    def _storm_excess(self, t: float, onsets_before: list[float]) -> float:
        """``storm scale - 1`` at ``t`` from the given onsets (all <= t)."""
        assert self.spe is not None
        peak, tau = self.spe.peak_storm_scale, self.spe.decay_tau_s
        return sum(
            (peak - 1.0) * math.exp(-(t - onset) / tau)
            for onset in onsets_before
        )

    def spe_intervals(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """Maximal intervals of ``[t0, t1)`` where the SPE phase is active.

        Exact (closed form): with onsets :math:`o_i`, the excess scale is
        :math:`\\sum_i (P-1) e^{-(t-o_i)/\\tau}`, so the decay crossing of
        ``active_scale`` after a run of overlapping events is
        :math:`o_n + \\tau \\ln(W / (A-1))` for the accumulated weight
        ``W`` at the last onset.
        """
        self._check_window(t0, t1)
        if self.constant_storm:
            return [(t0, t1)] if t0 < t1 else []
        if self.spe is None:
            return []
        peak, tau = self.spe.peak_storm_scale, self.spe.decay_tau_s
        threshold = self.spe.active_scale - 1.0
        intervals: list[tuple[float, float]] = []
        start: float | None = None
        end = -math.inf
        weight = 0.0
        last_onset: float | None = None
        for onset in self._relevant_onsets(t0, t1):
            if last_onset is not None:
                weight *= math.exp(-(onset - last_onset) / tau)
            if onset > end and start is not None:
                intervals.append((start, end))
                start = None
            if onset > end:
                weight = 0.0
            weight += peak - 1.0
            last_onset = onset
            if start is None:
                start = onset
            end = onset + tau * math.log(weight / threshold)
        if start is not None:
            intervals.append((start, end))
        clipped = [
            (max(a, t0), min(b, t1))
            for a, b in intervals
            if b > t0 and a < t1
        ]
        return [(a, b) for a, b in clipped if b > a]

    # -- instantaneous queries -------------------------------------------------

    def _check_time(self, t: float) -> None:
        if t < 0:
            raise ConfigError(f"mission time must be >= 0, got {t}")

    def _check_window(self, t0: float, t1: float) -> None:
        self._check_time(t0)
        if t1 < t0:
            raise ConfigError(f"window end {t1} precedes start {t0}")

    def _in_saa(self, t: float) -> bool:
        from repro.radiation.orbit import OrbitPhase

        return (
            self.orbit is not None
            and self.orbit.phase_at(t) is OrbitPhase.SAA
        )

    def _spe_active(self, t: float) -> bool:
        if self.constant_storm:
            return True
        if self.spe is None:
            return False
        return self.storm_scale_at(t) >= self.spe.active_scale

    def phase_at(self, t: float) -> MissionPhase:
        """Phase label at mission time ``t`` (SPE > SAA > QUIET)."""
        self._check_time(t)
        if self._spe_active(t):
            return MissionPhase.SPE
        if self._in_saa(t):
            return MissionPhase.SAA
        return MissionPhase.QUIET

    def _sensitivity_for(self, subsystem: str) -> SubsystemSensitivity:
        try:
            return self.sensitivity[subsystem]
        except KeyError:
            raise ConfigError(
                f"unknown subsystem {subsystem!r}; configured: "
                f"{sorted(self.sensitivity)}"
            ) from None

    def multiplier_at(self, t: float, subsystem: str = "ram") -> float:
        """Instantaneous rate multiplier for ``subsystem`` at ``t``."""
        self._check_time(t)
        sens = self._sensitivity_for(subsystem)
        saa_factor = 1.0
        if self._in_saa(t):
            saa_factor = 1.0 + (self.flux.saa_multiplier - 1.0) * sens.saa
        storm_factor = 1.0 + (self.storm_scale_at(t) - 1.0) * sens.storm
        return self.flux.rate_multiplier_scaled(saa_factor, storm_factor)

    # -- segmentation & integration --------------------------------------------

    def segments(self, t0: float, t1: float) -> list[PhaseSegment]:
        """Piecewise-constant phase decomposition of ``[t0, t1)``.

        Segment boundaries are SAA entries/exits, SPE onsets and the
        exact decay crossings of ``active_scale``; every segment carries
        one phase label and a monotone non-increasing multiplier.
        """
        self._check_window(t0, t1)
        if t1 == t0:
            return []
        cuts = {t0, t1}
        if self.orbit is not None:
            for a, b in self.orbit.saa_windows(t0, t1):
                cuts.add(a)
                cuts.add(b)
        spe_intervals = self.spe_intervals(t0, t1)
        for a, b in spe_intervals:
            cuts.add(a)
            cuts.add(b)
        for onset in self.onsets_in(t0, t1):
            cuts.add(onset)
        edges = sorted(cuts)
        segments = []
        for a, b in zip(edges[:-1], edges[1:]):
            mid = (a + b) / 2.0
            in_saa = self._in_saa(mid)
            spe_active = any(s <= mid < e for s, e in spe_intervals)
            if spe_active:
                phase = MissionPhase.SPE
            elif in_saa:
                phase = MissionPhase.SAA
            else:
                phase = MissionPhase.QUIET
            segments.append(PhaseSegment(a, b, phase, in_saa, spe_active))
        return segments

    def phase_profile(
        self, t0: float, t1: float, subsystem: str = "ram"
    ) -> PhaseProfile:
        """Exact per-phase occupancy and multiplier integral over a window.

        The storm term integrates in closed form (sum of exponentials),
        so ``integral`` carries no quadrature error; ``peak_multiplier``
        is exact because the multiplier is non-increasing within each
        segment (its maximum sits at a segment start).
        """
        sens = self._sensitivity_for(subsystem)
        profile = PhaseProfile(t0=t0, t1=t1, subsystem=subsystem)
        if t1 == t0:
            self._check_window(t0, t1)
            return profile
        flux = self.flux
        tau = self.spe.decay_tau_s if self.spe is not None else 1.0
        for seg in self.segments(t0, t1):
            profile.seconds[seg.phase] += seg.duration_s
            saa_factor = 1.0
            if seg.in_saa:
                saa_factor = 1.0 + (flux.saa_multiplier - 1.0) * sens.saa
            base = flux.rate_multiplier_scaled(saa_factor, 1.0)
            profile.integral += base * seg.duration_s
            if self.constant_storm:
                excess_start = flux.storm_multiplier - 1.0
                storm_integral = excess_start * seg.duration_s
            elif self.spe is not None:
                onsets = [
                    o
                    for o in self._relevant_onsets(0.0, seg.t0 + 1.0)
                    if o <= seg.t0
                ]
                excess_start = self._storm_excess(seg.t0, onsets)
                excess_end = excess_start * math.exp(-seg.duration_s / tau)
                storm_integral = tau * (excess_start - excess_end)
            else:
                excess_start = 0.0
                storm_integral = 0.0
            profile.integral += (
                flux.solar_fraction * sens.storm * storm_integral
            )
            profile.peak_multiplier = max(
                profile.peak_multiplier,
                base + flux.solar_fraction * sens.storm * excess_start,
            )
        return profile

    def max_multiplier(
        self, t0: float, t1: float, subsystem: str = "ram"
    ) -> float:
        """Exact upper bound of the multiplier over ``[t0, t1)``."""
        if t1 == t0:
            self._check_window(t0, t1)
            return self.multiplier_at(t0, subsystem)
        return self.phase_profile(t0, t1, subsystem).peak_multiplier

    def expected_events(
        self,
        base_rate_per_s: float,
        t0: float,
        t1: float,
        subsystem: str = "ram",
    ) -> float:
        """Expected event count for a quiet-baseline rate over a window."""
        if base_rate_per_s < 0:
            raise ConfigError("base rate must be non-negative")
        return base_rate_per_s * self.phase_profile(t0, t1, subsystem).integral


def sample_arrivals(
    timeline: EnvironmentTimeline,
    t0: float,
    t1: float,
    base_rate_per_s: float,
    rng: np.random.Generator,
    subsystem: str = "ram",
) -> np.ndarray:
    """Non-homogeneous Poisson arrivals in ``[t0, t1)`` by thinning.

    Candidates are drawn homogeneously at the window's exact peak rate
    (``base_rate_per_s * max_multiplier``), then each is accepted with
    probability ``multiplier(t) / peak`` — the classic Lewis-Shedler
    construction.  All draws happen in a fixed order (count, times,
    acceptance uniforms), so the result is byte-reproducible from the
    generator state.
    """
    if base_rate_per_s < 0:
        raise ConfigError("base rate must be non-negative")
    timeline._check_window(t0, t1)
    duration = t1 - t0
    if duration == 0.0 or base_rate_per_s == 0.0:
        return np.empty(0)
    peak = timeline.max_multiplier(t0, t1, subsystem)
    n = int(rng.poisson(base_rate_per_s * peak * duration))
    if n == 0:
        return np.empty(0)
    times = np.sort(rng.uniform(t0, t1, n))
    accept = rng.uniform(0.0, 1.0, n)
    keep = np.array([
        accept[i] * peak < timeline.multiplier_at(times[i], subsystem)
        for i in range(n)
    ])
    return times[keep]
