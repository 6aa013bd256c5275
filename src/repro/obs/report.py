"""Trace triage CLI: ``python -m repro.obs.report trace.jsonl``.

Reads a JSONL event trace written by :class:`repro.obs.events.JsonlSink`
and renders what a flight engineer asks first:

- a **campaign timeline** — one glyph per trial in index order
  (``.`` benign, ``S`` SDC, ``C`` crash, ``H`` hang, ``D`` detected,
  ``R`` appended when the supervisor recovered it);
- **outcome breakdowns by injection site** — which registers / heap
  cells turn flips into crashes vs silence;
- **recovery accounting** — rate, rung distribution, latency quantiles;
- **detector decision summaries** — samples scored, alarms raised,
  score/threshold statistics per decision record.

Quantiles of raw samples (recovery latencies, detector scores) are
:func:`~repro.obs.metrics.latency_summary`'s nearest-rank ones.  The
aggregation path is the same the acceptance criterion checks:
:func:`outcome_counts` rebuilds a campaign's ``OutcomeCounts`` purely
from per-trial events, through the one fold
(:func:`~repro.obs.aggregate.aggregate_events`), and must agree exactly
with the engine's own tally.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.obs.aggregate import SCORE_BOUNDS, aggregate_events, fleet_board_health
from repro.obs.events import (
    CampaignEnd,
    CampaignStart,
    DetectorDecision,
    Event,
    FleetDecision,
    GoldenCacheLookup,
    Injection,
    LadderAttemptEvent,
    RecoveryDone,
    TrialEnd,
    event_from_dict,
)
from repro.obs.metrics import Histogram, latency_summary

#: Timeline glyph per outcome.
OUTCOME_GLYPHS = {
    "benign": ".",
    "sdc": "S",
    "crash": "C",
    "hang": "H",
    "detected": "D",
}
#: Canonical outcome order (mirrors FaultOutcome declaration order).
OUTCOME_ORDER = ("benign", "sdc", "crash", "hang", "detected")


def read_trace(path: str | Path) -> list[tuple[int, Event]]:
    """Parse a JSONL trace into ``(seq, event)`` pairs, in file order."""
    pairs: list[tuple[int, Event]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: unparseable trace line: {exc}"
                ) from exc
            pairs.append((int(record.get("seq", lineno - 1)),
                          event_from_dict(record)))
    return pairs


def outcome_counts(events: list[Event]) -> dict[str, int]:
    """Rebuild the aggregate outcome tally from per-trial events.

    Returns the same ``{outcome: count}`` dict shape as
    :meth:`repro.faults.outcomes.OutcomeCounts.as_dict`, every outcome
    present (zero when unseen), read off the rollup's ``trials.<outcome>``
    counters.
    """
    counters = aggregate_events(events).counters
    return {
        outcome: counters.get(f"trials.{outcome}", 0)
        for outcome in OUTCOME_ORDER
    }


@dataclass
class CampaignSummary:
    """Everything the report renders about one campaign segment."""

    program: str = "?"
    func: str = "?"
    n_trials: int = 0
    target: str = "?"
    supervised: bool = False
    outcomes: dict[str, int] = field(default_factory=dict)
    declared_counts: dict[str, int] | None = None
    trial_outcomes: dict[int, str] = field(default_factory=dict)
    recovered_trials: set[int] = field(default_factory=set)
    pruned_trials: set[int] = field(default_factory=set)
    site_outcomes: dict[str, dict[str, int]] = field(default_factory=dict)
    rung_wins: dict[str, int] = field(default_factory=dict)
    ladder_attempts: dict[str, int] = field(default_factory=dict)
    recovery_latencies_s: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    checkpoints: int = 0
    watchdog_fires: int = 0

    @property
    def n_failures(self) -> int:
        return len(
            [t for t, o in self.trial_outcomes.items()
             if o in ("crash", "hang", "detected")]
        )

    @property
    def recovery_rate(self) -> float:
        failures = self.n_failures
        if failures == 0:
            return 1.0
        return len(self.recovered_trials) / failures


@dataclass
class TraceSummary:
    """Parsed view of one whole trace file."""

    campaigns: list[CampaignSummary] = field(default_factory=list)
    detector_decisions: list[DetectorDecision] = field(default_factory=list)
    fleet_decisions: list[FleetDecision] = field(default_factory=list)
    n_events: int = 0


def _site_label(event: Injection) -> str:
    if not event.fired:
        return "(missed)"
    if event.target == "memory":
        return f"heap[{event.location}]"
    return str(event.location)


def summarize(events: list[Event]) -> TraceSummary:
    """Fold an event stream into per-campaign and detector summaries."""
    summary = TraceSummary(n_events=len(events))
    current: CampaignSummary | None = None
    pending_site: dict[int, str] = {}

    def ensure_campaign() -> CampaignSummary:
        # Traces written without explicit campaign-start markers (e.g. a
        # bare supervisor loop) still aggregate into one segment.
        nonlocal current
        if current is None:
            current = CampaignSummary()
            summary.campaigns.append(current)
        return current

    for event in events:
        if isinstance(event, CampaignStart):
            current = CampaignSummary(
                program=event.program,
                func=event.func,
                n_trials=event.n_trials,
                target=event.target,
                supervised=event.supervised,
            )
            summary.campaigns.append(current)
            pending_site = {}
        elif isinstance(event, CampaignEnd):
            ensure_campaign().declared_counts = dict(event.counts)
            current = None
        elif isinstance(event, Injection):
            # The injection precedes its trial-end; remember the site so
            # the outcome can be attributed to it.
            pending_site[event.trial] = _site_label(event)
            if event.pruned:
                ensure_campaign().pruned_trials.add(event.trial)
        elif isinstance(event, TrialEnd):
            campaign = ensure_campaign()
            campaign.outcomes[event.outcome] = (
                campaign.outcomes.get(event.outcome, 0) + 1
            )
            campaign.trial_outcomes[event.trial] = event.outcome
            site = pending_site.pop(event.trial, None)
            if site is not None:
                per_site = campaign.site_outcomes.setdefault(site, {})
                per_site[event.outcome] = per_site.get(event.outcome, 0) + 1
        elif isinstance(event, RecoveryDone):
            campaign = ensure_campaign()
            if event.recovered:
                campaign.recovered_trials.add(event.trial)
                campaign.rung_wins[event.rung or "?"] = (
                    campaign.rung_wins.get(event.rung or "?", 0) + 1
                )
                campaign.recovery_latencies_s.append(event.latency_s)
        elif isinstance(event, LadderAttemptEvent):
            campaign = ensure_campaign()
            campaign.ladder_attempts[event.rung] = (
                campaign.ladder_attempts.get(event.rung, 0) + 1
            )
        elif isinstance(event, GoldenCacheLookup):
            campaign = ensure_campaign()
            if event.hit:
                campaign.cache_hits += 1
            else:
                campaign.cache_misses += 1
        elif isinstance(event, DetectorDecision):
            summary.detector_decisions.append(event)
        elif isinstance(event, FleetDecision):
            summary.fleet_decisions.append(event)
        elif event.kind == "checkpoint":
            ensure_campaign().checkpoints += 1
        elif event.kind == "watchdog-fire":
            ensure_campaign().watchdog_fires += 1
    return summary


#: Outcomes counted as harmful when ranking injection sites.
HARMFUL_OUTCOMES = ("sdc", "crash", "hang", "detected")


def site_harm(
    site_outcomes: dict[str, dict[str, int]],
) -> list[tuple[float, int, int, str, dict[str, int]]]:
    """Rank injection sites by empirical harm, worst first.

    Returns ``(harm_fraction, n_harmful, n_trials, site, per_site)``
    tuples sorted most-harmful first.  Harm counts every non-benign
    outcome — a flip the checker caught still perturbed execution.  This
    is the empirical ordering E14 correlates against the static
    vulnerability ranking, and the one the campaign report renders.
    """
    ranked = []
    for site, per_site in site_outcomes.items():
        bad = sum(per_site.get(o, 0) for o in HARMFUL_OUTCOMES)
        total = sum(per_site.values())
        if total:
            ranked.append((bad / total, bad, total, site, per_site))
    ranked.sort(reverse=True)
    return ranked


# -- rendering -----------------------------------------------------------------


def _timeline(campaign: CampaignSummary, width: int = 72) -> list[str]:
    if not campaign.trial_outcomes:
        return ["  (no trial events)"]
    glyphs = []
    for trial in sorted(campaign.trial_outcomes):
        glyph = OUTCOME_GLYPHS.get(campaign.trial_outcomes[trial], "?")
        if trial in campaign.recovered_trials:
            glyph = glyph.lower() if glyph != "." else glyph
        glyphs.append(glyph)
    text = "".join(glyphs)
    return [
        f"  [{i:5d}] {text[i:i + width]}"
        for i in range(0, len(text), width)
    ]


def _fmt_counts(counts: dict[str, int]) -> str:
    total = sum(counts.values())
    parts = []
    for outcome in OUTCOME_ORDER:
        n = counts.get(outcome, 0)
        if n or outcome in counts:
            frac = n / total if total else 0.0
            parts.append(f"{outcome}={n} ({frac:.1%})")
    return ", ".join(parts) or "(none)"


def render_campaign(campaign: CampaignSummary, index: int) -> str:
    lines = [
        f"-- campaign {index}: @{campaign.func} ({campaign.program}) "
        f"target={campaign.target} trials={campaign.n_trials}"
        + (" [supervised]" if campaign.supervised else ""),
        f"  outcomes: {_fmt_counts(campaign.outcomes)}",
    ]
    if campaign.declared_counts is not None:
        agreement = (
            "agrees"
            if all(
                campaign.declared_counts.get(o, 0) == campaign.outcomes.get(o, 0)
                for o in OUTCOME_ORDER
            )
            else "DISAGREES"
        )
        lines.append(
            f"  engine tally: {_fmt_counts(campaign.declared_counts)} "
            f"[{agreement} with per-trial events]"
        )
    if campaign.pruned_trials:
        total = len(campaign.trial_outcomes) or campaign.n_trials
        rate = len(campaign.pruned_trials) / total if total else 0.0
        lines.append(
            f"  pruned trials: {len(campaign.pruned_trials)} "
            f"({rate:.1%}) reconstructed from the masking analysis"
        )
    lines.append("  timeline (lowercase = recovered):")
    lines.extend(_timeline(campaign))

    harmful = site_harm(campaign.site_outcomes)
    if harmful:
        lines.append("  injection sites by harm (top 10):")
        for frac, bad, total, site, per_site in harmful[:10]:
            lines.append(
                f"    {site:<16} {bad}/{total} harmful ({frac:.0%}): "
                f"{_fmt_counts(per_site)}"
            )

    if campaign.supervised or campaign.rung_wins or campaign.ladder_attempts:
        lines.append(
            f"  recovery: {len(campaign.recovered_trials)}/"
            f"{campaign.n_failures} observable failures recovered "
            f"({campaign.recovery_rate:.1%})"
        )
        if campaign.ladder_attempts:
            attempts = ", ".join(
                f"{rung}={n}"
                for rung, n in sorted(campaign.ladder_attempts.items())
            )
            wins = ", ".join(
                f"{rung}={n}"
                for rung, n in sorted(campaign.rung_wins.items())
            ) or "none"
            lines.append(f"    ladder attempts: {attempts}")
            lines.append(f"    winning rungs:   {wins}")
        s = latency_summary(campaign.recovery_latencies_s)
        if s["count"]:
            lines.append(
                f"    latency_s: mean={s['mean']:.3e} p50={s['p50']:.3e} "
                f"p90={s['p90']:.3e} max={s['max']:.3e}"
            )
    if campaign.cache_hits or campaign.cache_misses:
        lines.append(
            f"  golden cache: {campaign.cache_hits} hit(s), "
            f"{campaign.cache_misses} miss(es)"
        )
    if campaign.checkpoints or campaign.watchdog_fires:
        lines.append(
            f"  checkpoints taken: {campaign.checkpoints}; "
            f"watchdog fires: {campaign.watchdog_fires}"
        )
    return "\n".join(lines)


def render_detector(decisions: list[DetectorDecision]) -> str:
    scored = [d for d in decisions if not d.warming_up]
    alarms = [d for d in decisions if d.alarm]
    lines = [
        "-- detector decisions",
        f"  samples: {len(decisions)} ({len(scored)} scored, "
        f"{len(decisions) - len(scored)} in warmup)",
        f"  alarms: {len(alarms)}"
        + (
            " at t=" + ", ".join(f"{d.t:.2f}s" for d in alarms[:8])
            + ("..." if len(alarms) > 8 else "")
            if alarms
            else ""
        ),
    ]
    if scored:
        s = latency_summary([d.score for d in scored])
        threshold = scored[-1].threshold
        lines.append(
            f"  score: mean={s['mean']:.4g} p50={s['p50']:.4g} "
            f"p90={s['p90']:.4g} max={s['max']:.4g} "
            f"(threshold {threshold:.4g})"
        )
        anomalous = sum(d.anomalous for d in scored)
        lines.append(
            f"  anomalous samples: {anomalous}/{len(scored)} "
            f"({anomalous / len(scored):.1%})"
        )
    return "\n".join(lines)


def fleet_outcome(events: list[Event]) -> dict[str, list[float]]:
    """Replay a fleet decision stream into per-board alarm times.

    The inverse of the fleet service's own bookkeeping: feed it the
    traced :class:`FleetDecision` events and it reconstructs which board
    alarmed when — the acceptance check asserts this replay agrees
    exactly with the live ``FleetScorer`` board state.
    """
    alarms: dict[str, list[float]] = {}
    for event in events:
        if isinstance(event, FleetDecision):
            for board_id in event.alarm_ids():
                alarms.setdefault(board_id, []).append(event.t)
    return alarms


def render_fleet(
    decisions: list[FleetDecision],
    latency: dict | None = None,
) -> str:
    """Render the fleet section of a trace report.

    Every per-tick figure is taken per tick time, over that time's
    decisions (one per shard from the sharded service), so the section
    reads the same at any shard count; the per-board table comes from
    the :func:`repro.obs.aggregate.fleet_board_health` replay.
    ``latency`` is an optional ``fleet.score_latency_s`` histogram
    summary (e.g. from a ``--metrics`` export snapshot); wall-clock
    never lives in the trace itself.
    """
    ticks: dict[float, list[FleetDecision]] = {}
    for decision in decisions:
        ticks.setdefault(decision.t, []).append(decision)
    n_warmup = sum(tick[0].warming_up for tick in ticks.values())
    n_boards = sum(d.n_boards for d in ticks[decisions[-1].t]) if decisions else 0
    lines = [
        "-- fleet decisions",
        f"  ticks: {len(ticks)} ({len(ticks) - n_warmup} scored, "
        f"{n_warmup} in warmup) over {n_boards} boards",
    ]
    if latency and latency.get("count"):
        lines.append(
            f"  decision latency: p50={latency['p50']:.3e}s "
            f"p99={latency['p99']:.3e}s "
            f"(n={int(latency['count'])})"
        )
    health = fleet_board_health(list(decisions))
    if health:
        lines.append(
            "  board        alarms  quarantines  releases  "
            "ticks-scored  alarm-rate"
        )
        for board in (health[b] for b in sorted(health)):
            lines.append(
                f"  {board.board_id:<12} {board.alarms:>6} "
                f"{board.quarantines:>11}  {board.releases:>8}  "
                f"{board.ticks_scored:>12}  {board.alarm_rate:>9.2%}"
            )
    alarms = fleet_outcome(list(decisions))
    if alarms:
        for board_id in sorted(alarms):
            times = alarms[board_id]
            head = ", ".join(f"{t:.2f}s" for t in times[:6])
            lines.append(
                f"  alarms {board_id}: {len(times)} at t={head}"
                + ("..." if len(times) > 6 else "")
            )
    else:
        lines.append("  alarms: none")
    hist = Histogram(SCORE_BOUNDS)
    for tick in ticks.values():
        scored = [d.max_score for d in tick if d.n_scored]
        if scored:
            hist.record(max(scored))
    if hist.count:
        s = hist.summary()
        lines.append(
            f"  max-score per tick: mean={s['mean']:.4g} "
            f"p50={s['p50']:.4g} p90={s['p90']:.4g} max={s['max']:.4g}"
        )
    return "\n".join(lines)


def render(
    summary: TraceSummary,
    source: str = "",
    fleet_latency: dict | None = None,
) -> str:
    header = "== repro.obs trace report =="
    if source:
        header += f" {source}"
    lines = [header, f"{summary.n_events} events"]
    for index, campaign in enumerate(summary.campaigns):
        lines.append("")
        lines.append(render_campaign(campaign, index))
    if summary.detector_decisions:
        lines.append("")
        lines.append(render_detector(summary.detector_decisions))
    if summary.fleet_decisions:
        lines.append("")
        lines.append(render_fleet(summary.fleet_decisions,
                                  latency=fleet_latency))
    return "\n".join(lines)


def summary_as_dict(summary: TraceSummary) -> dict:
    """Machine-readable form of the summary (for --json)."""
    board_health = fleet_board_health(summary.fleet_decisions)
    return {
        "n_events": summary.n_events,
        "campaigns": [
            {
                "program": c.program,
                "func": c.func,
                "n_trials": c.n_trials,
                "target": c.target,
                "supervised": c.supervised,
                "outcomes": {
                    o: c.outcomes.get(o, 0) for o in OUTCOME_ORDER
                },
                "pruned": len(c.pruned_trials),
                "recovery_rate": c.recovery_rate,
                "rung_wins": dict(sorted(c.rung_wins.items())),
                "recovery_latency_s": latency_summary(
                    c.recovery_latencies_s
                ),
                "golden_cache": {
                    "hits": c.cache_hits, "misses": c.cache_misses,
                },
                "checkpoints": c.checkpoints,
                "watchdog_fires": c.watchdog_fires,
            }
            for c in summary.campaigns
        ],
        "detector": {
            "samples": len(summary.detector_decisions),
            "alarms": sum(d.alarm for d in summary.detector_decisions),
        },
        "fleet": {
            "ticks": len({d.t for d in summary.fleet_decisions}),
            "alarms": {
                board: times
                for board, times in sorted(
                    fleet_outcome(list(summary.fleet_decisions)).items()
                )
            },
            "board_health": {
                board_id: {
                    "alarms": h.alarms,
                    "quarantines": h.quarantines,
                    "releases": h.releases,
                    "ticks_scored": h.ticks_scored,
                    "alarm_rate": h.alarm_rate,
                }
                for board_id, h in sorted(board_health.items())
            },
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a campaign/recovery/detector trace for triage.",
    )
    parser.add_argument("trace", help="JSONL trace file (JsonlSink output)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable summary instead of text",
    )
    parser.add_argument(
        "--metrics", metavar="SNAPSHOT",
        help="metrics snapshot JSON (repro.obs.export) supplying the "
        "fleet decision-latency column",
    )
    args = parser.parse_args(argv)
    try:
        events = [event for _, event in read_trace(args.trace)]
    except OSError as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 1
    fleet_latency = None
    if args.metrics:
        from repro.obs.export import load_snapshot

        try:
            with open(args.metrics, encoding="utf-8") as fh:
                snapshot = load_snapshot(json.load(fh))
        except (OSError, json.JSONDecodeError, ConfigError) as exc:
            print(f"error: cannot read metrics {args.metrics!r}: {exc}",
                  file=sys.stderr)
            return 1
        fleet_latency = snapshot["histograms"].get("fleet.score_latency_s")
    summary = summarize(events)
    if args.json:
        print(json.dumps(summary_as_dict(summary), indent=2))
    else:
        print(render(summary, source=args.trace, fleet_latency=fleet_latency))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    try:
        code = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-render; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
