"""Trace triage CLI: ``python -m repro.obs.report trace.jsonl``.

Reads a JSONL event trace written by :class:`repro.obs.events.JsonlSink`
and renders what a flight engineer asks first:

- a **campaign timeline** — one glyph per trial in index order
  (``.`` benign, ``S`` SDC, ``C`` crash, ``H`` hang, ``D`` detected,
  lowercase when the supervisor recovered it);
- **outcome breakdowns by injection site** — which registers / heap
  cells turn flips into crashes vs silence;
- **recovery accounting** — rate, rung distribution, latency quantiles;
- **detector decision summaries** — samples scored, alarms raised,
  score/threshold statistics per decision record;
- a **cut** mark on a campaign the trace stops inside, with the trials
  seen against the trials it declared.

Everything renders from one :class:`~repro.obs.query.TraceIndex`.
Quantiles of raw samples (recovery latencies, detector scores, per-tick
max scores) are :func:`~repro.obs.metrics.latency_summary`'s
nearest-rank ones.  :func:`outcome_counts` rebuilds ``OutcomeCounts``
purely from per-trial events and must agree with the engine's tally.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ConfigError
from repro.obs.aggregate import FleetReplay
from repro.obs.events import DetectorDecision, Event
from repro.obs.metrics import latency_summary
from repro.obs.query import CampaignSegment, TraceIndex, run_cli

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


def outcome_counts(events: list[Event]) -> dict[str, int]:
    """Rebuild the aggregate outcome tally from per-trial events.

    Returns the same ``{outcome: count}`` dict shape as
    :meth:`repro.faults.outcomes.OutcomeCounts.as_dict`, every outcome
    present (zero when unseen), read off the rollup's ``trials.<outcome>``
    counters.
    """
    counters = TraceIndex.from_events(events).rollup.counters
    return {
        outcome: counters.get(f"trials.{outcome}", 0)
        for outcome in OUTCOME_ORDER
    }


def _family(campaign: CampaignSegment, prefix: str) -> dict[str, int]:
    """The segment's ``<prefix><name>`` counters, by name, sorted."""
    return {
        name[len(prefix):]: n
        for name, n in sorted(campaign.rollup.counters.items())
        if name.startswith(prefix)
    }


def _recovery(campaign: CampaignSegment) -> tuple[int, float]:
    """Observable failures and the fraction of them recovered."""
    failures = sum(
        outcome in ("crash", "hang", "detected")
        for outcome in campaign.outcomes.values()
    )
    return failures, len(campaign.recovered) / failures if failures else 1.0


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


def _timeline(campaign: CampaignSegment, width: int = 72) -> list[str]:
    if not campaign.outcomes:
        return ["  (no trial events)"]
    glyphs = []
    for trial in sorted(campaign.outcomes):
        glyph = OUTCOME_GLYPHS.get(campaign.outcomes[trial], "?")
        if trial in campaign.recovered:
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


def render_campaign(campaign: CampaignSegment, index: int) -> str:
    start, counters = campaign.start, campaign.rollup.counters
    outcomes = _family(campaign, "trials.")
    lines = [
        f"-- campaign {index}: @{start.func} ({start.program}) "
        f"target={start.target} trials={start.n_trials}"
        + (" [supervised]" if start.supervised else ""),
    ]
    if campaign.cut:
        lines.append(
            f"  CUT: no campaign-end, {len(campaign.outcomes)} of "
            f"{start.n_trials} trials seen"
        )
    lines.append(f"  outcomes: {_fmt_counts(outcomes)}")
    if campaign.end is not None:
        declared = campaign.end.counts
        agreement = (
            "agrees"
            if all(
                declared.get(o, 0) == outcomes.get(o, 0)
                for o in OUTCOME_ORDER
            )
            else "DISAGREES"
        )
        lines.append(
            f"  engine tally: {_fmt_counts(declared)} "
            f"[{agreement} with per-trial events]"
        )
    if campaign.pruned:
        total = len(campaign.outcomes) or start.n_trials
        rate = len(campaign.pruned) / total if total else 0.0
        lines.append(
            f"  pruned trials: {len(campaign.pruned)} "
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

    wins = _family(campaign, "recovery.rung.")
    attempts = _family(campaign, "ladder.attempts.")
    if start.supervised or wins or attempts:
        failures, rate = _recovery(campaign)
        lines.append(
            f"  recovery: {len(campaign.recovered)}/{failures} observable "
            f"failures recovered ({rate:.1%})"
        )
        if attempts:
            lines.append("    ladder attempts: " + ", ".join(
                f"{rung}={n}" for rung, n in attempts.items()
            ))
            lines.append("    winning rungs:   " + (", ".join(
                f"{rung}={n}" for rung, n in wins.items()
            ) or "none"))
        s = latency_summary(list(campaign.recovered.values()))
        if s["count"]:
            lines.append(
                f"    latency_s: mean={s['mean']:.3e} p50={s['p50']:.3e} "
                f"p90={s['p90']:.3e} max={s['max']:.3e}"
            )
    hits = counters.get("golden_cache.hits", 0)
    misses = counters.get("golden_cache.misses", 0)
    if hits or misses:
        lines.append(f"  golden cache: {hits} hit(s), {misses} miss(es)")
    checkpoints = counters.get("events.checkpoint", 0)
    fires = counters.get("events.watchdog-fire", 0)
    if checkpoints or fires:
        lines.append(
            f"  checkpoints taken: {checkpoints}; watchdog fires: {fires}"
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


def render_fleet(fleet: FleetReplay, latency: dict | None = None) -> str:
    """Render the fleet section of a trace report from its replay.

    ``latency`` is an optional ``fleet.score_latency_s`` histogram
    summary (e.g. from a ``--metrics`` export snapshot); wall-clock
    never lives in the trace itself.
    """
    n_ticks, n_warmup = len(fleet.ticks), fleet.warmup_ticks
    lines = [
        "-- fleet decisions",
        f"  ticks: {n_ticks} ({n_ticks - n_warmup} scored, "
        f"{n_warmup} in warmup) over {fleet.n_boards} boards",
    ]
    if latency and latency.get("count"):
        lines.append(
            f"  decision latency: p50={latency['p50']:.3e}s "
            f"p99={latency['p99']:.3e}s "
            f"(n={int(latency['count'])})"
        )
    health = fleet.health()
    if health:
        lines.append(
            "  board        alarms  quarantines  releases  "
            "ticks-scored  alarm-rate"
        )
        for board in health.values():
            lines.append(
                f"  {board.board_id:<12} {board.alarms:>6} "
                f"{board.quarantines:>11}  {board.releases:>8}  "
                f"{board.ticks_scored:>12}  {board.alarm_rate:>9.2%}"
            )
    for board_id, times in sorted(fleet.alarms.items()):
        head = ", ".join(f"{t:.2f}s" for t in times[:6])
        lines.append(
            f"  alarms {board_id}: {len(times)} at t={head}"
            + ("..." if len(times) > 6 else "")
        )
    if not fleet.alarms:
        lines.append("  alarms: none")
    s = latency_summary(fleet.max_scores())
    if s["count"]:
        lines.append(
            f"  max-score per tick: mean={s['mean']:.4g} "
            f"p50={s['p50']:.4g} p90={s['p90']:.4g} max={s['max']:.4g}"
        )
    return "\n".join(lines)


def render(
    index: TraceIndex,
    source: str = "",
    fleet_latency: dict | None = None,
) -> str:
    header = "== repro.obs trace report =="
    if source:
        header += f" {source}"
    lines = [header, f"{len(index.pairs)} events"]
    for number, campaign in enumerate(index.segments):
        lines.append("")
        lines.append(render_campaign(campaign, number))
    decisions = [e for _, e in index.by_kind.get("detector-decision", [])]
    if decisions:
        lines.append("")
        lines.append(render_detector(decisions))
    if index.fleet.ticks:
        lines.append("")
        lines.append(render_fleet(index.fleet, latency=fleet_latency))
    return "\n".join(lines)


def report_dict(index: TraceIndex) -> dict:
    """Machine-readable form of the report (for --json)."""
    decisions = [e for _, e in index.by_kind.get("detector-decision", [])]
    fleet = index.fleet
    campaigns = []
    for c in index.segments:
        counters = c.rollup.counters
        campaigns.append({
            "program": c.start.program,
            "func": c.start.func,
            "n_trials": c.start.n_trials,
            "target": c.start.target,
            "supervised": c.start.supervised,
            "outcomes": {
                o: counters.get(f"trials.{o}", 0) for o in OUTCOME_ORDER
            },
            "pruned": len(c.pruned),
            "recovery_rate": _recovery(c)[1],
            "rung_wins": _family(c, "recovery.rung."),
            "recovery_latency_s": latency_summary(list(c.recovered.values())),
            "golden_cache": {
                "hits": counters.get("golden_cache.hits", 0),
                "misses": counters.get("golden_cache.misses", 0),
            },
            "checkpoints": counters.get("events.checkpoint", 0),
            "watchdog_fires": counters.get("events.watchdog-fire", 0),
            "cut": {
                "trials_seen": len(c.outcomes), "n_trials": c.start.n_trials,
            } if c.cut else None,
        })
    return {
        "n_events": len(index.pairs),
        "campaigns": campaigns,
        "detector": {
            "samples": len(decisions),
            "alarms": sum(d.alarm for d in decisions),
        },
        "fleet": {
            "ticks": len(fleet.ticks),
            "alarms": dict(sorted(fleet.alarms.items())),
            "board_health": {
                board_id: {
                    "alarms": h.alarms,
                    "quarantines": h.quarantines,
                    "releases": h.releases,
                    "ticks_scored": h.ticks_scored,
                    "alarm_rate": h.alarm_rate,
                }
                for board_id, h in fleet.health().items()
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
        index = TraceIndex.from_file(args.trace)
    except (OSError, ConfigError) as exc:
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
    if args.json:
        print(json.dumps(report_dict(index), indent=2))
    else:
        print(render(index, source=args.trace, fleet_latency=fleet_latency))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    run_cli(main)
