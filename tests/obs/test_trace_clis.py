"""The trace CLIs print pinned bytes, and a cut campaign says so.

Every output of ``repro.obs.report``, ``repro.obs.query`` and
``repro.obs.export`` on the two shared traces is pinned by SHA-256, so
a refactor of the trace reader shows any byte it moves.  ``report
--json`` is compared without each campaign's ``cut`` field, which is
null on a whole campaign; the sample trace cut at every line boundary
checks it.
"""

import hashlib
import json

import pytest

from repro.obs import export, query, report
from repro.obs.events import Injection, RecoveryDone, TrialEnd, TrialStart
from repro.obs.query import TraceIndex

#: Output name -> (CLI entry point, arguments before the trace path).
OUTPUTS = {
    "report": (report.main, []),
    "report --json": (report.main, ["--json"]),
    "query --tree": (query.main, ["--tree"]),
    "query --kinds-summary": (query.main, ["--kinds-summary"]),
    "query --percentiles --json": (query.main, ["--percentiles", "--json"]),
    "query --kind trial-end --json": (
        query.main, ["--kind", "trial-end", "--json"],
    ),
    "export": (export.main, ["--from-trace"]),
    "export --format json": (export.main, ["--format", "json", "--from-trace"]),
}

PINS = {
    ("supervised_trace", "report"):
        "58716947c34047d6f894542d3cd51dfd123a6842cef229c9cac5850912ee5756",
    ("supervised_trace", "report --json"):
        "fe8f42831a280af4c402391c0407003b81c7a94944ee2611a58660cff8e5da78",
    ("supervised_trace", "query --tree"):
        "ff3b172c559f0c6b569bb17e99441bd117923ac434101fa0d3422ec73b129a09",
    ("supervised_trace", "query --kinds-summary"):
        "9a1dc6c5b19232c45dcb1897797ec8166c60220f38305b59c17e0453926ad8e1",
    ("supervised_trace", "query --percentiles --json"):
        "ddc84d64506913f22f62faf8fd588c492ea9a517acd49c0a5d326b388d3fe723",
    ("supervised_trace", "query --kind trial-end --json"):
        "94b12abbc05c62f56c56c8b99ec89b6b64fa530d59b20c734d1624548395cb24",
    ("supervised_trace", "export"):
        "cfcf6523b4a95cf89ff17a88f74b4b7d5afdd997da19f93436b97ae8d7d73ef2",
    ("supervised_trace", "export --format json"):
        "493d488f31a221f824b1267731d4b4752b43e3d8d8c402d32b8e16d2c2418820",
    ("sample_trace", "report"):
        "7c6c2ba2f5fcd4dd45e83050eae584f40870db8d12025c9f9ffcb80dc7fc660e",
    ("sample_trace", "report --json"):
        "0ee0e74035a23d866494ca731659c3a3ba51f0ba5fcc45d0261dc90b5add47d4",
    ("sample_trace", "query --tree"):
        "f9258b02892d3dcf2b06d565c3f0c43de92589bac52586f0ef31d1e3f535b452",
    ("sample_trace", "query --kinds-summary"):
        "26b252b5488ff57d6ae2ee966552054691ee70c356dadd1465f9fd1aaecde78b",
    ("sample_trace", "query --percentiles --json"):
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ("sample_trace", "query --kind trial-end --json"):
        "599175f9aa265712920aa21af5e69278e1d2127607b856f4068a9fd38a245788",
    ("sample_trace", "export"):
        "2f3c33049bbfbb8a1e9553bd93e83246c9d8c6a00729fc87404852fda145529b",
    ("sample_trace", "export --format json"):
        "edd45fe3f1bca332a8047372b70d93f2d2bd7d080e221cca1f7cd9cc9b04bc31",
}


def run_cli(name: str, path, capsys) -> str:
    """One CLI's stdout on ``path``, as a shell in its folder prints it."""
    main, args = OUTPUTS[name]
    code = main([*args, path.name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


@pytest.mark.parametrize("output", list(OUTPUTS))
@pytest.mark.parametrize("trace", ["supervised_trace", "sample_trace"])
def test_cli_output_is_pinned(trace, output, request, monkeypatch, capsys):
    path = request.getfixturevalue(trace)
    monkeypatch.chdir(path.parent)
    out = run_cli(output, path, capsys)
    if output == "report --json":
        doc = json.loads(out)
        for campaign in doc["campaigns"]:
            campaign.pop("cut", None)
        out = json.dumps(doc, indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[trace, output]


def test_cut_campaign_is_marked_at_every_line(
    sample_trace, tmp_path, capsys, deadline,
):
    lines = sample_trace.read_text().splitlines(keepends=True)
    kinds = [json.loads(line)["kind"] for line in lines]
    start, end = kinds.index("campaign-start"), kinds.index("campaign-end")
    path = tmp_path / "cut.jsonl"
    for n in range(len(lines) + 1):
        with deadline(10):
            path.write_text("".join(lines[:n]))
            assert report.main([str(path)]) == 0
            text = capsys.readouterr().out
            assert report.main([str(path), "--json"]) == 0
            campaigns = json.loads(capsys.readouterr().out)["campaigns"]
        seen = kinds[:n].count("trial-end")
        if start < n <= end:
            assert f"CUT: no campaign-end, {seen} of 60 trials seen" in text
            assert [c["cut"] for c in campaigns] == [
                {"trials_seen": seen, "n_trials": 60}
            ]
        else:
            assert "CUT" not in text
            assert [c["cut"] for c in campaigns] == [None] * (n > end)


def test_trials_with_no_campaign_start_form_one_segment_never_cut():
    # A bare supervisor loop traces trials without campaign markers.
    events = [
        TrialStart(trial=0),
        Injection(trial=0, target="register", dynamic_index=3,
                  location="x", bit=1),
        TrialEnd(trial=0, outcome="crash", cycles=10),
        RecoveryDone(trial=0, outcome="crash", recovered=True, rung="retry",
                     attempts=1, latency_s=0.5, wasted_cycles=4,
                     persistence="transient"),
    ]
    index = TraceIndex.from_events(events)
    (segment,) = index.segments
    assert not segment.cut
    assert segment.site_outcomes == {"x": {"crash": 1}}
    text = report.render(index)
    assert "-- campaign 0: @? (?) target=? trials=0" in text
    assert "recovery: 1/1 observable failures recovered" in text
    assert "CUT" not in text
    assert report.report_dict(index)["campaigns"][0]["cut"] is None
