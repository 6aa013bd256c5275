"""CLI surface tests: the verify entry point and the SARIF emitters."""

from __future__ import annotations

import json

import pytest

from repro.analysis import lint, rank, verify


def test_verify_single_program_text(capsys):
    status = verify.main(["gcd", "--level", "full-dmr"])
    out = capsys.readouterr().out
    assert status == 0
    assert "gcd @ full-dmr: equivalent" in out
    assert "0 non-equivalent run(s) of 1" in out


def test_verify_all_levels_json(capsys):
    status = verify.main(["fact", "--json"])
    assert status == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == 0
    assert {run["program"] for run in report["runs"]} == {"fact"}
    assert len(report["runs"]) > 1  # one per protection level
    for run in report["runs"]:
        assert run["equivalent"] is True
        assert run["findings"] == []


def test_verify_rejects_unknown_program():
    with pytest.raises(SystemExit):
        verify.main(["no-such-program"])


def test_verify_rejects_unknown_level():
    with pytest.raises(SystemExit):
        verify.main(["gcd", "--level", "triple-modular"])


def _check_sarif_envelope(log: dict, tool_name: str) -> list[dict]:
    assert log["version"] == "2.1.0"
    assert "sarif-schema" in log["$schema"] or "sarif" in log["$schema"]
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == tool_name
    assert driver["rules"]
    for rule in driver["rules"]:
        assert rule["id"]
    return run["results"]


def test_lint_sarif_envelope(capsys):
    lint.main(["gcd", "--level", "none", "--sarif", "--fail-on", "none"])
    log = json.loads(capsys.readouterr().out)
    results = _check_sarif_envelope(log, "repro-lint")
    rule_ids = {
        rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]
    }
    for result in results:
        assert result["ruleId"] in rule_ids
        assert result["level"] in ("error", "warning", "note")
        assert result["message"]["text"]


def test_rank_sarif_envelope(capsys):
    status = rank.main(["gcd", "--sarif"])
    assert status == 0
    log = json.loads(capsys.readouterr().out)
    results = _check_sarif_envelope(log, "repro-rank")
    assert results, "ranking must produce at least one SARIF result"
    for result in results:
        assert result["ruleId"] == "RANK001"
        assert result["message"]["text"]


def test_lint_rules_catalog(capsys):
    assert lint.main(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "fix:" in out


def test_lint_text_and_json_modes(capsys):
    assert lint.main(["gcd", "--level", "full-dmr"]) == 0
    capsys.readouterr()
    assert lint.main(["gcd", "--json", "--fail-on", "none"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fail_on"] == "none"
    assert {run["program"] for run in report["runs"]} == {"gcd"}


def test_lint_rejects_unknown_inputs():
    with pytest.raises(SystemExit):
        lint.main(["no-such-program"])
    with pytest.raises(SystemExit):
        lint.main(["gcd", "--level", "quadruple"])


def test_rank_text_and_json_modes(capsys):
    assert rank.main(["gcd", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip(), "text ranking must print rows"
    assert rank.main(["gcd", "--json", "--cost-model", "cortex-a53"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report
    with pytest.raises(SystemExit):
        rank.main(["no-such-program"])


def test_verify_reports_non_equivalent_runs(capsys, monkeypatch):
    from repro.analysis.protect_verify import VerifyFinding, VerifyResult

    def fake_verify(name, level):
        return VerifyResult(
            module=name, level=level,
            findings=[VerifyFinding(name, "replica-mismatch", "tampered")],
        )

    monkeypatch.setattr(verify, "verify_program", fake_verify)
    status = verify.main(["gcd", "--level", "full-dmr"])
    out = capsys.readouterr().out
    assert status == 1
    assert "NOT EQUIVALENT" in out
    assert "replica-mismatch" in out

    status = verify.main(["gcd", "--level", "full-dmr", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1
    assert report["failures"] == 1
