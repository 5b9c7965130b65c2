"""The shared status rule: errored units fail every campaign, loudly.

A unit that produces no verdict resolves to a ``status: "error"``
placeholder record.  ``verify``, ``fuzz`` (plain and soak), ``faults``
and ``run`` must all count it as a failure — exit 1 with a FAILED line
naming the unit — and leave it out of pattern, margin and injection
totals.  Most errors here are injected by making circuit construction
raise on the in-process serial backend, so they are deterministic.
"""

import pytest

from repro.eval import Runner, cli
from repro.exec.status import classify, verified_patterns
from repro.faults import FaultCampaign
from repro.verify import VerificationSpec

BROKEN = "s27"


@pytest.fixture
def broken_builds(monkeypatch):
    """Make building ``BROKEN`` (or any generated circuit) raise."""
    import repro.faults.campaign as faults_campaign
    import repro.verify.campaign as verify_campaign

    real = verify_campaign.build_circuit

    def build(name, scale="quick"):
        if name == BROKEN or name.startswith("gen:"):
            raise RuntimeError(f"cannot build {name}")
        return real(name, scale)

    monkeypatch.setattr(verify_campaign, "build_circuit", build)
    monkeypatch.setattr(faults_campaign, "build_circuit", build)


@pytest.mark.parametrize(
    ("status", "outcome"),
    [
        ("equivalent", "pass"),
        ("skipped", "pass"),
        ("tolerated", "pass"),
        ("miscompare", "pass"),
        ("counterexample", "fail"),
        ("nominal-miscompare", "fail"),
        ("error", "error"),
    ],
)
def test_every_status_has_one_outcome(status, outcome):
    assert classify({"status": status}) == outcome


def test_error_placeholders_are_not_counted_as_results(broken_builds):
    runner = Runner(jobs=1, cache=None)
    report = runner.verify(
        [VerificationSpec(circuit="ctrl", patterns=16), VerificationSpec(circuit=BROKEN, patterns=16)]
    )
    healthy, errored = report.records
    assert errored["patterns"] == 16  # the placeholder keeps the request...
    assert verified_patterns(errored) == 0  # ...but verified nothing
    assert report.total_patterns() == verified_patterns(healthy) > 0
    assert report.summary()["total_patterns"] == report.total_patterns()
    assert "RuntimeError: cannot build s27" in report.table().splitlines()[3]

    faults = runner.faults(
        FaultCampaign(circuits=(BROKEN,), kinds=("jitter",), patterns=8, margin=True)
    )
    summary = faults.summary()
    assert (summary["margins_found"], summary["total_injections"]) == (0, 0)
    assert summary["all_nominal_equivalent"] is False
    row = faults.table().splitlines()[2].split()
    assert row[4:7] == ["ERROR", "0", "-"]
    assert " ".join(row[7:]) == "RuntimeError: cannot build s27"


def test_verify_fails_on_an_errored_unit(broken_builds, capsys):
    argv = ["verify", "--circuit", "ctrl", "--circuit", BROKEN, "--patterns", "16", "--no-cache", "-q"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "all_equivalent: False" in out
    assert "FAILED with error: s27: RuntimeError: cannot build s27" in out


def test_fuzz_fails_on_errored_units_without_shrinking_them(broken_builds, monkeypatch, capsys):
    def no_shrink(*args, **kwargs):
        raise AssertionError("errored units must not be shrunk")

    monkeypatch.setattr("repro.eval.runner.shrink_unit", no_shrink)
    assert cli.main(["fuzz", "--budget", "1", "--flows", "default", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "all_equivalent: False" in out and "total_patterns: 0" in out
    assert "flow=default: RuntimeError: cannot build gen:" in out
    assert "1 failures" not in out and "0 failures, 1 errors" in out


def test_faults_fails_on_an_errored_unit(broken_builds, capsys):
    argv = ["faults", "--circuit", BROKEN, "--kinds", "skew", "--patterns", "8", "--no-cache", "-q"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "all_nominal_equivalent: False" in out
    assert "FAILED with error: s27 fault:skew:" in out
    assert "flow=default: RuntimeError: cannot build s27" in out


def test_soak_fails_on_an_errored_unit(broken_builds, tmp_path, capsys):
    argv = [
        "fuzz", "--soak", "--budget", "1", "--flows", "default",
        "--checkpoint", str(tmp_path), "--no-cache", "-q",
    ]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "0 failures, 1 errors" in out
    assert "FAILED with error: gen:" in out

    # The merged view of the checkpoint reads the same rule.
    assert cli.main(["fuzz", "--merge", "--checkpoint", str(tmp_path), "-q"]) == 1


def test_run_fails_on_an_errored_synthesis_job(capsys):
    # The job is killed at its deadline; it must not be re-synthesised
    # without one and assembled into a table.
    argv = ["run", "table4", "--circuits", "sin", "--unit-timeout", "0.001", "--no-cache", "-q"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "FAILED with error: sin@quick: Timeout:" in out
    assert "Circuit" not in out
