"""CLI surface of the execution layer: --executor, --unit-timeout, --jobs."""

import io

import pytest

from repro.eval.cli import _campaign_runner, parse_args
from repro.exec import EXECUTOR_NAMES

CAMPAIGN_COMMANDS = ("run", "verify", "fuzz", "faults")


def _argv(command, *extra):
    # `repro run` requires at least one experiment name positionally.
    head = [command, "all"] if command == "run" else [command]
    return head + list(extra)


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
def test_executor_default_is_resolved_by_the_runner(command):
    args = parse_args(_argv(command))
    assert args.executor is None
    assert args.unit_timeout is None
    assert args.jobs == 1
    assert _campaign_runner(args, io.StringIO()).executor == "serial"


@pytest.mark.parametrize(
    "extra",
    [("-j", "2"), ("--unit-timeout", "5")],
    ids=["jobs", "unit-timeout"],
)
def test_parallel_jobs_or_a_unit_timeout_default_to_workers(extra):
    args = parse_args(_argv("verify", *extra, "--no-cache"))
    runner = _campaign_runner(args, io.StringIO())
    assert runner.executor == "workers"
    assert runner.unit_timeout == args.unit_timeout


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_every_backend_is_selectable_on_every_campaign(command, executor):
    args = parse_args(_argv(command, "--executor", executor))
    assert args.executor == executor


def test_unknown_executor_is_rejected(capsys):
    with pytest.raises(SystemExit):
        parse_args(["verify", "--executor", "threads"])
    assert "invalid choice" in capsys.readouterr().err


def test_unit_timeout_parses_as_seconds():
    args = parse_args(["faults", "--executor", "workers", "--unit-timeout", "2.5"])
    assert args.unit_timeout == 2.5


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "soon"])
def test_unit_timeout_must_be_a_finite_positive_number(bad, capsys):
    # A negative deadline used to kill every unit after one 50 ms poll.
    with pytest.raises(SystemExit):
        parse_args(["verify", "--executor", "workers", "--unit-timeout", bad])
    assert "finite number of seconds > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
def test_serial_executor_with_a_unit_timeout_is_rejected(command, capsys):
    with pytest.raises(SystemExit):
        parse_args(_argv(command, "--executor", "serial", "--unit-timeout", "5"))
    assert "serial executor cannot enforce a unit timeout" in capsys.readouterr().err


@pytest.mark.parametrize("command", CAMPAIGN_COMMANDS)
@pytest.mark.parametrize("bad", ["0", "-3"])
def test_zero_and_negative_jobs_are_rejected(command, bad, capsys):
    with pytest.raises(SystemExit):
        parse_args(_argv(command, "--jobs", bad))
    assert f"jobs must be >= 1, got {int(bad)}" in capsys.readouterr().err


def test_non_integer_jobs_is_rejected(capsys):
    with pytest.raises(SystemExit):
        parse_args(["run", "all", "-j", "many"])
    assert "jobs must be an integer" in capsys.readouterr().err


def test_positive_jobs_still_parse():
    assert parse_args(["verify", "-j", "4"]).jobs == 4
