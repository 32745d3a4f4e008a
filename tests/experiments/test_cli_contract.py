"""The CLI's command registry, its one ``--check`` harness, and argument
validation."""

import importlib
import json
import sys
import types
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import main
from repro.experiments.colo import check_colo


class _StubResult:
    def __init__(self, value):
        self.value = value

    def to_json(self):
        return {"value": self.value}

    def digest(self):
        return f"digest-{self.value}"


def _stub_module(problems=(), *, deterministic=True):
    """A command module: ``run(config)``, ``render``, ``check`` + lines."""
    module = types.ModuleType("stub_command")
    runs = []

    def run(config):
        runs.append(config)
        value = config.scale if deterministic else config.scale + len(runs)
        return _StubResult(value)

    module.run = run
    module.render = lambda result: f"stub value {result.value}"
    module.check = lambda result: list(problems)
    module.CHECK_FAIL = "STUB FAIL"
    module.CHECK_PASS = "stub: value {result.value} is fine"
    module.runs = runs
    return module


@pytest.fixture()
def register(monkeypatch):
    """Register a module as the ``stub`` command: one registry line."""

    def _register(module):
        monkeypatch.setitem(sys.modules, module.__name__, module)
        monkeypatch.setitem(
            cli.COMMANDS, "stub", (module.__name__, "a stub command")
        )
        return module

    return _register


class TestRegistry:
    def test_new_command_passes_check(self, register, capsys):
        module = register(_stub_module())
        assert main(["stub", "--scale", "3", "--check", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"value": 3}
        assert captured.err.splitlines() == [
            "determinism: digests match across repeated runs",
            "stub: value 3 is fine",
        ]
        assert len(module.runs) == 2  # the run plus the --check rerun

    def test_new_command_failing_check_exits_1(self, register, capsys):
        register(_stub_module(["value is odd", "value is small"]))
        assert main(["stub", "--scale", "3", "--check", "--json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"value": 3}
        assert captured.err.splitlines() == [
            "determinism: digests match across repeated runs",
            "STUB FAIL: value is odd",
            "STUB FAIL: value is small",
        ]

    def test_nondeterministic_command_fails_check(self, register, capsys):
        register(_stub_module(deterministic=False))
        assert main(["stub", "--scale", "3", "--check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "stub value 4",
            "DETERMINISM FAIL: digests differ across identical runs "
            "(digest-4 vs digest-5)",
            "stub: value 4 is fine",
        ]

    def test_without_check_runs_once(self, register, capsys):
        module = register(_stub_module(["never consulted"]))
        assert main(["stub", "--scale", "5"]) == 0
        assert capsys.readouterr().out == "stub value 5\n"
        assert len(module.runs) == 1

    def test_help_and_subcommands_come_from_the_registry(self, capsys):
        assert cli.SUBCOMMANDS == tuple(cli.COMMANDS)
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name, (_, description) in cli.COMMANDS.items():
            assert f"  {name}" in out
            assert description in out

    def test_every_module_command_has_the_contract(self):
        for name, (implementation, _) in cli.COMMANDS.items():
            if callable(implementation):
                continue
            module = importlib.import_module(implementation)
            assert callable(getattr(module, "render")), name
            assert hasattr(module, "run") or hasattr(module, "from_args"), name
            if hasattr(module, "check"):
                assert module.CHECK_FAIL.endswith("FAIL"), name
                assert module.CHECK_PASS, name


class TestCheckColo:
    def test_attributed_run_passes(self):
        assert check_colo(SimpleNamespace(attributed_fraction=0.95)) == []

    def test_unattributed_run_fails(self):
        assert check_colo(SimpleNamespace(attributed_fraction=0.5)) == [
            "only 50.0% of stall time attributed (need >= 90%)"
        ]


@pytest.fixture()
def tiny_jsonl(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    assert main(
        [
            "profile", "--model", "tiny", "--scale", "256",
            "--iterations", "1", "--jsonl", str(path),
        ]
    ) == 0
    capsys.readouterr()
    return str(path)


class TestPositionalPathsAfterOptions:
    def test_explain_either_order(self, tiny_jsonl, capsys):
        assert main(["explain", tiny_jsonl, "--window", "4", "--json"]) == 0
        before = capsys.readouterr().out
        assert main(["explain", "--window", "4", "--json", tiny_jsonl]) == 0
        assert capsys.readouterr().out == before
        assert json.loads(before)["ledger"]["objects"]

    def test_monitor_either_order(self, tiny_jsonl, capsys):
        assert main(["monitor", tiny_jsonl, "--json"]) == 0
        before = capsys.readouterr().out
        assert main(["monitor", "--json", tiny_jsonl]) == 0
        assert capsys.readouterr().out == before
        assert json.loads(before)["events_seen"] > 0


def _argparse_error(argv, capsys) -> str:
    """Run ``argv``, expect argparse's exit 2, return the error line."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


class TestBadInput:
    @pytest.mark.parametrize("flag", ["--scale", "--iterations"])
    def test_non_positive_counts_rejected(self, flag, capsys):
        line = _argparse_error(["fig4", flag, "0"], capsys)
        assert line == (
            f"cachedarrays: error: argument {flag}: "
            "must be a positive integer, got '0'"
        )

    def test_non_integer_scale_rejected(self, capsys):
        line = _argparse_error(["fig4", "--scale", "big"], capsys)
        assert "must be a positive integer, got 'big'" in line

    def test_empty_workload_list_is_a_configuration_error(self, capsys):
        assert main(["taxonomy", "--workloads", ","]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown workloads []")
        assert len(err.splitlines()) == 1

    def test_empty_mode_list_is_a_configuration_error(self, capsys):
        assert main(["taxonomy", "--modes", ","]) == 2
        err = capsys.readouterr().err
        assert "reference mode" in err and len(err.splitlines()) == 1

    def test_snapshot_pause_after_zero_rejected(self, tmp_path, capsys):
        line = _argparse_error(
            [
                "snapshot", "--model", "tiny", "--pause-after", "0",
                "--out", str(tmp_path / "s.bin"),
            ],
            capsys,
        )
        assert "--pause-after: must be a positive integer" in line

    def test_restore_pause_after_zero_rejected(self, tmp_path, capsys):
        line = _argparse_error(
            ["restore", str(tmp_path / "s.bin"), "--pause-after", "0"], capsys
        )
        assert "--pause-after: must be a positive integer" in line

    def test_snapshot_uses_the_given_pause_point(self, tmp_path, capsys):
        out = tmp_path / "s.bin"
        assert main(
            [
                "snapshot", "--model", "tiny", "--scale", "256",
                "--pause-after", "3", "--out", str(out),
            ]
        ) == 0
        assert "after 3 kernels" in capsys.readouterr().out


class TestModelKeys:
    """trace, profile, monitor and snapshot resolve --model one way."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace"],
            ["profile"],
            ["monitor"],
            ["snapshot", "--pause-after", "1"],
        ],
    )
    def test_unknown_model_same_message(self, argv, capsys):
        assert main([*argv, "--model", "nosuch", "--scale", "256"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown model 'nosuch'; known: ")
        assert "tiny" in err and "resnet200-large" in err

    def test_trace_accepts_tiny(self, tmp_path, capsys):
        out = tmp_path / "tiny.json"
        assert main(
            ["trace", "--model", "tiny", "--scale", "256", "--out", str(out)]
        ) == 0
        assert "filo12/scale256" in capsys.readouterr().out

    def test_tiny_snapshot_restore_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        snap = tmp_path / "tiny.snap"
        common = ["--model", "tiny", "--scale", "256"]
        assert main(
            ["snapshot", *common, "--pause-after", "5", "--out", str(snap)]
        ) == 0
        assert "after 5 kernels" in capsys.readouterr().out
        assert main(["restore", str(snap)]) == 0
        restored = capsys.readouterr().out.split()[-1]
        assert main(["snapshot", *common, "--pause-after", "999999"]) == 0
        straight = capsys.readouterr().out.split()[-1]
        assert len(restored) == 64
        assert restored == straight
