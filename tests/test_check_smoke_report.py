"""The CI smoke-report assertions, keyed by command."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_smoke_report", REPO_ROOT / "tools" / "check_smoke_report.py"
)
check_smoke_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_smoke_report)

DIGEST = "ab" * 32


def _colo():
    return {
        "tenants": {"cnn": {"slowdown": 1.4}, "dlrm": {"slowdown": 1.1}},
        "attributed_stall_fraction": 1.0,
        "fairness": 1.27,
        "digest": DIGEST,
    }


def _serve():
    point = {"rate": 1.0, "completed": 5, "rejection_rate": 0.0,
             "p99_seconds": 1.0, "goodput": 1.0}
    return {
        "digest": DIGEST,
        "saturation_rate": 2.0,
        "points": [point, point, {**point, "rejection_rate": 0.2}],
    }


def _taxonomy():
    expected = {
        "pointer-chase": "latency",
        "scan": "bandwidth",
        "tiny-objects": "capacity",
        "stream-compute": "compute",
    }
    return {
        "digest": DIGEST,
        "workloads": {
            workload: {
                "verdict": klass,
                "monitor_verdict": klass,
                "attributed_fraction": 1.0,
                "windows": [{}],
                "causes": [{"kind": "evict"}],
            }
            for workload, klass in expected.items()
        },
    }


def _run(tmp_path, command, report):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(report))
    return check_smoke_report.main([command, str(path)])


@pytest.mark.parametrize(
    "command, report",
    [("colo", _colo()), ("serve", _serve()), ("taxonomy", _taxonomy())],
)
def test_complete_report_passes(tmp_path, capsys, command, report):
    assert _run(tmp_path, command, report) == 0
    assert DIGEST[:12] in capsys.readouterr().out


def test_colo_without_contention_fails(tmp_path, capsys):
    report = _colo()
    for tenant in report["tenants"].values():
        tenant["slowdown"] = 1.0
    assert _run(tmp_path, "colo", report) == 1
    assert "no contention" in capsys.readouterr().err


def test_serve_without_shedding_fails(tmp_path, capsys):
    report = _serve()
    report["points"][-1]["rejection_rate"] = 0.0
    assert _run(tmp_path, "serve", report) == 1
    assert "shed no load" in capsys.readouterr().err


def test_taxonomy_wrong_verdict_fails(tmp_path, capsys):
    report = _taxonomy()
    report["workloads"]["scan"]["verdict"] = "latency"
    assert _run(tmp_path, "taxonomy", report) == 1
    assert "scan" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(tmp_path, capsys):
    assert check_smoke_report.main(["bench", str(tmp_path / "x.json")]) == 2
    assert "usage" in capsys.readouterr().err
