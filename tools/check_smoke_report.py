#!/usr/bin/env python3
"""Assert a ``--check --json`` smoke report is complete, per command.

``python tools/check_smoke_report.py <command> <report.json>`` loads the
report that ``python -m repro <command> --scale N --check --json`` wrote and
runs that command's completeness assertions (the CI ``check-smoke`` matrix
job runs it once per command). ``--check`` itself already gated determinism
and the command's result contract; these assertions pin the report's shape.
Exit status 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def colo(report: dict) -> None:
    assert set(report["tenants"]) == {"cnn", "dlrm"}, report["tenants"]
    assert report["attributed_stall_fraction"] >= 0.9, report
    slowdowns = [t["slowdown"] for t in report["tenants"].values()]
    assert max(slowdowns) > 1.0, "co-location caused no contention"
    print(
        f"fairness={report['fairness']} "
        f"attributed={report['attributed_stall_fraction']:.1%} "
        f"digest={report['digest'][:12]}"
    )


def serve(report: dict) -> None:
    assert len(report["digest"]) == 64, report["digest"]
    points = report["points"]
    assert len(points) == 3, [p["rate"] for p in points]
    deep = points[-1]
    assert deep["rejection_rate"] > 0, "overload shed no load"
    assert all(p["completed"] > 0 for p in points), points
    print(
        f"saturation={report['saturation_rate']} req/s "
        f"deep p99={deep['p99_seconds']}s "
        f"goodput={deep['goodput']} digest={report['digest'][:12]}"
    )


def taxonomy(report: dict) -> None:
    assert len(report["digest"]) == 64, report["digest"]
    expected = {
        "pointer-chase": "latency",
        "scan": "bandwidth",
        "tiny-objects": "capacity",
        "stream-compute": "compute",
    }
    for workload, klass in expected.items():
        entry = report["workloads"][workload]
        assert entry["verdict"] == klass, (workload, entry["verdict"])
        assert entry["monitor_verdict"] == klass, (workload, entry)
        assert entry["attributed_fraction"] >= 0.95, (workload, entry)
        assert entry["windows"], f"{workload}: no drill-down windows"
    tiny = report["workloads"]["tiny-objects"]
    assert any(c["kind"] == "evict" for c in tiny["causes"]), tiny
    print(
        " ".join(
            f"{w}={report['workloads'][w]['verdict']}"
            for w in expected
        )
        + f" digest={report['digest'][:12]}"
    )


CHECKS = {"colo": colo, "serve": serve, "taxonomy": taxonomy}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or args[0] not in CHECKS:
        print(
            f"usage: check_smoke_report.py {{{','.join(CHECKS)}}} REPORT.json",
            file=sys.stderr,
        )
        return 2
    command, path = args
    with open(path, encoding="utf-8") as fp:
        report = json.load(fp)
    try:
        CHECKS[command](report)
    except AssertionError as exc:
        print(f"{command} smoke report incomplete: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
