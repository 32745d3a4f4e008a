"""Pin the colo / serve / taxonomy result digests and the trace analyzers'
output by value.

``--check`` only compares a digest with a rerun's, so a change to the bytes
being hashed (or to the numbers behind them) would pass it unnoticed. These
pins catch that: each digest is the value the CLI's ``--json`` report
carries for a small, fast configuration. The trace analyzers (``explain``,
``diff``, ``profile``) have no digest of their own, so their pins hash the
whole stdout report.
"""

import json

import pytest

from repro.cli import main

PINNED = {
    "colo": (
        ["colo", "--scale", "4096", "--iterations", "1"],
        "3d62a061fc9b90ccab998f4dbc8bfe3b3c1731d161397ac1348070f6d8034ce8",
    ),
    "serve": (
        ["serve", "--scale", "1024", "--requests", "30"],
        "6a1d9637977ca5e556f9f057061fcec1263d61d19127690ef8257939a08348ee",
    ),
    "taxonomy": (
        [
            "taxonomy", "--scale", "2048",
            "--workloads", "pointer-chase", "--modes", "CA:0,CA:LM",
        ],
        "96080c233274729221bff552efed3f3ec04fd58c2475b743dea1dcea267f6955",
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_digest_is_pinned(command, capsys):
    argv, expected = PINNED[command]
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == expected


# -- trace analyzers: explain / diff / profile output, pinned by hash ---------


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def analyzer_traces(tmp_path_factory):
    """The explain-smoke inputs (tiny CA:LM / CA:LMP at scale 256) plus a
    two-tenant co-located trace, all written as JSONL."""
    from repro.experiments.colo import _run_group, _tenant_traces
    from repro.experiments.common import ExperimentConfig
    from repro.policies.modes import mode
    from repro.telemetry.export import write_jsonl

    root = tmp_path_factory.mktemp("analyzers")
    paths = {}
    for key, name in (("lm", "CA:LM"), ("lmp", "CA:LMP")):
        paths[key] = root / f"{key}.jsonl"
        argv = [
            "profile", "--model", "tiny", "--scale", "256", "--mode", name,
            "--jsonl", str(paths[key]),
        ]
        assert main(argv) == 0
    config = ExperimentConfig(scale=4096, iterations=1, tracing=True)
    mode_cfg = mode("CA:LM")
    _, _, runtime = _run_group(
        _tenant_traces(("cnn", "dlrm"), config, mode_cfg), config, mode_cfg
    )
    paths["colo"] = root / "colo.jsonl"
    with open(paths["colo"], "w", encoding="utf-8") as fp:
        write_jsonl(runtime.tracer.events, fp)
    runtime.close()
    return root, paths


ANALYZER_PINS = {
    "explain": (
        ["explain", "{lmp}", "--json"],
        "367a66d0c5246d11f2a6ef890d1db73f6a5a5966d553b0ce3f7a95ba7e5c8401",
    ),
    "diff": (
        ["diff", "{lm}", "{lmp}", "--json"],
        "9e95399d1e7ebca6ad4560c49db09da21697f73a6288e0c00b4785d6cb98331b",
    ),
    "explain-colo": (
        ["explain", "{colo}", "--json"],
        "12284058df681f3e7bae8ac1e56fbe98a8f9b417498efd19b1e86659f9d37138",
    ),
}


@pytest.mark.parametrize("command", sorted(ANALYZER_PINS))
def test_analyzer_output_is_pinned(command, analyzer_traces, capsys):
    root, paths = analyzer_traces
    argv, expected = ANALYZER_PINS[command]
    argv = [arg.format(**paths) for arg in argv]
    capsys.readouterr()
    assert main(argv) == 0
    # The report names its input paths (run / run_a / run_b); normalise the
    # temporary directory away so the hash pins the analysis only.
    out = capsys.readouterr().out.replace(str(root), "<traces>")
    assert _sha256(out) == expected


def test_profile_report_is_pinned(capsys):
    argv = ["profile", "--model", "tiny", "--scale", "256", "--mode", "CA:LMP"]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == (
        "395b137b52d8478871f4834e29f491c51e43303bcd14d2bc663328f0a84b0c9d"
    )
