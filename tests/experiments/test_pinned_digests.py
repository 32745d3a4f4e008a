"""Pin the colo / serve / taxonomy result digests by value.

``--check`` only compares a digest with a rerun's, so a change to the bytes
being hashed (or to the numbers behind them) would pass it unnoticed. These
pins catch that: each digest is the value the CLI's ``--json`` report
carries for a small, fast configuration.
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
