"""The docs audit script: reachability, links, CLI mentions."""

import importlib.util
from pathlib import Path

import pytest

from repro.cli import COMMANDS

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def cli_table(commands) -> str:
    """A README "CLI reference" section listing ``commands``."""
    rows = "".join(
        f"| `{name}` | {description} | `docs/guide.md` |\n"
        for name, description in commands.items()
    )
    return (
        "### CLI reference\n\n| Command | What it does | Docs |\n"
        f"|---|---|---|\n{rows}\n## Next section\n"
    )


REGISTRY = {name: description for name, (_, description) in COMMANDS.items()}


@pytest.fixture()
def repo(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "# Demo\n\nSee `docs/guide.md` and [the API](docs/api.md).\n"
        "Run `python -m repro bench --quick` first.\n\n" + cli_table(REGISTRY)
    )
    (tmp_path / "docs" / "guide.md").write_text(
        "Back to [README](../README.md). Also `python -m repro serve`.\n"
    )
    (tmp_path / "docs" / "api.md").write_text("API notes.\n")
    return tmp_path


class TestCheckRepo:
    def test_clean_tree_passes(self, repo):
        assert check_docs.check_repo(repo) == []

    def test_orphan_docs_page_flagged(self, repo):
        (repo / "docs" / "lost.md").write_text("nobody links here\n")
        problems = check_docs.check_repo(repo)
        assert any("lost.md" in p and "not reachable" in p for p in problems)

    def test_transitive_reachability_counts(self, repo):
        # README -> guide.md -> deep.md: reachable through a chain.
        (repo / "docs" / "guide.md").write_text("See `docs/deep.md`.\n")
        (repo / "docs" / "deep.md").write_text("deep\n")
        assert check_docs.check_repo(repo) == []

    def test_broken_relative_link_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text("[gone](missing.md)\n")
        problems = check_docs.check_repo(repo)
        assert any(
            "guide.md" in p and "broken link" in p and "missing.md" in p
            for p in problems
        )

    def test_external_links_and_anchors_ignored(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "[web](https://example.com) [sec](#heading) "
            "[frag](../README.md#demo)\n"
        )
        assert check_docs.check_repo(repo) == []

    def test_unknown_cli_subcommand_flagged(self, repo):
        (repo / "docs" / "guide.md").write_text(
            "Try `python -m repro frobnicate --fast`.\n"
        )
        problems = check_docs.check_repo(repo)
        assert any("frobnicate" in p for p in problems)

    def test_known_subcommands_accepted(self, repo):
        names = " ".join(
            f"`python -m repro {cmd}`"
            for cmd in ("serve", "colo", "bench", "profile", "table3")
        )
        (repo / "docs" / "guide.md").write_text(names + "\n")
        assert check_docs.check_repo(repo) == []


class TestCliTable:
    def _readme(self, repo, commands):
        (repo / "README.md").write_text(
            "# Demo\n\nSee `docs/guide.md` and [the API](docs/api.md).\n\n"
            + cli_table(commands)
        )

    def test_missing_command_flagged(self, repo):
        commands = dict(REGISTRY)
        del commands["taxonomy"]
        self._readme(repo, commands)
        assert check_docs.check_repo(repo) == [
            "README.md: CLI reference lacks 'taxonomy'"
        ]

    def test_unregistered_command_flagged(self, repo):
        self._readme(repo, {**REGISTRY, "frobnicate": "does nothing"})
        problems = check_docs.check_repo(repo)
        assert len(problems) == 1
        assert "'frobnicate', which is not a registered command" in problems[0]

    def test_description_must_match_the_registry(self, repo):
        self._readme(repo, {**REGISTRY, "serve": "serves coffee"})
        problems = check_docs.check_repo(repo)
        assert len(problems) == 1
        assert "describes 'serve' as 'serves coffee'" in problems[0]
        assert REGISTRY["serve"] in problems[0]

    def test_missing_section_flagged(self, repo):
        (repo / "README.md").write_text(
            "# Demo\n\nSee `docs/guide.md` and [the API](docs/api.md).\n"
        )
        assert check_docs.check_repo(repo) == [
            "README.md: no '### CLI reference' section"
        ]

    def test_table_ends_at_the_next_heading(self, repo):
        # A table after the section's end is not the CLI reference.
        commands = dict(REGISTRY)
        del commands["bench"]
        self._readme(repo, commands)
        text = (repo / "README.md").read_text()
        (repo / "README.md").write_text(
            text + "| `bench` | " + REGISTRY["bench"] + " | x |\n"
        )
        assert check_docs.check_repo(repo) == [
            "README.md: CLI reference lacks 'bench'"
        ]


class TestMain:
    def test_exit_status_reflects_problems(self, repo, capsys):
        assert check_docs.main(["--root", str(repo)]) == 0
        assert "clean" in capsys.readouterr().out
        (repo / "docs" / "lost.md").write_text("orphan\n")
        assert check_docs.main(["--root", str(repo)]) == 1
        assert "lost.md" in capsys.readouterr().out


class TestRealRepo:
    def test_this_repository_is_clean(self):
        assert check_docs.check_repo(REPO_ROOT) == []
