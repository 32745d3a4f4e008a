"""The code-line counter in tools/count_code_lines.py."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "count_code_lines", REPO_ROOT / "tools" / "count_code_lines.py"
)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import os  # a trailing comment


class Thing:
    """Class docstring."""

    limit = 3

    def run(self, items):
        """Function docstring,

        over three lines."""
        text = """a multi-line
string that is not a docstring"""
        total = (
            len(items)
            + self.limit
        )
        return text, total, os.sep
'''


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks():
    # import, class, limit, def, the two string lines, the four lines of
    # the bracketed sum, return.
    assert count_code_lines.count_code_lines(FIXTURE) == 11


def test_docstring_lines_cover_module_class_and_function():
    import ast

    assert count_code_lines.docstring_lines(ast.parse(FIXTURE)) == {
        1, 2, 9, 14, 15, 16,
    }


def test_main_prints_per_file_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    single = tmp_path / "pkg" / "b.py"
    assert count_code_lines.main([str(tmp_path / "pkg"), str(single)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["11", "1", "12"]
    assert lines[-1].split()[1] == "total"


def test_main_without_paths_is_a_usage_error(capsys):
    assert count_code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
