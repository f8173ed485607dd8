"""The code-line counter in ``tools/count_code_lines.py``."""

import importlib.util
import pathlib
import shutil
import subprocess
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "count_code_lines", ROOT / "tools" / "count_code_lines.py"
)
counter = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(counter)

SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    import math  # a trailing comment: the line is code

    # a full-line comment


    class Thing:
        """Class docstring."""

        size = 3

        def method(self, x):
            """Method docstring
            over
            three lines."""
            return math.sqrt(
                x
                + self.size
            )


    async def fetch():
        """Async docstring."""
        return 1


    def no_docstring():
        label = """a multi-line string
    that is not a docstring"""
        "a bare string after the first statement is no docstring"
        return label
    '''
)

#: ``import``, ``class``, ``size``, ``def method``, its four-line
#: ``return``, ``async def``, its ``return``, ``def no_docstring``, the
#: two lines of ``label``, the bare string and the last ``return``
EXPECTED = 1 + 1 + 1 + 1 + 4 + 1 + 1 + 1 + 2 + 1 + 1


def test_counts_code_lines_outside_comments_blanks_and_docstrings():
    assert counter.code_lines(SOURCE) == EXPECTED


def test_docstring_lines_are_those_of_module_class_and_function_docstrings():
    lines = SOURCE.splitlines()
    docstrings = sorted(counter.docstring_lines(SOURCE))
    assert [lines[i - 1].strip() for i in docstrings] == [
        '"""Module docstring,',
        'over two lines."""',
        '"""Class docstring."""',
        '"""Method docstring',
        "over",
        'three lines."""',
        '"""Async docstring."""',
    ]


def test_a_file_of_only_comments_and_docstrings_has_no_code_lines():
    assert counter.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_counts_the_package(capsys):
    assert counter.main([]) == 0
    total = int(capsys.readouterr().out.strip())
    files = sorted((ROOT / "src" / "blockdiag").glob("*.py"))
    assert total == sum(counter.code_lines(f.read_text()) for f in files) > 0


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not on PATH")
def test_rev_counts_each_module_at_the_revision_and_in_the_working_tree(
    tmp_path, monkeypatch, capsys
):
    """On a two-commit repository, ``--rev HEAD~1`` reads the first commit
    (not the second) and the working tree, with a module on one side only
    counted 0 on the other, and writes nothing."""
    package = tmp_path / "src" / "blockdiag"
    package.mkdir(parents=True)

    def git(*args: str) -> str:
        command = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
        return subprocess.run([*command, *args], check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "gone.py").write_text("z = 3\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (package / "a.py").write_text("x = 1\ny = 2\nw = 4\n")
    git("commit", "-q", "-am", "second")
    (package / "a.py").write_text('"""Docstring."""\nx = 1\n')
    (package / "gone.py").unlink()
    (package / "new.py").write_text("n = 1\nm = 2\n")
    (package / "notes.txt").write_text("not a module\n")
    status = git("status", "--porcelain")
    monkeypatch.setattr(counter, "ROOT", tmp_path)
    assert counter.main(["--rev", "HEAD~1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "HEAD~1", "tree", "change"]
    assert {line.split()[0]: line.split()[1:] for line in lines} == {
        "a.py": ["2", "1", "-1"],
        "gone.py": ["1", "0", "-1"],
        "new.py": ["0", "2", "+2"],
        "total": ["3", "3", "+0"],
    }
    assert counter.counts_at("HEAD") == {"a.py": 3, "gone.py": 1}
    assert git("status", "--porcelain") == status
