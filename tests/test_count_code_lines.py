"""The code-line counter in ``tools/count_code_lines.py``."""

import importlib.util
import pathlib
import textwrap

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
