from code_lines import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code still counts


def f(x):
    """A function docstring."""
    # a comment line
    return os.path.join(
        x, "y")
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, def, and the return split over two lines
    assert code_lines(SOURCE) == 4
