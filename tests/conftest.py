"""Fixtures shared by the test files."""

import pytest

from artifact import characters
from artifact.characters import clear_memo


@pytest.fixture
def corrupted_row():
    """corrupted_row(shape, size, row, keep=()) stores row as the dense row
    of shape over the classes of S_size: the tests' one write to the row
    store.

    Every store is emptied before the write and again at teardown, so
    nothing built from the wrong row outlives the test: not a conjugate's
    row read through it, nor a cached ClassSum or engine level.  The true
    rows of the shapes in keep are built in between, so none of them is
    read through the wrong row.
    """

    def corrupt(shape, size, row, keep=()):
        clear_memo()
        for other in keep:
            characters.strip_row(other, size)
        characters._rows[characters._word(shape), size] = tuple(row)

    yield corrupt
    clear_memo()
