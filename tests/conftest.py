import sys

import pytest

from agreeable import candidate_society, linear_society


@pytest.fixture
def seven_voter_society():
    """Seven intervals in two overlapping clusters.

    Agreement number 4 (witness platform 10, voters v4..v7), every three
    voters contain an agreeing pair, but voters v1,v2,v4,v7 have no
    three-way common platform.  Restricting to candidates {3, 9} leaves
    voter v7 approving nothing.
    """
    return linear_society(
        [(1, 4), (2, 5), (3, 7), (6, 11), (8, 13), (8, 10), (10, 15)]
    )


@pytest.fixture
def consensus_candidate_society():
    """Six voters, four candidates, everyone approves candidate 6."""
    return candidate_society(
        [2, 4, 6, 8],
        [(2, 8), (4, 8), (5, 9), (6, 6), (3, 7), (6, 10)],
    )


@pytest.fixture
def default_int_digit_limit():
    """Python's default bound on decimal integer strings (4300 digits),
    whatever the environment sets."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)
