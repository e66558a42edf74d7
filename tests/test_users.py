"""User records and arrival streams."""

import numpy as np
import pytest

from repro.ebsn.conflicts import ConflictGraph
from repro.ebsn.users import FixedUserStream, RosterUserStream, User, UserArrivalStream
from repro.exceptions import ConfigurationError
from repro.oracle.greedy import oracle_greedy


def test_user_capacity_must_be_positive():
    with pytest.raises(ConfigurationError):
        User(user_id=0, capacity=0)


def _arrange_with(capacity):
    return oracle_greedy(np.ones(3), ConflictGraph(3), np.ones(3), user_capacity=capacity)


@pytest.mark.parametrize(
    "entry", [lambda c: User(user_id=0, capacity=c), _arrange_with], ids=["User", "oracle"]
)
@pytest.mark.parametrize(
    "capacity, integral",
    [
        (float("nan"), False),
        (float("inf"), False),
        (float("-inf"), False),
        (2.5, False),
        (0, False),
        (1, True),
        (np.int64(3), True),
    ],
)
def test_capacity_must_be_an_integer_of_at_least_one(entry, capacity, integral):
    """Definition 3's ``c_u`` is a count: NaN used to pass as unbounded."""
    if integral:
        entry(capacity)
    else:
        with pytest.raises(ConfigurationError):
            entry(capacity)


def test_stream_draws_capacities_in_range():
    stream = UserArrivalStream(min_capacity=1, max_capacity=5, seed=0)
    users = list(stream.take(200))
    assert all(1 <= u.capacity <= 5 for u in users)
    assert {u.capacity for u in users} == {1, 2, 3, 4, 5}


def test_stream_assigns_increasing_user_ids():
    stream = UserArrivalStream(seed=0)
    ids = [stream.next_user().user_id for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_stream_is_deterministic_in_seed():
    a = [u.capacity for u in UserArrivalStream(seed=9).take(20)]
    b = [u.capacity for u in UserArrivalStream(seed=9).take(20)]
    assert a == b


def test_stream_validation():
    with pytest.raises(ConfigurationError):
        UserArrivalStream(min_capacity=0)
    with pytest.raises(ConfigurationError):
        UserArrivalStream(min_capacity=3, max_capacity=2)


def test_fixed_stream_repeats_the_same_user():
    user = User(user_id=7, capacity=3)
    stream = FixedUserStream(user)
    assert [stream.next_user().user_id for _ in range(3)] == [7, 7, 7]


def test_roster_stream_cycles_in_order():
    roster = [User(user_id=i, capacity=1) for i in range(3)]
    stream = RosterUserStream(roster)
    ids = [stream.next_user().user_id for _ in range(7)]
    assert ids == [0, 1, 2, 0, 1, 2, 0]


def test_roster_stream_requires_users():
    with pytest.raises(ConfigurationError):
        RosterUserStream([])
