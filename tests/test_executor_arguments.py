"""run_work_units rejects nonsense arguments before any unit runs."""

import pytest

from repro.exceptions import ConfigurationError
from repro.parallel import run_work_units


def _square(value: int) -> int:
    return value * value


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("timeout", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_timeout_is_a_configuration_error(jobs, timeout):
    with pytest.raises(ConfigurationError, match="finite"):
        run_work_units(_square, [1, 2], jobs=jobs, timeout=timeout)
