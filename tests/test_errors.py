import math

import numpy as np
import pytest

from tokenmorph import InvalidParameterError
from tokenmorph.errors import require_count, require_fraction, require_threshold

CHECKS = {
    "count": (lambda value: require_count("k", value, 1),
              "k must be an integer >= 1", [1, 7, np.int64(3)], [0, 3.0, "3", None]),
    "fraction": (lambda value: require_fraction("k", value),
                 r"k must be in \[0, 1\]", [0, 0.0, 0.3, 1, np.float64(1.0)],
                 [-0.1, 1.5, math.nan, math.inf]),
    "threshold": (lambda value: require_threshold("k", value),
                  "k must be a finite number > 0", [1e-300, 1, 1e300, np.float32(2.0)],
                  [0.0, -1.0, math.nan, math.inf, -math.inf]),
}


@pytest.mark.parametrize("kind", CHECKS)
def test_each_check_takes_its_values(kind):
    check, _, good, _ = CHECKS[kind]
    for value in good:
        check(value)


@pytest.mark.parametrize("kind", CHECKS)
def test_each_check_rejects_other_values_and_bools(kind):
    # A bool compares as 0 or 1 but is none of these kinds of value.
    check, message, _, bad = CHECKS[kind]
    for value in [*bad, True, False, np.True_, np.False_]:
        with pytest.raises(InvalidParameterError, match=f"^{message}, got {value!r}$"):
            check(value)
