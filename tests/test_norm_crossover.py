"""``tools/norm_crossover.py`` builds the matrix it times from the package's public calls."""

import sys
from pathlib import Path

from foguel import operator_norm

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "norm_crossover.py"

sys.path.insert(0, str(SCRIPT.parent))
import norm_crossover  # noqa: E402


def test_exact_path_is_the_squared_norm_of_the_lifted_operator():
    w = norm_crossover.lifted(16)
    assert w.shape == (16, 16)
    expected = operator_norm(w) ** 2
    assert abs(norm_crossover.exact_path(w) - expected) <= 1e-12 * expected
