"""Suite-wide cross-check of the trusted internal Morphism path.

Internal results that are valid by construction skip the full checks of
``Morphism(...)`` (see the ``Morphism`` docstring).  Every test runs with
that trusted constructor wrapped: each morphism it builds is also built by
the validating constructor, which must accept the same matrix and store the
same entries, of the same types.
"""

import pytest
from hypothesis import settings

from templikit.coeff import Morphism

# every property test replays the same examples: seeds derived from the test
# itself, no example database and no deadline.  Tests set only max_examples.
settings.register_profile("templikit", deadline=None, database=None, derandomize=True)
settings.load_profile("templikit")


def _entry_types(matrix):
    return [[type(x) for x in row] for row in matrix]


@pytest.fixture(autouse=True)
def cross_check_trusted_morphisms(monkeypatch):
    trusted = Morphism._trusted

    def checked(domain, codomain, matrix):
        fast = trusted(domain, codomain, matrix)
        full = Morphism(domain, codomain, matrix)
        assert fast == full
        assert _entry_types(fast.matrix) == _entry_types(full.matrix)
        return fast

    monkeypatch.setattr(Morphism, "_trusted", staticmethod(checked))
