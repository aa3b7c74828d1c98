"""Suite-wide cross-check of the trusted internal Morphism path.

Internal results that are valid by construction skip the full checks of
``Morphism(...)`` (see the ``Morphism`` docstring) and are written as sparse
rows.  Every test runs with that trusted constructor wrapped: each morphism
it builds is also built by the validating constructor from the dense matrix
of its rows, which must accept it and store the same entries, of the same
types, with the same hash; and no stored row may hold a zero.
"""

import pytest
from hypothesis import settings

from dense import densify
from templikit.coeff import Morphism

# every property test replays the same examples: seeds derived from the test
# itself, no example database and no deadline.  Tests set only max_examples.
settings.register_profile("templikit", deadline=None, database=None, derandomize=True)
settings.load_profile("templikit")


def _entry_types(rows):
    return [{j: type(x) for j, x in row.items()} for row in rows]


@pytest.fixture(autouse=True)
def cross_check_trusted_morphisms(monkeypatch):
    trusted = Morphism._trusted

    def checked(domain, codomain, rows):
        fast = trusted(domain, codomain, rows)
        full = Morphism(domain, codomain, densify(domain.ring, rows, domain.ngens))
        assert fast == full
        assert _entry_types(fast.rows) == _entry_types(full.rows)
        assert hash(fast) == hash(full)
        zero = domain.ring.zero()
        assert all(x != zero for row in fast.rows for x in row.values())
        return fast

    monkeypatch.setattr(Morphism, "_trusted", staticmethod(checked))
