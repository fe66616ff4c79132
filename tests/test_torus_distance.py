"""The decoder's one torus-distance rule against the hand-rolled oracle."""

import pytest

from memlab.decoder import _distances_to

from _oracles import torus_dist


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_cached_rows_equal_the_oracle_for_every_pair(L):
    """Odd L, and at even L the wrap-around tie at distance L/2."""
    for b in range(L * L):
        row = _distances_to(b, L)
        assert len(row) == L * L
        for s in range(L * L):
            assert row[s] == torus_dist((s % L, s // L), (b % L, b // L), L)
