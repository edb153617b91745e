"""The lex-min tie-breaking rule (paper Section 3.1)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lexmin import lexmin_pair


class TestLexminPair:
    def test_smaller_count_wins(self):
        assert lexmin_pair([(5, 0), (2, 3)]) == (2, 3)

    def test_ties_broken_by_id(self):
        assert lexmin_pair([(2, 4), (2, 1)]) == (2, 1)

    def test_single_element(self):
        assert lexmin_pair([(7, 7)]) == (7, 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lexmin_pair([])

    def test_paper_ordering_definition(self):
        """(a, i) < (b, j) iff a < b or (a = b and i < j)."""
        assert lexmin_pair([(1, 9), (2, 0)]) == (1, 9)


class TestLexminProperties:
    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 31)), min_size=1, max_size=30))
    def test_matches_sorted(self, pairs):
        assert lexmin_pair(pairs) == sorted(pairs)[0]

    @given(st.dictionaries(st.integers(0, 31), st.integers(0, 100), min_size=1, max_size=16))
    def test_winner_has_minimal_count(self, suspicions):
        count, winner = lexmin_pair((c, pid) for pid, c in suspicions.items())
        assert suspicions[winner] == count == min(suspicions.values())

    @given(st.dictionaries(st.integers(0, 31), st.integers(0, 100), min_size=1, max_size=16))
    def test_deterministic(self, suspicions):
        pairs = [(c, pid) for pid, c in suspicions.items()]
        assert lexmin_pair(pairs) == lexmin_pair(reversed(pairs))
