"""Register arrays and matrices: shapes and per-entry ownership."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.arrays import RegisterArray, RegisterMatrix
from repro.memory.memory import SharedMemory
from repro.memory.register import OwnershipError


class TestRegisterArray:
    def test_default_identity_ownership(self):
        arr = RegisterArray(None, "PROGRESS", 3)
        arr.write(1, writer=1, value=5)
        with pytest.raises(OwnershipError):
            arr.write(1, writer=0, value=5)

    def test_custom_ownership(self):
        arr = RegisterArray(None, "X", 3, owner_of=lambda i: 0)
        arr.write(2, writer=0, value=1)
        with pytest.raises(OwnershipError):
            arr.write(2, writer=2, value=1)

    def test_initial_values(self):
        arr = RegisterArray(None, "STOP", 4, initial=True)
        assert [arr.peek(i) for i in range(4)] == [True] * 4

    def test_read_write_roundtrip(self):
        arr = RegisterArray(None, "A", 3)
        arr.write(0, writer=0, value="v")
        assert arr.read(0, reader=2) == "v"

    def test_register_names(self):
        arr = RegisterArray(None, "A", 2)
        assert arr.register(0).name == "A[0]"
        assert arr.register(1).name == "A[1]"

    def test_len(self):
        assert len(RegisterArray(None, "A", 5)) == 5

    def test_bad_length(self):
        with pytest.raises(ValueError):
            RegisterArray(None, "A", 0)

    def test_critical_propagates(self):
        arr = RegisterArray(None, "A", 2, critical=True)
        assert arr.register(0).critical


class TestRegisterMatrix:
    def test_default_row_ownership(self):
        mat = RegisterMatrix(None, "SUSPICIONS", 3)
        mat.write(1, 2, writer=1, value=4)
        with pytest.raises(OwnershipError):
            mat.write(1, 2, writer=2, value=4)

    def test_column_ownership_for_last(self):
        """Algorithm 2's LAST matrix: entry (i, k) owned by p_k."""
        mat = RegisterMatrix(None, "LAST", 3, owner_of=lambda row, col: col)
        mat.write(0, 2, writer=2, value=True)
        with pytest.raises(OwnershipError):
            mat.write(0, 2, writer=0, value=True)

    def test_register_names(self):
        mat = RegisterMatrix(None, "M", 2)
        assert mat.register(1, 0).name == "M[1][0]"

    def test_peek_column_and_row(self):
        mat = RegisterMatrix(None, "M", 3, initial=0)
        mat.write(0, 1, writer=0, value=5)
        mat.write(2, 1, writer=2, value=7)
        assert mat.peek_column(1) == [5, 0, 7]

    def test_column_sum_matches_paper_aggregation(self):
        """column_sums()[k] is the paper's sum_j SUSPICIONS[j][k]."""
        mat = RegisterMatrix(None, "S", 3, initial=0)
        mat.write(0, 2, writer=0, value=3)
        mat.write(1, 2, writer=1, value=4)
        assert mat.column_sums()[2] == 7

    def test_bad_size(self):
        with pytest.raises(ValueError):
            RegisterMatrix(None, "M", 0)


N = 4
_cells = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))
_values = st.one_of(st.integers(-3, 50), st.booleans())
_ops = st.one_of(
    st.tuples(st.just("write"), _cells, _values),
    st.tuples(st.just("poke"), _cells, _values),
    st.tuples(st.just("column_sum"), st.integers(0, N - 1)),
    st.tuples(st.just("peek_column"), st.integers(0, N - 1)),
)


class TestColumnSumCache:
    """The cached column sums can never lie: whatever mix of counted
    writes, uncounted pokes and observer reads happens, ``column_sums``
    equals the sum recomputed from the registers at that instant."""

    @given(with_memory=st.booleans(), initial=_values, ops=st.lists(_ops, max_size=40))
    def test_any_interleaving_matches_the_naive_sum(self, with_memory, initial, ops):
        memory = SharedMemory(clock=lambda: 0.0) if with_memory else None
        mat = RegisterMatrix(memory, "S", N, initial=initial)
        for op in ops:
            if op[0] == "write":
                (i, j), value = op[1], op[2]
                mat.write(i, j, writer=i, value=value)
            elif op[0] == "poke":
                (i, j), value = op[1], op[2]
                mat.register(i, j).poke(value)
            elif op[0] == "column_sum":
                assert mat.column_sums()[op[1]] == sum(mat.peek_column(op[1]))
            else:
                mat.peek_column(op[1])
            assert mat.column_sums() == [sum(mat.peek_column(j)) for j in range(N)]

    def test_a_settled_matrix_is_summed_once(self):
        mat = RegisterMatrix(None, "S", 3, initial=1)
        first = mat.column_sums()
        assert mat.column_sums() is first  # clean: the same vector, no re-sum
        mat.register(2, 0).poke(5)
        assert mat.column_sums() == [7, 3, 3]

    def test_a_bare_register_has_no_matrix_to_invalidate(self):
        arr = RegisterArray(None, "A", 2)
        arr.write(0, writer=0, value=3)  # must not trip over the dirty mark
        arr.register(1).poke(4)
        assert [arr.peek(0), arr.peek(1)] == [3, 4]
