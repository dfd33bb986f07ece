import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssdistill import gf2
from cssdistill.gf2 import BitMatrix, BitVec


def bitmatrix(rows, cols):
    return st.lists(
        st.integers(min_value=0, max_value=(1 << cols) - 1), min_size=rows, max_size=rows
    ).map(lambda d: BitMatrix(rows, cols, tuple(d)))


class TestRref:
    def test_identity(self):
        m = BitMatrix.identity(3)
        r, pivots, rnk = gf2.rref(m)
        assert r == m
        assert pivots == (0, 1, 2)
        assert rnk == 3

    def test_all_zero(self):
        m = BitMatrix.zeros(2, 4)
        r, pivots, rnk = gf2.rref(m)
        assert r == m
        assert pivots == ()
        assert rnk == 0

    def test_dependent_rows(self):
        m = BitMatrix.from_strings(["110", "011", "101"])
        _, _, rnk = gf2.rref(m)
        assert rnk == 2

    @given(bitmatrix(5, 8))
    @settings(max_examples=60)
    def test_idempotent(self, m):
        r1, p1, k1 = gf2.rref(m)
        r2, p2, k2 = gf2.rref(r1)
        assert r1 == r2 and p1 == p2 and k1 == k2

    @given(st.integers(2, 6).flatmap(lambda r: bitmatrix(r, 9)))
    @settings(max_examples=60)
    def test_rank_nullity(self, m):
        assert gf2.rank(m) + gf2.null_space_basis(m).rows == m.cols


class TestSystematicForm:
    def test_already_systematic(self):
        a_part = ["101", "110"]
        h = BitMatrix.from_strings(["10" + a_part[0], "01" + a_part[1]])
        a, perm = gf2.systematic_form(h)
        assert perm == (0, 1, 2, 3, 4)
        assert a.to_strings() == a_part

    def test_rank_deficient(self):
        h = BitMatrix.from_strings(["110", "110"])
        with pytest.raises(ValueError, match="not full rank"):
            gf2.systematic_form(h)

    def test_swapped_columns_roundtrip(self):
        # Zero leading column forces a nontrivial permutation.
        h = BitMatrix.from_strings(["0011", "0101"])
        a, perm = gf2.systematic_form(h)
        permuted = h.permute_columns(perm)
        red, pivots, _ = gf2.rref(permuted)
        assert pivots == (0, 1)
        ident = BitMatrix.identity(h.rows)
        for i in range(h.rows):
            left = red.data[i] & ((1 << h.rows) - 1)
            assert left == ident.data[i]
            assert red.data[i] >> h.rows == a.data[i]

    def test_swapped_columns_brute_force_oracle(self):
        # Oracle: search all column permutations for one giving [I|A]; the
        # returned (A, perm) must reproduce H's row space when undone.
        h = BitMatrix.from_strings(["011", "110"])
        a, perm = gf2.systematic_form(h)
        found = None
        for cand in itertools.permutations(range(3)):
            red, pivots, rnk = gf2.rref(h.permute_columns(cand))
            if rnk == 2 and pivots == (0, 1):
                ok = all((red.data[i] & 0b11) == (1 << i) for i in range(2))
                if ok:
                    found = cand
                    break
        assert found is not None
        rebuilt = BitMatrix(2, 3, tuple((1 << i) | (a.data[i] << 2) for i in range(2)))
        unpermuted_cols = [0] * 3
        for j, pj in enumerate(perm):
            unpermuted_cols[pj] = j
        restored = rebuilt.permute_columns(unpermuted_cols)
        assert gf2.row_space_equal(restored, h)


class TestMul:
    def test_zero_vector(self):
        m = BitMatrix.from_strings(["110", "011"])
        assert gf2.mat_vec(m, BitVec.zeros(3)).is_zero()

    def test_identity(self):
        m = BitMatrix.identity(5)
        v = BitVec.from_string("10110")
        assert gf2.mat_vec(m, v) == v

    def test_dimension_mismatch(self):
        m = BitMatrix.identity(3)
        with pytest.raises(ValueError):
            gf2.mat_vec(m, BitVec.zeros(4))

    def test_mat_mul_small(self):
        a = BitMatrix.from_strings(["11", "01"])
        b = BitMatrix.from_strings(["10", "11"])
        # (11)(10;11) = (01); (01)(10;11) = (11)
        assert gf2.mat_mul(a, b).to_strings() == ["01", "11"]


class TestNullSpace:
    def test_identity_empty(self):
        assert gf2.null_space_basis(BitMatrix.identity(4)).rows == 0

    def test_zero_row(self):
        basis = gf2.null_space_basis(BitMatrix.zeros(1, 3))
        assert basis.rows == 3
        assert gf2.rank(basis) == 3

    def test_rep3_enumeration_oracle(self):
        h = BitMatrix.from_strings(["110", "011"])
        basis = gf2.null_space_basis(h)
        kernel = {
            v
            for v in range(8)
            if all((row & v).bit_count() % 2 == 0 for row in h.data)
        }
        assert basis.rows == 1
        assert set(gf2.iter_row_space(basis)) == kernel == {0b000, 0b111}

    @given(bitmatrix(4, 7))
    @settings(max_examples=60)
    def test_basis_annihilated(self, m):
        basis = gf2.null_space_basis(m)
        for i in range(basis.rows):
            assert gf2.mat_vec(m, basis.row(i)).is_zero()


class TestInvert:
    def test_identity(self):
        assert gf2.invert(BitMatrix.identity(4)) == BitMatrix.identity(4)

    def test_self_inverse_upper_triangular(self):
        m = BitMatrix.from_strings(["11", "01"])
        assert gf2.invert(m) == m

    def test_singular(self):
        with pytest.raises(ValueError, match="singular"):
            gf2.invert(BitMatrix.from_strings(["11", "11"]))

    def test_random_nonsingular_product(self):
        import random

        rng = random.Random(7)
        found = 0
        while found < 20:
            m = BitMatrix(5, 5, tuple(rng.getrandbits(5) for _ in range(5)))
            if gf2.rank(m) < 5:
                continue
            found += 1
            inv = gf2.invert(m)
            assert gf2.mat_mul(inv, m) == BitMatrix.identity(5)
            assert gf2.mat_mul(m, inv) == BitMatrix.identity(5)


class TestTextFormat:
    def test_roundtrip(self):
        m = BitMatrix.from_strings(["10110", "01011"])
        assert gf2.parse_matrix(gf2.format_matrix(m)) == m

    def test_spaced_style(self):
        text = "2 3\n1 1 0\n0 1 1\n"
        assert gf2.parse_matrix(text) == BitMatrix.from_strings(["110", "011"])

    def test_bad_row(self):
        with pytest.raises(ValueError):
            gf2.parse_matrix("1 3\n10\n")


class TestRowSpace:
    def test_equal_under_row_ops(self):
        a = BitMatrix.from_strings(["110", "011"])
        b = BitMatrix.from_strings(["101", "011"])
        assert gf2.row_space_equal(a, b)

    def test_unequal(self):
        a = BitMatrix.from_strings(["110"])
        b = BitMatrix.from_strings(["011"])
        assert not gf2.row_space_equal(a, b)

    def test_iter_row_space_count(self):
        m = BitMatrix.from_strings(["1100", "0110", "1010"])
        elems = list(gf2.iter_row_space(m))
        assert len(elems) == 1 << gf2.rank(m)
        assert len(set(elems)) == len(elems)


class TestWeightEnumeration:
    @pytest.mark.parametrize("n,w_max", [(0, 2), (1, 3), (6, 6), (23, 3), (67, 2)])
    def test_order_is_by_weight_then_lexicographic(self, n, w_max):
        want = [(sum(1 << i for i in combo), w) for w in range(min(w_max, n) + 1)
                for combo in itertools.combinations(range(n), w)]
        assert list(gf2.iter_weight_le(n, w_max)) == want

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, (1 << 70) - 1), min_size=n, max_size=n), st.integers(0, 4))))
    @settings(max_examples=40)
    def test_images_are_xors_of_columns(self, case):
        cols, w_max = case
        chunks = list(gf2.iter_weight_le_images(gf2.split_words(cols, 70), w_max))
        got = gf2.join_words(np.concatenate([c for c, _ in chunks]))
        weights = [w for c, w in chunks for _ in range(len(c))]
        want = [(functools.reduce(operator.xor, (cols[i] for i in range(len(cols)) if bits >> i & 1), 0), w)
                for bits, w in gf2.iter_weight_le(len(cols), w_max)]
        assert list(zip(got, weights)) == want
