import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssdistill import codes, gf2
from cssdistill.codes import build_code, parse_code_text, registry
from cssdistill.gf2 import BitMatrix


def syndrome_oracle(h: BitMatrix, bits: int) -> int:
    s = 0
    for i, row in enumerate(h.data):
        if (row & bits).bit_count() % 2:
            s |= 1 << i
    return s


class TestBuildCode:
    def test_rep3_table_enumeration_oracle(self):
        code = registry("rep3")
        assert (code.n, code.k, code.d, code.t) == (3, 1, 3, 1)
        # Oracle: enumerate all 8 words, group by syndrome, take min weight.
        leaders = {}
        for v in range(8):
            s = syndrome_oracle(code.h, v)
            if s not in leaders or v.bit_count() < leaders[s].bit_count():
                leaders[s] = v
        expect = {0b00: 0b000, 0b01: 0b001, 0b11: 0b010, 0b10: 0b100}
        assert leaders == expect
        for s, e in expect.items():
            assert code.decode(s) == e

    def test_golay_perfect_table(self):
        code = registry("golay23")
        assert (code.n, code.k, code.d, code.t) == (23, 12, 7, 3)
        assert len(code.syndrome_table) == 2048
        assert all(e.bit_count() <= 3 for e in code.syndrome_table.tolist())

    def test_bch15_weight2_oracle(self):
        code = registry("bch15_7_5")
        assert (code.n, code.k, code.d, code.t) == (15, 7, 5, 2)
        count = 0
        for w in range(3):
            for combo in itertools.combinations(range(15), w):
                e = 0
                for i in combo:
                    e |= 1 << i
                s = syndrome_oracle(code.h, e)
                assert code.decode(s) == e
                count += 1
        assert count == 121

    def test_rank_deficient_rejected(self):
        h = BitMatrix.from_strings(["110", "110"])
        with pytest.raises(ValueError, match="not full rank"):
            build_code(h, 1)

    def test_wrong_distance_rejected(self):
        h = BitMatrix.from_strings(["110", "011"])
        with pytest.raises(ValueError, match="inconsistent"):
            build_code(h, 4)


def leader_table_oracle(h: BitMatrix, t: int, w_max: int) -> dict[int, int]:
    """The per-error leader loop: errors by weight, then lexicographically;
    each syndrome keeps its first error, and errors of weight <= t must not
    share one."""
    table: dict[int, int] = {}
    for w in range(min(w_max, h.cols) + 1):
        for combo in itertools.combinations(range(h.cols), w):
            bits = sum(1 << i for i in combo)
            s = syndrome_oracle(h, bits)
            if w <= t and s in table:
                raise ValueError(f"weight<={t} errors share a syndrome")
            table.setdefault(s, bits)
    return table


def least_weights(h: BitMatrix) -> list[int]:
    """The least weight of an error of each syndrome, over all 2^n errors:
    error e's syndrome and weight sit at index e of two arrays, doubled by
    each column in turn."""
    syn, weight = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for j in range(h.cols):
        syn = np.concatenate([syn, syn ^ h.column(j)])
        weight = np.concatenate([weight, weight + 1])
    least = np.full(1 << h.rows, h.cols + 1)
    np.minimum.at(least, syn, weight)
    return least.tolist()


def check_tables_match_oracle(code):
    r = code.r
    h_sys = BitMatrix(r, code.n, tuple((1 << i) | (code.a.data[i] << r) for i in range(r)))
    for table, h in ((code.syndrome_table, code.h), (code.systematic_table, h_sys)):
        leaders = table.tolist()
        # Complete: leader s has syndrome s, for every one of the 2^r.
        assert [syndrome_oracle(h, e) for e in leaders] == list(range(1 << r))
        # The first error in the enumeration order wherever it reaches.
        assert all(leaders[s] == e for s, e in leader_table_oracle(h, code.t, code.t + 1).items())
        # Least weight in its coset: no leader is heavier by more than one
        # than the leader of a syndrome one column away, and 0 leads 0.
        weights = np.array([e.bit_count() for e in leaders])
        assert weights[0] == 0
        for j in range(code.n):
            assert (weights <= weights[np.arange(1 << r) ^ h.column(j)] + 1).all()
        if code.n <= 16:
            assert weights.tolist() == least_weights(h)
    assert (code.systematic_table is code.syndrome_table) == (h_sys == code.h)


@st.composite
def full_rank_checks(draw):
    """[I_r | A] with permuted columns, so h is full rank and often not
    systematic; the claimed distance is the true one, capped at 5."""
    n = draw(st.integers(2, 24))
    r = draw(st.integers(max(1, n - 12), n - 1))
    a_rows = draw(st.lists(st.integers(0, (1 << (n - r)) - 1), min_size=r, max_size=r))
    perm = draw(st.permutations(range(n)))
    h = BitMatrix(r, n, tuple((1 << i) | (row << r) for i, row in enumerate(a_rows)))
    h = h.permute_columns(perm)
    d = min([5] + [w.bit_count() for w in gf2.iter_row_space(gf2.null_space_basis(h)) if w])
    return h, d


class TestLeaderTableOracle:
    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_registry_codes(self, name):
        check_tables_match_oracle(registry(name))

    @given(full_rank_checks())
    @settings(max_examples=60, deadline=None)
    def test_random_codes(self, case):
        # Random codes are rarely perfect, so ties among errors of weight
        # t + 1 and above decide many leaders.  A table indexes 2^r
        # syndromes, and r above 16 is refused when one is asked for.
        code = build_code(*case)
        if code.r > 16:
            with pytest.raises(ValueError, match=rf"at most r=16 checks .* has r={code.r}, "):
                code.decode(0)
            return
        check_tables_match_oracle(code)

    def test_wide_code(self):
        # A 67-bit code builds, but its leaders would not fit an int64.
        code = build_code(BitMatrix(3, 67, registry("hamming7").h.data), d=1)
        with pytest.raises(ValueError, match=r"n=62 bits; this code has r=3, n=67$"):
            code.decode(0)

    def test_shared_syndrome_past_the_sampled_distance_check(self):
        # Past 24 bits the distance check samples codewords; here it misses
        # the weight-1 codewords of the zero columns, and the table raises.
        h = BitMatrix(3, 30, registry("hamming7").h.data)
        with pytest.raises(ValueError, match=r"^claimed d=3 inconsistent: weight<=1 errors share"):
            build_code(h, d=3)
        with pytest.raises(ValueError, match="share a syndrome"):
            leader_table_oracle(h, 1, 2)


class TestDistanceCheck:
    @pytest.mark.parametrize("name,d", [("golay23", 7), ("bch15_7_5", 5)])
    def test_distance_one_too_high_rejected(self, name, d):
        message = rf"^claimed d={d + 1} inconsistent: codeword of weight {d} found$"
        with pytest.raises(ValueError, match=message):
            build_code(registry(name).h, d + 1)

    @pytest.mark.parametrize("d", [5, 8])
    def test_distance_check_names_the_least_weight(self, d):
        # The Hamming code has codewords of weights 3, 4 and 7; in Gray-code
        # order, the first one lighter than d has weight 4.
        with pytest.raises(ValueError, match=rf"^claimed d={d} inconsistent: codeword of weight 3 found$"):
            build_code(registry("hamming7").h, d)

    def test_light_codeword_past_the_first_span_rows(self):
        # A [20, 17] code whose one weight-1 codeword is the last row of its
        # rref basis, past the rows the check holds as one array.
        g = BitMatrix(17, 20, tuple((1 << i) | (1 + i % 7) << 17 for i in range(16)) + (1 << 16,))
        with pytest.raises(ValueError, match=r"^claimed d=2 inconsistent: codeword of weight 1 found$"):
            build_code(gf2.null_space_basis(g), 2)

    @given(full_rank_checks())
    @settings(max_examples=60, deadline=None)
    def test_distance_one_too_high_rejected_random(self, case):
        h, _ = case
        d = min(w.bit_count() for w in gf2.iter_row_space(gf2.null_space_basis(h)) if w)
        build_code(h, d)
        message = rf"^claimed d={d + 1} inconsistent: codeword of weight {d} found$"
        with pytest.raises(ValueError, match=message):
            build_code(h, d + 1)


class TestSyndrome:
    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_codewords_have_zero_syndrome(self, name):
        code = registry(name)
        for i in range(code.g.rows):
            assert code.syndrome(code.g.data[i]) == 0
        assert code.syndrome(0) == 0

    def test_unit_vector_extracts_column(self):
        code = registry("bch15_7_5")
        assert code.syndrome(1) == code.h.column(0)

    @pytest.mark.parametrize("method,value", [
        ("syndrome", 1 << 3), ("syndrome", -1), ("decode", 1 << 2), ("decode", -1),
    ], ids=["syndrome-wide", "syndrome-negative", "decode-wide", "decode-negative"])
    def test_length_mismatch(self, method, value):
        # rep3: n = 3 bits in, r = 2 syndrome bits.
        with pytest.raises(ValueError, match="length mismatch"):
            getattr(registry("rep3"), method)(value)


class TestDecode:
    def test_zero_syndrome(self):
        code = registry("golay23")
        assert code.decode(0) == 0

    def test_golay_weight4_lands_in_table(self):
        # Exhaustive over all C(23,4) weight-4 errors: the perfect code
        # always has a weight <= 3 coset leader with the same syndrome.
        code = registry("golay23")
        for combo in itertools.combinations(range(23), 4):
            e = 0
            for i in combo:
                e |= 1 << i
            s = syndrome_oracle(code.h, e)
            got = code.decode(s)
            assert got.bit_count() <= 3
            assert syndrome_oracle(code.h, got) == s

    def test_bch15_weight3_syndrome_consistency(self):
        code = registry("bch15_7_5")
        for combo in itertools.combinations(range(15), 3):
            e = 0
            for i in combo:
                e |= 1 << i
            s = syndrome_oracle(code.h, e)
            assert syndrome_oracle(code.h, code.decode(s)) == s

    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_all_weight_le_t_decode_exactly(self, name):
        code = registry(name)
        for w in range(code.t + 1):
            for combo in itertools.combinations(range(code.n), w):
                e = 0
                for i in combo:
                    e |= 1 << i
                assert code.decode(code.syndrome(e)) == e


class TestRegistry:
    def test_bch15_matches_recorded_matrix(self):
        expected = [
            "100000001101000",
            "010000000110100",
            "001000000011010",
            "000100000001101",
            "000010001101110",
            "000001000110111",
            "000000101110011",
            "000000011010001",
        ]
        assert registry("bch15_7_5").h.to_strings() == expected

    def test_golay_matrix_shape_and_selfdual_rows(self):
        code = registry("golay23")
        assert code.h.rows == 11 and code.h.cols == 23
        # Parity checks of the Golay code are dual codewords: weight 8 here,
        # and the dual is self-orthogonal.
        assert all(code.h.data[i].bit_count() == 8 for i in range(11))
        assert gf2.mat_mul_t(code.h, code.h).is_zero()

    def test_golay_h_times_own_row_is_zero_syndrome(self):
        # Hand multiplication on the first rows: every row of H is a dual
        # codeword and the dual is self-orthogonal, so H r^T = 0.  (A
        # received word equal to a parity check is a valid dual codeword.)
        code = registry("golay23")
        row0 = code.h.data[0]
        by_hand = [(code.h.data[i] & row0).bit_count() % 2 for i in range(3)]
        assert by_hand == [0, 0, 0]
        assert code.syndrome(row0) == 0

    def test_golay_dual_parameters(self):
        dual = registry("golay23_dual")
        golay = registry("golay23")
        assert (dual.n, dual.k) == (23, 11)
        assert dual.k == 11 and golay.k == 12
        assert gf2.row_space_equal(dual.h, golay.g)
        # Exhaustive minimum-weight scan over all 2^11 dual codewords.
        min_w = min(w.bit_count() for w in gf2.iter_row_space(dual.g) if w)
        assert min_w == 8

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            registry("nope")

    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_generator_orthogonal(self, name):
        code = registry(name)
        assert gf2.mat_mul_t(code.h, code.g).is_zero()

    def test_bch15_systematic_identity_perm(self):
        code = registry("bch15_7_5")
        assert code.col_perm == tuple(range(15))
        for i in range(8):
            assert code.h.data[i] & 0xFF == 1 << i
            assert code.h.data[i] >> 8 == code.a.data[i]

    def test_max_col_weight(self):
        # [15,7,5]: five columns of A carry four 1s, two carry five.
        assert registry("bch15_7_5").max_col_weight == 5
        assert registry("rep3").max_col_weight == 2
        assert registry("rep5").max_col_weight == 4


class TestCodeFiles:
    def test_roundtrip_through_text(self, tmp_path):
        code = registry("hamming7")
        text = "d=3\n" + gf2.format_matrix(code.h)
        loaded = parse_code_text(text)
        assert loaded.h == code.h and loaded.d == 3

    def test_header_required(self):
        with pytest.raises(ValueError, match="d="):
            parse_code_text("2 3\n110\n011\n")

    def test_load_code(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("d=3\n2 3\n110\n011\n")
        code = codes.load_code(str(p), name="mini")
        assert code.name == "mini" and code.d == 3
