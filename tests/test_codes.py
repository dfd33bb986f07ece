import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssdistill import codes, gf2
from cssdistill.codes import build_code, parse_code_text, registry
from cssdistill.gf2 import BitMatrix, BitVec


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
            got, ok = code.decode(s)
            assert ok and got.bits == e

    def test_golay_perfect_table(self):
        code = registry("golay23")
        assert (code.n, code.k, code.d, code.t) == (23, 12, 7, 3)
        assert len(code.syndrome_table) == 2048
        assert all(e.bit_count() <= 3 for e in code.syndrome_table.values())

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
                got, ok = code.decode(s)
                assert ok and got.bits == e
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


def check_tables_match_oracle(code):
    r = code.r
    h_sys = BitMatrix(r, code.n, tuple((1 << i) | (code.a.data[i] << r) for i in range(r)))
    for table, h in ((code.syndrome_table, code.h), (code.systematic_table, h_sys)):
        # Same keys, values and insertion order.
        assert list(table.items()) == list(leader_table_oracle(h, code.t, code.w_max).items())
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
    return h, d, draw(st.integers(0, (d - 1) // 2 + 2))


class TestLeaderTableOracle:
    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_registry_codes(self, name):
        check_tables_match_oracle(registry(name))

    @given(full_rank_checks())
    @settings(max_examples=60, deadline=None)
    def test_random_codes(self, case):
        # Random codes are rarely perfect, so ties among errors of weight
        # t + 1 and above decide many leaders.
        h, d, w_max = case
        check_tables_match_oracle(build_code(h, d, w_max=w_max))

    def test_wide_code(self):
        # Leaders of more than 63 bits, as in the wide-block engine tests.
        check_tables_match_oracle(build_code(BitMatrix(3, 67, registry("hamming7").h.data), d=1))

    def test_shared_syndrome_past_the_sampled_distance_check(self):
        # Past 24 bits the distance check samples codewords; here it misses
        # the weight-1 codewords of the zero columns, and the table raises.
        h = BitMatrix(3, 30, registry("hamming7").h.data)
        with pytest.raises(ValueError, match=r"^claimed d=3 inconsistent: weight<=1 errors share"):
            build_code(h, d=3)
        with pytest.raises(ValueError, match="share a syndrome"):
            leader_table_oracle(h, 1, 2)


class TestSyndrome:
    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_codewords_have_zero_syndrome(self, name):
        code = registry(name)
        for i in range(code.g.rows):
            assert code.syndrome(code.g.row(i)).is_zero()
        assert code.syndrome(BitVec.zeros(code.n)).is_zero()

    def test_unit_vector_extracts_column(self):
        code = registry("bch15_7_5")
        assert code.syndrome(BitVec.unit(15, 0)) == code.h.column(0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            registry("rep3").syndrome(BitVec.zeros(4))


class TestDecode:
    def test_zero_syndrome(self):
        code = registry("golay23")
        e, ok = code.decode(0)
        assert ok and e.is_zero()

    def test_golay_weight4_lands_in_table(self):
        # Exhaustive over all C(23,4) weight-4 errors: the perfect code
        # always has a weight <= 3 coset leader with the same syndrome.
        code = registry("golay23")
        for combo in itertools.combinations(range(23), 4):
            e = 0
            for i in combo:
                e |= 1 << i
            s = syndrome_oracle(code.h, e)
            got, ok = code.decode(s)
            assert ok
            assert got.weight() <= 3
            assert syndrome_oracle(code.h, got.bits) == s

    def test_bch15_weight3_syndrome_consistency(self):
        code = registry("bch15_7_5")
        for combo in itertools.combinations(range(15), 3):
            e = 0
            for i in combo:
                e |= 1 << i
            s = syndrome_oracle(code.h, e)
            got, ok = code.decode(s)
            if ok:
                assert syndrome_oracle(code.h, got.bits) == s

    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_all_weight_le_t_decode_exactly(self, name):
        code = registry(name)
        for w in range(code.t + 1):
            for combo in itertools.combinations(range(code.n), w):
                e = 0
                for i in combo:
                    e |= 1 << i
                got, ok = code.decode(code.syndrome(BitVec(code.n, e)))
                assert ok and got.bits == e


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
        assert all(code.h.row(i).weight() == 8 for i in range(11))
        assert gf2.mat_mul_t(code.h, code.h).is_zero()

    def test_golay_h_times_own_row_is_zero_syndrome(self):
        # Hand multiplication on the first rows: every row of H is a dual
        # codeword and the dual is self-orthogonal, so H r^T = 0.  (A
        # received word equal to a parity check is a valid dual codeword.)
        code = registry("golay23")
        row0 = code.h.row(0)
        by_hand = [(code.h.data[i] & row0.bits).bit_count() % 2 for i in range(3)]
        assert by_hand == [0, 0, 0]
        assert code.syndrome(row0).is_zero()

    def test_golay_dual_parameters(self):
        dual = registry("golay23_dual")
        golay = registry("golay23")
        assert (dual.n, dual.k) == (23, 11)
        assert dual.k == 11 and golay.k == 12
        assert gf2.row_space_equal(dual.h, golay.g)
        # Exhaustive minimum-weight scan over all 2^11 dual codewords.
        min_w = min(w.bit_count() for w in dual.codewords() if w)
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
