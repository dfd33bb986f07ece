import copy
import dataclasses
import itertools
import random

import numpy as np
import pytest

from cssdistill import gf2
from cssdistill.codes import build_code, registry
from cssdistill.css import (
    PauliElement,
    WeightTable,
    _round_sets_for_kind,
    _validate_spec,
    _x_elem,
    _z_elem,
    build_ancilla_spec,
    build_css,
    generalized_syndrome,
    residual_weight,
)
from cssdistill.gf2 import BitMatrix

GOLAY_LOGICAL = int("00000000000101011100011"[::-1], 2)  # qubit 0 first


@pytest.fixture(scope="module")
def golay_css():
    g = registry("golay23")
    return build_css(g, g)


@pytest.fixture(scope="module")
def steane_css():
    h = registry("hamming7")
    return build_css(h, h)


@pytest.fixture(scope="module")
def zero_spec(golay_css):
    return build_ancilla_spec(golay_css, "zero")


class TestBuildCss:
    def test_golay_parameters(self, golay_css):
        assert (golay_css.n, golay_css.k) == (23, 1)

    def test_golay_logical_is_canonical_weight7_vector(self, golay_css):
        xbar = golay_css.d_mat.data[0]
        # Same H_Z syndrome (both are codewords) and odd overlap with l.
        assert gf2.mat_vec(golay_css.h_z, xbar) == 0
        assert (xbar & GOLAY_LOGICAL).bit_count() % 2 == 1
        # The canonical representative is the standard weight-7 vector.
        assert xbar == GOLAY_LOGICAL

    def test_invariants(self, golay_css, steane_css):
        for css in (golay_css, steane_css):
            assert gf2.mat_mul_t(css.h_x, css.h_z).is_zero()
            assert gf2.mat_mul_t(css.l_z, css.d_mat) == BitMatrix.identity(css.k)
            assert gf2.mat_mul_t(css.h_z, css.d_mat).is_zero()
            assert gf2.mat_mul_t(css.h_x, css.l_z).is_zero()

    def test_steane_odd_logical(self, steane_css):
        assert (steane_css.n, steane_css.k) == (7, 1)
        assert steane_css.d_mat.data[0].bit_count() % 2 == 1

    def test_golay_logical_coset_is_odd(self, golay_css):
        # Every representative of the logical class has odd weight.
        for w in gf2.iter_row_space(golay_css.h_x):
            assert (GOLAY_LOGICAL ^ w).bit_count() % 2 == 1

    def test_css_condition_violated(self):
        rep3 = registry("rep3")
        # By hand: H H^T for {110,011} is [[0,1],[1,0]] != 0.
        with pytest.raises(ValueError, match="CSS condition"):
            build_css(rep3, rep3)


class TestExtendedChecks:
    def test_golay_stack(self, golay_css):
        hp_z, hp_x = golay_css.hp_z, golay_css.hp_x
        assert (hp_z.rows, hp_z.cols) == (12, 23)
        assert hp_z.data[11] == GOLAY_LOGICAL
        assert (hp_x.rows, hp_x.cols) == (12, 23)
        assert hp_z.data[:11] == golay_css.h_z.data
        assert hp_x.data[:11] == golay_css.h_x.data

    def test_row_counts(self, steane_css):
        hp_z, hp_x = steane_css.hp_z, steane_css.hp_x
        assert hp_z.rows == steane_css.r_z + steane_css.k
        assert hp_x.rows == steane_css.r_x + steane_css.k


class TestAncillaSpecs:
    def test_zero_spec_roles(self, zero_spec, golay_css):
        assert len(zero_spec.s1) == 12 and len(zero_spec.s2) == 11
        # S1 = H_Z rows then logical Z; S2 = H_X rows.
        for idx in range(11):
            assert zero_spec.s1[idx].z == (golay_css.h_z.data[idx],)
            assert zero_spec.s1[idx].x == (0,)
        assert zero_spec.s1[11].z == (GOLAY_LOGICAL,)
        for idx in range(11):
            assert zero_spec.s2[idx].x == (golay_css.h_x.data[idx],)

    def test_plus_is_zero_with_roles_swapped(self, golay_css, zero_spec):
        plus = build_ancilla_spec(golay_css, "plus")
        z_parts_zero_s1 = {el.z for el in zero_spec.s1}
        x_parts_plus_s2 = {tuple(el.x) for el in plus.s2}
        assert {tuple(z) for z in z_parts_zero_s1} == x_parts_plus_s2
        assert len(plus.s1) == 11 and len(plus.s2) == 12

    def test_bell_spec(self, golay_css):
        bell = build_ancilla_spec([golay_css, golay_css], "bell", i=0, j=0)
        assert len(bell.s1) == 23 and len(bell.s2) == 23
        crossing_z = bell.s1[-1]
        assert crossing_z.z == (GOLAY_LOGICAL, GOLAY_LOGICAL) and crossing_z.x == (0, 0)
        crossing_x = bell.s2[-1]
        assert crossing_x.x == (GOLAY_LOGICAL, GOLAY_LOGICAL) and crossing_x.z == (0, 0)

    def test_all_elements_commute(self, golay_css):
        for kind, m in (("zero", 1), ("plus", 1), ("bell", 2)):
            spec = build_ancilla_spec([golay_css] * m if m > 1 else golay_css, kind)
            elems = spec.all_elements()
            assert len(elems) == spec.total_qubits
            for a, b in itertools.combinations(elems, 2):
                assert a.commutes(b)

    def test_zero_correctors_are_logical_x(self, zero_spec, golay_css):
        assert len(zero_spec.correctors1) == 1
        cor = zero_spec.correctors1[0]
        assert cor.x == (golay_css.d_mat.data[0],) and cor.z == (0,)

    def test_corrector_contract(self, golay_css):
        spec = build_ancilla_spec([golay_css] * 2, "bell")
        for round_, s, correctors in ((1, spec.s1, spec.correctors1), (2, spec.s2, spec.correctors2)):
            logicals = spec.logicals(round_)
            gens = len(s) - len(logicals)
            for t, cor in enumerate(correctors):
                for idx, el in enumerate(s):
                    expect = idx == gens + t
                    assert cor.commutes(el) != expect

    @pytest.mark.parametrize("broken,message", [
        ("s1", "round-1 elements must be pure Z"),
        ("s2", "round-2 elements must be pure X"),
        ("correctors1", "round-1 correctors must be pure X"),
        ("correctors2", "round-2 correctors must be pure Z"),
    ])
    def test_validate_spec_guards_the_round_rule(self, golay_css, zero_spec, broken, message):
        # The first element or corrector times a stabilizer of the other
        # type: the stabilizers still commute and each corrector still
        # anticommutes with its own logical alone, so only the rule that
        # round 1 measures Z and corrects X (round 2 the reverse) is broken.
        # The zero state has no round-2 corrector; that case breaks the plus
        # state's.
        spec = build_ancilla_spec(golay_css, "plus") if broken == "correctors2" else zero_spec
        other = {"s1": spec.s2, "s2": spec.s1, "correctors1": spec.s1, "correctors2": spec.s2}
        parts = list(getattr(spec, broken))
        parts[0] = parts[0].xor(other[broken][0])
        with pytest.raises(ValueError, match=message):
            _validate_spec(dataclasses.replace(spec, **{broken: tuple(parts)}))

    @pytest.mark.parametrize("kind", ["zero", "bell"])
    def test_validate_spec_commutation_matches_pairwise_oracle(self, steane_css, kind):
        # The Steane zero state or Bell pair, with a Hadamard on some qubits
        # of every element (which keeps each pair's commutation but gives
        # elements both X and Z parts), and one element swapped for a
        # product of two, times a one-qubit X or Z half the time: the check
        # refuses exactly the specs with a pair of anticommuting elements.
        base = build_ancilla_spec([steane_css] * 2 if kind == "bell" else steane_css, kind)
        rng = random.Random(kind)
        refused = 0
        for _ in range(60):
            flip = tuple(rng.getrandbits(7) for _ in range(base.m))

            def hadamard(el):
                return PauliElement(tuple(x & ~h | z & h for x, z, h in zip(el.x, el.z, flip)),
                                    tuple(z & ~h | x & h for x, z, h in zip(el.x, el.z, flip)))
            spec = dataclasses.replace(base, s1=tuple(map(hadamard, base.s1)),
                                       s2=tuple(map(hadamard, base.s2)))
            elems = spec.all_elements()
            idx = rng.randrange(len(spec.s1))
            el = rng.choice(elems).xor(rng.choice(elems))
            if rng.randint(0, 1):
                make = rng.choice((_x_elem, _z_elem))
                el = el.xor(make(spec.m, rng.randrange(spec.m), 1 << rng.randrange(7)))
            s1 = spec.s1[:idx] + (el,) + spec.s1[idx + 1:]
            anti = any(not a.commutes(b) for a, b in itertools.combinations(s1 + spec.s2, 2))
            try:
                _validate_spec(dataclasses.replace(spec, s1=s1))
                message = ""
            except ValueError as exc:
                message = str(exc)
            assert (message == "stabilizer elements must commute") == anti
            refused += anti
        assert 0 < refused < 60

    def test_wrong_block_count(self, golay_css):
        with pytest.raises(ValueError, match="block"):
            build_ancilla_spec([golay_css, golay_css], "zero")

    @staticmethod
    def _single_block_sets(css, kind, j, basis):
        """The one-block kinds spelled out case by case, as they were
        written before one rule built them."""
        zrows = [_z_elem(1, 0, r) for r in css.h_z.data]
        xrows = [_x_elem(1, 0, r) for r in css.h_x.data]
        zbar = [_z_elem(1, 0, r) for r in css.l_z.data]
        xbar = [_x_elem(1, 0, r) for r in css.d_mat.data]
        k = css.k
        others = [u for u in range(k) if u != j]
        if kind == "zero":
            log1, cor1, log2, cor2 = zbar, xbar, [], []
        elif kind == "plus":
            log1, cor1, log2, cor2 = [], [], xbar, zbar
        elif basis == "Z":
            log1, cor1 = [zbar[u] for u in others], [xbar[u] for u in others]
            log2, cor2 = [xbar[j]], [zbar[j]]
        else:
            log1, cor1 = [zbar[j]], [xbar[j]]
            log2, cor2 = [xbar[u] for u in others], [zbar[u] for u in others]
        return ((zrows, (css.r_z,), log1, cor1), (xrows, (css.r_x,), log2, cor2))

    @pytest.mark.parametrize("code", ["golay", "steane", "padded-steane"])
    def test_single_block_kinds_follow_one_rule(self, golay_css, steane_css, code):
        # The padded Steane code (12 qubits, 6 of them unencoded) has k = 6,
        # so every mixed (j, basis) splits the logicals between the rounds.
        if code == "padded-steane":
            padded = build_code(BitMatrix(3, 12, registry("hamming7").h.data), d=1)
            css = build_css(padded, padded)
            assert css.k == 6
        else:
            css = golay_css if code == "golay" else steane_css
        cases = [("zero", 0, "Z"), ("plus", 0, "Z")]
        cases += [("mixed", j, basis) for j in range(css.k) for basis in "ZX"]
        for kind, j, basis in cases:
            want = self._single_block_sets(css, kind, j, basis)
            assert _round_sets_for_kind((css,), kind, 0, j, basis) == want, (kind, j, basis)
            build_ancilla_spec(css, kind, j=j, basis=basis)

    @pytest.mark.parametrize("j,basis,message", [
        (1, "Z", "mixed logical j must be in 0..0"),
        (-1, "X", "mixed logical j must be in 0..0"),
        (0, "Y", "mixed basis must be 'Z' or 'X'"),
    ])
    def test_mixed_rejects_bad_logical_or_basis(self, golay_css, j, basis, message):
        with pytest.raises(ValueError, match=message):
            build_ancilla_spec(golay_css, "mixed", j=j, basis=basis)

    @pytest.mark.parametrize("code,i,j,message", [
        ("golay", 1, 0, r"bell logical i must be in 0\.\.0, got 1"),
        ("golay", -1, 0, r"bell logical i must be in 0\.\.0, got -1"),
        ("golay", 0, 1, r"bell logical j must be in 0\.\.0, got 1"),
        ("golay", 0, -1, r"bell logical j must be in 0\.\.0, got -1"),
        ("k0", 0, 0, r"bell logical i must be in 0\.\.-1, got 0"),
    ])
    def test_bell_rejects_bad_logical(self, golay_css, code, i, j, message):
        # golay23 with golay23_dual is a CSS code with k = 0.
        css = build_css(registry("golay23"), registry("golay23_dual")) if code == "k0" else golay_css
        assert css.k == (0 if code == "k0" else 1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_ancilla_spec([css, css], "bell", i=i, j=j)


class TestGeneralizedSyndrome:
    def test_zero_frame(self, zero_spec):
        assert generalized_syndrome(zero_spec, (0,), (0,)) == 0

    def test_stabilizer_frame_invisible(self, zero_spec, golay_css):
        # A frame equal to a spec stabilizer commutes with everything.
        s = generalized_syndrome(zero_spec, (golay_css.h_x.data[3],), (golay_css.h_z.data[5],))
        assert s == 0

    def test_single_x_reads_hpz_column(self, zero_spec, golay_css):
        s = generalized_syndrome(zero_spec, (1,), (0,))
        col = golay_css.hp_z.column(0)
        assert s & 0xFFF == col
        assert s >> 12 == 0

    def test_linearity(self, zero_spec):
        rng = random.Random(11)
        for _ in range(50):
            e1, f1 = rng.getrandbits(23), rng.getrandbits(23)
            e2, f2 = rng.getrandbits(23), rng.getrandbits(23)
            s1 = generalized_syndrome(zero_spec, (e1,), (f1,))
            s2 = generalized_syndrome(zero_spec, (e2,), (f2,))
            s12 = generalized_syndrome(zero_spec, (e1 ^ e2,), (f1 ^ f2,))
            assert s12 == s1 ^ s2

    def test_shape_mismatch(self, zero_spec):
        with pytest.raises(ValueError):
            generalized_syndrome(zero_spec, (0, 0), (0, 0))


class TestResidualWeight:
    def test_stabilizer_is_zero_weight(self, zero_spec, golay_css):
        wx, wz = residual_weight(zero_spec, (golay_css.h_x.data[0],), (golay_css.h_z.data[0],))
        assert (wx, wz) == (0, 0)

    def test_logical_z_stabilizes_zero_state(self, zero_spec):
        wx, wz = residual_weight(zero_spec, (0,), (GOLAY_LOGICAL,))
        assert wz == 0

    def test_logical_x_weight(self, zero_spec):
        # X^l flips the zero state; its class has no light representative.
        wx, _ = residual_weight(zero_spec, (GOLAY_LOGICAL,), (0,))
        assert wx is None or wx > 4  # weight-7 class, beyond the cap
        assert wx is None

    def test_weight2_times_heavy_stabilizer(self, zero_spec, golay_css):
        # Find an X-stabilizer of weight 16 (the dual has weight-16 words).
        heavy = next(w for w in gf2.iter_row_space(golay_css.h_x) if w.bit_count() == 16)
        err = 0b101  # weight 2... bits 0 and 2
        err = (1 << 0) | (1 << 2)
        wx, _ = residual_weight(zero_spec, (err ^ heavy,), (0,))
        assert wx == 2

    def test_degeneracy_invariance_randomized(self, zero_spec, golay_css):
        rng = random.Random(23)
        stab_x = list(gf2.iter_row_space(golay_css.h_x))
        stab_z = list(gf2.iter_row_space(golay_css.hp_z))
        tab = zero_spec.weight_table(4)
        for _ in range(1000):
            e = rng.getrandbits(23)
            f = rng.getrandbits(23)
            e2 = e ^ rng.choice(stab_x)
            f2 = f ^ rng.choice(stab_z)
            assert tab.x_weight((e,)) == tab.x_weight((e2,))
            assert tab.z_weight((f,)) == tab.z_weight((f2,))

    @pytest.mark.parametrize("kind,m", [("zero", 1), ("plus", 1), ("bell", 2)])
    def test_brute_force_oracle(self, golay_css, kind, m):
        # Oracle: scan all Paulis of weight <= cap and minimize over those
        # sharing the syndrome, computed through generalized_syndrome.
        spec = build_ancilla_spec([golay_css] * m if m > 1 else golay_css, kind)
        w_cap = 2 if m == 2 else 3
        tab = spec.weight_table(w_cap)
        sizes = spec.block_sizes
        total = spec.total_qubits

        def split(bits):
            out = []
            off = 0
            for n in sizes:
                out.append((bits >> off) & ((1 << n) - 1))
                off += n
            return tuple(out)

        def oracle_x(e_blocks):
            target = generalized_syndrome(spec, e_blocks, (0,) * m)
            for w in range(w_cap + 1):
                for combo in itertools.combinations(range(total), w):
                    bits = 0
                    for q in combo:
                        bits |= 1 << q
                    if generalized_syndrome(spec, split(bits), (0,) * m) == target:
                        return w
            return None

        rng = random.Random(5 + m)
        for _ in range(12):
            w = rng.randint(0, w_cap)
            e = 0
            for q in rng.sample(range(total), w):
                e |= 1 << q
            e_blocks = split(e)
            assert tab.x_weight(e_blocks) == oracle_x(e_blocks)


    @pytest.mark.parametrize("code,w_cap", [("hamming7", 4), ("golay23", 3)])
    def test_cross_block_split_oracle(self, code, w_cap):
        # The per-block tables against a whole-state enumeration of the
        # Bell state's syndromes, on every frame of weight <= 2 and on
        # random frames of weight 3..6.  Z̄aZ̄b and X̄aX̄b fix only the XOR of
        # their two local bits, so some frames' lightest equivalent error
        # splits differently between the blocks than the frame does.
        c = build_css(registry(code), registry(code))
        spec = build_ancilla_spec([c, c], "bell")
        tab = spec.weight_table(w_cap)
        n = c.n
        zeros = (0, 0)

        def split(bits):
            return bits & ((1 << n) - 1), bits >> n

        def frame_syndrome(side, bits):
            e, f = (split(bits), zeros) if side == "x" else (zeros, split(bits))
            return generalized_syndrome(spec, e, f)

        oracle = {"x": {}, "z": {}}
        for bits, w in gf2.iter_weight_le(2 * n, w_cap):
            for side, table in oracle.items():
                table.setdefault(frame_syndrome(side, bits), w)
        rng = random.Random(2 * n)
        frames = [bits for bits, _ in gf2.iter_weight_le(2 * n, 2)]
        frames += [sum(1 << q for q in rng.sample(range(2 * n), rng.randint(3, 6)))
                   for _ in range(2000)]
        words = np.array([split(bits) for bits in frames], dtype=np.int64)
        # The same tables, read at the frame's own split only.
        own = copy.copy(tab)
        own._x, own._z = ((tables, lookups, flips[:1]) for tables, lookups, flips in (tab._x, tab._z))
        for side in ("x", "z"):
            want = [oracle[side].get(frame_syndrome(side, bits), -1) for bits in frames]
            got = tab.weights(side, words)
            assert got.tolist() == want, side
            if code == "hamming7":
                unsplit = own.weights(side, words)
                assert ((got >= 0) & ((unsplit < 0) | (unsplit > got))).any(), side

    @pytest.mark.parametrize("w_cap", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["zero", "plus", "bell"])
    @pytest.mark.parametrize("code", ["hamming7", "golay23"])
    def test_dense_tables_match_sorted_build(self, code, kind, w_cap):
        # Each block lookup against a build that sorts the local syndromes
        # of every error of weight <= w_cap and keeps each one's first.
        c = build_css(registry(code), registry(code))
        spec = build_ancilla_spec([c, c] if kind == "bell" else c, kind)
        tab = WeightTable(spec, w_cap)
        for part, (tables, lookups, _) in (("z", tab._x), ("x", tab._z)):
            for b, (lookup, block) in enumerate(zip(lookups, tables)):
                chunks = list(gf2.iter_weight_le(spec.block_sizes[b], w_cap))
                syn = gf2.xor_lookup(block, np.array([e for e, _ in chunks], dtype=np.int64))
                keys, first = np.unique(syn, return_index=True)
                want = np.full(len(lookup), w_cap + 1, dtype=np.int8)
                want[keys] = np.array([w for _, w in chunks], dtype=np.int8)[first]
                assert lookup.dtype == np.int8 and lookup.tolist() == want.tolist(), (part, b)

    def test_bell_table_stays_small(self, golay_css):
        # Per-block tables over 12-bit local syndromes: a whole-state table
        # of every weight-<=5 error on 46 qubits took over 30 MB.
        tab = build_ancilla_spec([golay_css] * 2, "bell").weight_table(5)

        def nbytes(obj):
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            return sum(nbytes(x) for x in obj) if isinstance(obj, (tuple, list)) else 0

        assert nbytes((tab._x, tab._z)) <= 64 * 1024

    def test_wide_spec_oracle(self):
        # The Steane code plus 55 unencoded qubits, the widest block the
        # batched kernel takes: its zero state has 59 elements with a Z
        # part, too many local bits for a dense table, so X-side syndromes
        # are searched in the sorted syndromes of the light errors.
        n, w_cap = 62, 2
        code = build_code(BitMatrix(3, n, registry("hamming7").h.data), d=1)
        spec = build_ancilla_spec(build_css(code, code), "zero")
        tab = spec.weight_table(w_cap)
        assert isinstance(tab._x[1][0], tuple)
        oracle = {}
        for bits, w in gf2.iter_weight_le(n, w_cap):
            oracle.setdefault(generalized_syndrome(spec, (bits,), (0,)), w)
        rng = random.Random(62)
        frames = [sum(1 << q for q in rng.sample(range(n), rng.randint(0, 4))) for _ in range(60)]
        frames += [1 << (n - 1), 3 << (n - 2)]
        want = [oracle.get(generalized_syndrome(spec, (e,), (0,))) for e in frames]
        assert None in want and {1, 2} <= set(want)
        assert [tab.x_weight((e,)) for e in frames] == want
        got = tab.weights("x", np.array([(e,) for e in frames], dtype=np.int64))
        assert got.tolist() == [-1 if w is None else w for w in want]
