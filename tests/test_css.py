import itertools
import random

import pytest

from cssdistill import gf2
from cssdistill.codes import build_code, registry
from cssdistill.css import (
    PauliElement,
    apply_bitwise_phase,
    build_ancilla_spec,
    build_css,
    check_phase_gate_compatible,
    extended_checks,
    generalized_syndrome,
    residual_weight,
)
from cssdistill.gf2 import BitMatrix, BitVec

GOLAY_LOGICAL = BitVec.from_string("00000000000101011100011")


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
        xbar = golay_css.d_mat.row(0)
        # Same H_Z syndrome (both are codewords) and odd overlap with l.
        assert gf2.mat_vec(golay_css.h_z, xbar).is_zero()
        assert xbar.dot(GOLAY_LOGICAL) == 1
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
        assert steane_css.d_mat.row(0).weight() % 2 == 1

    def test_css_condition_violated(self):
        rep3 = registry("rep3")
        # By hand: H H^T for {110,011} is [[0,1],[1,0]] != 0.
        with pytest.raises(ValueError, match="CSS condition"):
            build_css(rep3, rep3)


class TestExtendedChecks:
    def test_golay_stack(self, golay_css):
        hp_z, hp_x = extended_checks(golay_css)
        assert (hp_z.rows, hp_z.cols) == (12, 23)
        assert hp_z.row(11) == GOLAY_LOGICAL
        assert (hp_x.rows, hp_x.cols) == (12, 23)
        assert hp_z.data[:11] == golay_css.h_z.data
        assert hp_x.data[:11] == golay_css.h_x.data

    def test_row_counts(self, steane_css):
        hp_z, hp_x = extended_checks(steane_css)
        assert hp_z.rows == steane_css.r_z + steane_css.k
        assert hp_x.rows == steane_css.r_x + steane_css.k


class TestAncillaSpecs:
    def test_zero_spec_roles(self, zero_spec, golay_css):
        assert len(zero_spec.s1) == 12 and len(zero_spec.s2) == 11
        # S1 = H_Z rows then logical Z; S2 = H_X rows.
        for idx in range(11):
            assert zero_spec.s1[idx].z == (golay_css.h_z.data[idx],)
            assert zero_spec.s1[idx].x == (0,)
        assert zero_spec.s1[11].z == (GOLAY_LOGICAL.bits,)
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
        assert crossing_z.z == (GOLAY_LOGICAL.bits, GOLAY_LOGICAL.bits) and crossing_z.x == (0, 0)
        crossing_x = bell.s2[-1]
        assert crossing_x.x == (GOLAY_LOGICAL.bits, GOLAY_LOGICAL.bits) and crossing_x.z == (0, 0)

    def test_all_elements_commute(self, golay_css):
        for kind, m in (("zero", 1), ("plus", 1), ("bell", 2), ("omega", 2)):
            spec = build_ancilla_spec([golay_css] * m if m > 1 else golay_css, kind)
            elems = spec.all_elements()
            assert len(elems) == spec.total_qubits
            for a, b in itertools.combinations(elems, 2):
                assert a.commutes(b)

    def test_omega_round_bases(self, golay_css):
        om = build_ancilla_spec([golay_css, golay_css], "omega")
        assert om.bases1 == ("Z", "X") and om.bases2 == ("X", "Z")

    def test_zero_correctors_are_logical_x(self, zero_spec, golay_css):
        assert len(zero_spec.correctors1) == 1
        cor = zero_spec.correctors1[0]
        assert cor.x == (golay_css.d_mat.data[0],) and cor.z == (0,)

    def test_corrector_contract(self, golay_css):
        for kind, m in (("bell", 2), ("omega", 2)):
            spec = build_ancilla_spec([golay_css] * m, kind)
            for round_, s, correctors in ((1, spec.s1, spec.correctors1), (2, spec.s2, spec.correctors2)):
                logicals = spec.logicals(round_)
                gens = len(s) - len(logicals)
                for t, cor in enumerate(correctors):
                    for idx, el in enumerate(s):
                        expect = idx == gens + t
                        assert cor.commutes(el) != expect

    def test_wrong_block_count(self, golay_css):
        with pytest.raises(ValueError, match="block"):
            build_ancilla_spec([golay_css, golay_css], "zero")


class TestGeneralizedSyndrome:
    def test_zero_frame(self, zero_spec):
        assert generalized_syndrome(zero_spec, (0,), (0,)).is_zero()

    def test_stabilizer_frame_invisible(self, zero_spec, golay_css):
        # A frame equal to a spec stabilizer commutes with everything.
        s = generalized_syndrome(zero_spec, (golay_css.h_x.data[3],), (golay_css.h_z.data[5],))
        assert s.is_zero()

    def test_single_x_reads_hpz_column(self, zero_spec, golay_css):
        s = generalized_syndrome(zero_spec, (1,), (0,))
        col = golay_css.hp_z.column(0)
        assert s.bits & 0xFFF == col.bits
        assert s.bits >> 12 == 0

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
        wx, wz = residual_weight(zero_spec, (0,), (GOLAY_LOGICAL.bits,))
        assert wz == 0

    def test_logical_x_weight(self, zero_spec):
        # X^l flips the zero state; its class has no light representative.
        wx, _ = residual_weight(zero_spec, (GOLAY_LOGICAL.bits,), (0,))
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


    def test_wide_spec_oracle(self):
        # The Steane code plus 60 unencoded qubits: its zero state has 64
        # elements with a Z part, so X-side syndromes take two key words,
        # and frames that touch qubits 63..66 are Python ints.
        n, w_cap = 67, 2
        code = build_code(BitMatrix(3, n, registry("hamming7").h.data), d=1)
        spec = build_ancilla_spec(build_css(code, code), "zero")
        tab = spec.weight_table(w_cap)
        assert len(tab._x[0][0]) == 2

        def oracle_x(e):
            target = generalized_syndrome(spec, (e,), (0,))
            for w in range(w_cap + 1):
                for combo in itertools.combinations(range(n), w):
                    if generalized_syndrome(spec, (sum(1 << q for q in combo),), (0,)) == target:
                        return w
            return None

        rng = random.Random(67)
        frames, want = [], []
        for i in range(12):
            e = sum(1 << q for q in rng.sample(range(n), rng.randint(0, 3)))
            e |= (i % 2) << rng.randrange(63, n)
            frames.append((e,))
            want.append(oracle_x(e))
            assert tab.x_weight((e,)) == want[-1]
        words = gf2.word_array(frames)
        assert words.dtype == object
        got = tab.weights("x", words)
        assert got.tolist() == [-1 if w is None else w for w in want]


class TestPhaseGate:
    def test_golay_compatible(self, golay_css):
        assert check_phase_gate_compatible(golay_css)

    def test_steane_compatible_by_enumeration(self, steane_css):
        # Exhaustive over the 2^3 dual codewords: all weights are 0 mod 4
        # and the logical has odd weight, so the check holds.
        weights = {w.bit_count() for w in gf2.iter_row_space(steane_css.h_x)}
        assert weights == {0, 4}
        assert check_phase_gate_compatible(steane_css) is True

    def test_golay_logical_coset_is_odd(self, golay_css):
        # Every representative of the logical class has odd weight, which is
        # what makes the bitwise-phase construction work at all.
        for w in gf2.iter_row_space(golay_css.h_x):
            assert (GOLAY_LOGICAL.bits ^ w).bit_count() % 2 == 1

    def test_asymmetric_code_fails(self):
        # [[23,0]] from the Golay code and its dual: valid CSS pair, but the
        # check row spaces differ, so condition (a) rejects it.
        golay = registry("golay23")
        dual = registry("golay23_dual")
        css = build_css(golay, dual)
        assert css.k == 0
        assert css.hp_z.rows == css.h_z.rows  # no logical rows to stack
        assert check_phase_gate_compatible(css) is False

    def test_even_weight_logical_fails(self, golay_css):
        # Synthetic fixture hitting condition (c): same checks, but with an
        # even-weight vector in place of the logical X representative.
        from dataclasses import replace

        even = GOLAY_LOGICAL.bits ^ (1 << 0)  # weight 8, no longer in C_Z
        forged = replace(
            golay_css,
            d_mat=gf2.BitMatrix(1, 23, (even,)),
        )
        assert check_phase_gate_compatible(forged) is False

    def test_theta_from_omega(self, golay_css):
        omega = build_ancilla_spec([golay_css, golay_css], "omega", i=0, j=0)
        theta = apply_bitwise_phase(omega)
        assert theta.kind == "theta"
        ybars = [
            el
            for el in theta.all_elements()
            if el.x[1] and el.z[1] and el.x[1] == el.z[1] == GOLAY_LOGICAL.bits
        ]
        assert len(ybars) == 1
        assert ybars[0].z[0] == GOLAY_LOGICAL.bits  # the Z(a) (x) Y(b) element
        for a, b in itertools.combinations(theta.all_elements(), 2):
            assert a.commutes(b)

    def test_other_logicals_unaffected(self, golay_css):
        # k=1 for the Golay block, so check on the Steane pair where the
        # transform must leave the pure-Z crossing structure alone.
        omega = build_ancilla_spec([golay_css, golay_css], "omega")
        theta = apply_bitwise_phase(omega)
        # Block-level generators keep their pure types.
        for el_o, el_t in zip(omega.s1[:22], theta.s1[:22]):
            assert el_o == el_t

    def test_phase_twice_is_z_conjugation(self, golay_css):
        # P^2 = Z: reps transform by z ^= x twice, identity on all reps.
        omega = build_ancilla_spec([golay_css, golay_css], "omega")

        def conj_twice(el):
            z1 = tuple(z ^ x if b == 1 else z for b, (x, z) in enumerate(zip(el.x, el.z)))
            z2 = tuple(z ^ x if b == 1 else z for b, (x, z) in enumerate(zip(el.x, z1)))
            return PauliElement(el.x, z2)

        for el in omega.all_elements():
            assert conj_twice(el) == el

    def test_requires_omega(self, golay_css):
        zero = build_ancilla_spec(golay_css, "zero")
        with pytest.raises(ValueError):
            apply_bitwise_phase(zero)
