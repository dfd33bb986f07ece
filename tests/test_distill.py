import functools
import hashlib
import itertools
import math
import operator
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssdistill import codes, distill, frames, gf2, sampling
from cssdistill.cli import COMBINATIONS
from cssdistill.codes import LinearCode, build_code, registry
from cssdistill.css import PauliElement, build_ancilla_spec, build_css, residual_weight
from cssdistill.distill import (
    BATCH,
    CompiledRound,
    DistillationConfig,
    ProtocolRunner,
    build_round_circuit,
    compute_sigma,
    correct_block,
    decode_columns,
    extend_stabilizers,
    hd_column_masks,
    ideal_postselect,
    postselect,
)
from cssdistill.frames import (
    FailureModel,
    Fault,
    FaultInjection,
    PauliFrame,
    effective_support,
    run_noisy,
)
from cssdistill.gf2 import BitMatrix

GOLAY_LOGICAL = int("00000000000101011100011"[::-1], 2)  # qubit 0 first


@pytest.fixture(scope="module")
def golay_css():
    g = registry("golay23")
    return build_css(g, g)


@pytest.fixture(scope="module")
def zero_spec(golay_css):
    return build_ancilla_spec(golay_css, "zero")


@pytest.fixture(scope="module")
def round1_rep3(zero_spec):
    return CompiledRound(zero_spec, 1, registry("rep3"), None)


@pytest.fixture(scope="module")
def round1_bch(zero_spec):
    return CompiledRound(zero_spec, 1, registry("bch15_7_5"), None)


def record_heavy_leaders(monkeypatch) -> list[int]:
    """Record the weight of every leader the reference decodes past weight
    t + 1, where the coset-leader tables once ended: a column's leader from
    the round code, or a block's from its correction code."""
    heavy = []
    decode, columns = LinearCode.decode, distill.decode_columns

    def block(code, s):
        e = decode(code, s)
        if e.bit_count() > code.t + 1:
            heavy.append(e.bit_count())
        return e

    def column(sigma, code_c, n_cols):
        rows = columns(sigma, code_c, n_cols)
        weights = (sum(row >> c & 1 for row in rows) for c in range(n_cols))
        heavy.extend(w for w in weights if w > code_c.t + 1)
        return rows
    monkeypatch.setattr(LinearCode, "decode", block)
    monkeypatch.setattr(distill, "decode_columns", column)
    return heavy


def zero_frames(n_c):
    return [PauliFrame.zeros((23,)) for _ in range(n_c)]


def se_column_mask(se, qubit):
    """Bits of SE elements whose measured part touches the qubit (m=1, Z round)."""
    bits = 0
    for c, el in enumerate(se):
        if (el.z[0] >> qubit) & 1:
            bits |= 1 << c
    return bits


class TestBuildRoundCircuit:
    def test_rep3_topology(self):
        rep3 = registry("rep3")
        circ = build_round_circuit(rep3.a, 1, n=23)
        # Fig-style layout: blocks 0,1 are the parity-check ancillas, the
        # data block 2 controls transversal CNOTs onto each of them.
        cnots = [g for _, _, g in circ.gates() if g.kind == "cnot"]
        assert len(cnots) == 2 * 23
        assert {g.locs[0][0] for g in cnots} == {2}
        assert {g.locs[1][0] for g in cnots} == {0, 1}
        meas = [g for _, _, g in circ.gates() if g.kind == "meas_z"]
        assert {g.locs[0][0] for g in meas} == {0, 1}

    def test_trivial_code_empty_circuit(self):
        # k_c = 1, r_c = 0: nothing to check, nothing to measure.
        one = build_code(gf2.BitMatrix(0, 1, ()), d=1)
        circ = build_round_circuit(one.a, 1, n=23)
        assert sum(1 for _ in circ.gates()) == 0

    def test_round2_direction(self):
        rep3 = registry("rep3")
        circ = build_round_circuit(rep3.a, 2, n=5)
        cnots = [g for _, _, g in circ.gates() if g.kind == "cnot"]
        # Checks are controls in the X-measured round.
        assert {g.locs[0][0] for g in cnots} == {0, 1}
        meas_kinds = {g.kind for _, _, g in circ.gates() if g.kind.startswith("meas")}
        assert meas_kinds == {"meas_x"}

    def test_shared_block_layers_in_distinct_steps(self):
        bch = registry("bch15_7_5")
        circ = build_round_circuit(bch.a, 1, n=23)
        for step in circ.steps:
            pair_of_block = {}
            for g in step:
                if g.kind != "cnot":
                    continue
                pair = (g.locs[0][0], g.locs[1][0])
                for b in pair:
                    assert pair_of_block.setdefault(b, pair) == pair
        # every (i, j) coupling of the systematic part appears exactly once
        cnots = [g for _, _, g in circ.gates() if g.kind == "cnot"]
        pairs = {(g.locs[1][0], g.locs[0][0] - 8) for g in cnots}
        expect = {(i, j) for i in range(8) for j in range(7) if bch.a.get(i, j)}
        assert pairs == expect


class TestExtendStabilizers:
    def test_none_is_identity(self, zero_spec):
        assert extend_stabilizers(zero_spec.s1, None) == list(zero_spec.s1)

    def test_golay_round1_extension(self, zero_spec):
        se = extend_stabilizers(zero_spec.s1, registry("golay23"))
        assert len(se) == 23
        # Product reps are the A_d combinations of the originals.
        a_d = registry("golay23").a
        for j in range(11):
            acc = 0
            for i in range(12):
                if a_d.get(j, i):
                    acc ^= zero_spec.s1[i].z[0]
            assert se[12 + j].z[0] == acc

    def test_single_one_row_duplicates_element(self):
        h = gf2.BitMatrix.from_strings(["110"])
        code_d = build_code(h, d=1)
        els = (
            PauliElement((0,), (0b01,)),
            PauliElement((0,), (0b10,)),
        )
        se = extend_stabilizers(els, code_d)
        assert len(se) == 3 and se[2] == els[0]

    def test_dimension_mismatch(self, zero_spec):
        with pytest.raises(ValueError, match="k="):
            extend_stabilizers(zero_spec.s1, registry("golay23_dual"))


class TestComputeSigma:
    def test_zero_records(self, zero_spec):
        se = extend_stabilizers(zero_spec.s1, registry("golay23"))
        assert compute_sigma([[0], [0]], se, 1) == [0, 0]

    def test_single_flip_reads_se_column(self, zero_spec):
        se = extend_stabilizers(zero_spec.s1, registry("golay23"))
        q = 7
        rows = compute_sigma([[1 << q], [0]], se, 1)
        assert rows[0] == se_column_mask(se, q) and rows[1] == 0

    def test_rep3_x_fault_on_data_qubit0(self, zero_spec):
        # Hand propagation: an X on qubit 0 of the data block reaches both
        # check records through the two transversal layers.
        rep3 = registry("rep3")
        circ = build_round_circuit(rep3.a, 1, n=23)
        init = PauliFrame.zeros(circ.ns)
        init.e[2] = 1  # data block, qubit 0
        _, recs = run_noisy(circ, FaultInjection(()), initial=init)
        assert recs[0] == 1 and recs[1] == 1
        se = extend_stabilizers(zero_spec.s1, registry("golay23"))
        rows = compute_sigma([[recs[0]], [recs[1]]], se, 1)
        expect = se_column_mask(se, 0)
        assert rows == [expect, expect]


class TestDecodeColumns:
    def test_zero_sigma(self):
        assert decode_columns([0, 0], registry("rep3"), 23) == [0, 0, 0]

    def test_low_weight_recovery(self):
        # <= t_c flipped rows per column recover exactly.
        bch = registry("bch15_7_5")
        rng = random.Random(2)
        for _ in range(40):
            n_cols = 23
            s_true = [0] * 15
            flipped = rng.sample(range(15), rng.randint(0, 2))
            cols = rng.sample(range(n_cols), rng.randint(1, 5))
            for j in flipped:
                for c in cols:
                    s_true[j] |= 1 << c
            sigma = [0] * 8
            for i in range(8):
                acc = 0
                for j in range(15):
                    if bch.h.get(i, j):
                        acc ^= s_true[j]
                sigma[i] = acc
            assert decode_columns(sigma, bch, n_cols) == s_true

    def test_rep3_two_flips_blame_third_block(self):
        # Two identical flipped rows in a 3-block group: the decoder
        # attributes the flip to the remaining block.  Syndromes follow the
        # check-slot relation sigma_i = s_i + sum_j A[i,j] s_data_j.
        rep3 = registry("rep3")
        s_true = [1, 1, 0]
        sigma = []
        for i in range(2):
            acc = s_true[i]
            for j in range(1):
                if rep3.a.get(i, j):
                    acc ^= s_true[2 + j]
            sigma.append(acc)
        assert decode_columns(sigma, rep3, 1) == [0, 0, 1]


class TestPostselect:
    def test_zero_accepted(self, zero_spec):
        masks = hd_column_masks(registry("golay23"), 12)
        assert postselect(0, masks)

    def test_true_extended_syndromes_compatible(self, zero_spec, golay_css):
        # Any real error's extended syndrome satisfies every H_d parity.
        se = extend_stabilizers(zero_spec.s1, registry("golay23"))
        masks = hd_column_masks(registry("golay23"), 12)
        rng = random.Random(3)
        for _ in range(200):
            e = rng.getrandbits(23)
            row = 0
            for c, el in enumerate(se):
                if (el.z[0] & e).bit_count() & 1:
                    row |= 1 << c
            assert postselect(row, masks)

    def test_corrupted_syndrome_rejected(self, zero_spec):
        se = extend_stabilizers(zero_spec.s1, registry("golay23"))
        masks = hd_column_masks(registry("golay23"), 12)
        row = 0
        e = 0b1011
        for c, el in enumerate(se):
            if (el.z[0] & e).bit_count() & 1:
                row |= 1 << c
        assert not postselect(row ^ 1, masks)


def product_ideal_postselect(sigma_rows, code_c, n_s):
    """The oracle of ``ideal_postselect`` on one group: decode the syndrome
    column of every product of the n_s stabilizers and accept a unit when
    each estimate's bit equals the XOR of its factors' bits.  Returns the
    accept mask over the n_c units."""
    r_c = code_c.r
    syn_single = np.zeros(n_s, dtype=np.uint32)
    for i_el in range(n_s):
        syn = 0
        for i in range(r_c):
            if (sigma_rows[i] >> i_el) & 1:
                syn |= 1 << i
        syn_single[i_el] = syn

    count = 1 << n_s
    idx = np.arange(count, dtype=np.uint32)
    syn_prod = np.zeros(count, dtype=np.uint32)
    for b in range(n_s):
        sel = (idx >> b) & 1 == 1
        syn_prod[sel] ^= syn_single[b]
    est = code_c.systematic_table[syn_prod]
    est_xor = np.zeros(count, dtype=np.int64)
    for b in range(n_s):
        sel = (idx >> b) & 1 == 1
        est_xor[sel] ^= est[1 << b]
    mismatch = int(np.bitwise_or.reduce(est ^ est_xor))
    return ~mismatch & ((1 << code_c.n) - 1)


class TestIdealPostselect:
    def test_good_patterns_pass_exhaustively(self, zero_spec):
        # Exhaustive over the rep3 round: every good
        # pattern (identical nonzero rows) yields valid estimates for all
        # blocks, for every flipped-row subset and every row value, all
        # 7 x 4,095 groups in one call; a sample of them checks the product
        # oracle too.
        rep3 = registry("rep3")
        n_s = 12
        h = rep3.h
        rows = []
        for flipped in range(1, 8):
            for v in range(1, 1 << n_s):
                sigma = [0, 0]
                for i in range(2):
                    parity = 0
                    for j in range(3):
                        if h.get(i, j) and (flipped >> j) & 1:
                            parity ^= 1
                    if parity:
                        sigma[i] = v
                rows.append(sigma)
        accept = ideal_postselect(rows, rep3, n_s)
        assert accept.tolist() == [0b111] * len(rows)
        for sigma in rows[::701]:
            assert product_ideal_postselect(sigma, rep3, n_s) == 0b111, sigma

    def test_inconsistent_pattern_rejected(self, zero_spec):
        # Rows flipping in unrelated columns break product consistency.
        rep3 = registry("rep3")
        sigma = [0b000000000011, 0b000000000101]
        accept = ideal_postselect([sigma], rep3, 12)
        assert accept[0] != 0b111
        assert accept[0] == product_ideal_postselect(sigma, rep3, 12)

    @pytest.mark.parametrize("n_s", [3, 7, 12])
    @pytest.mark.parametrize("name", codes.REGISTRY_NAMES)
    def test_matches_product_oracle(self, name, n_s):
        # The span check against the product oracle on one call of random
        # rows and of sparse ones: each column (stabilizer) is clean or
        # has the syndrome of a one- or two-unit error, often one shared
        # error (a good pattern), so that both verdicts occur.  Repeats of
        # 30 rows, and 30 rows each with their columns permuted or one
        # column copied over another, shuffled in, are decided once per set
        # of columns and must map back.
        code = registry(name)
        rng = random.Random(zlib.crc32(f"{name}:{n_s}".encode()))

        def unit_syndrome():  # of one unit in the check slots' coordinates
            u = rng.randrange(code.n)
            return 1 << u if u < code.r else code.a.column(u - code.r)

        def rows(cols):
            return [sum((col >> i & 1) << c for c, col in enumerate(cols)) for i in range(code.r)]
        groups = [[rng.getrandbits(n_s) for _ in range(code.r)] for _ in range(40)]
        for _ in range(60):
            shared = unit_syndrome() ^ unit_syndrome()
            groups.append(rows([0 if rng.random() < 0.6 else shared if rng.random() < 0.7
                                else unit_syndrome() ^ unit_syndrome() for _ in range(n_s)]))
        for sigma in rng.choices(groups, k=30):
            cols = [sum((row >> c & 1) << i for i, row in enumerate(sigma)) for c in range(n_s)]
            rng.shuffle(cols)
            groups.append(rows(cols))
            src, dst = rng.sample(range(n_s), 2)
            cols[dst] = cols[src]
            groups.append(rows(cols))
        groups += rng.choices(groups, k=30)
        rng.shuffle(groups)
        got = ideal_postselect(groups, code, n_s).tolist()
        want = [product_ideal_postselect(sigma, code, n_s) for sigma in groups]
        assert got == want
        full = (1 << code.n) - 1
        assert full in want and any(w != full for w in want)


class TestCorrectBlock:
    def test_zero_syndrome_noop(self, zero_spec):
        assert correct_block(zero_spec, 1, 0, (0b1010,), (0b1,)) == ((0b1010,), (0b1,))

    def test_weight3_x_fully_corrected(self, zero_spec, golay_css):
        rng = random.Random(9)
        tab = zero_spec.weight_table(4)
        for _ in range(60):
            e = 0
            for q in rng.sample(range(23), rng.randint(1, 3)):
                e |= 1 << q
            s_hat = 0
            for idx, el in enumerate(zero_spec.s1):
                if (el.z[0] & e).bit_count() & 1:
                    s_hat |= 1 << idx
            new_e, _ = correct_block(zero_spec, 1, s_hat, (e,), (0,))
            assert tab.x_weight(new_e) == 0

    def test_logical_rule_three(self, zero_spec):
        # Estimated stabilizer bits zero, logical eigenvalue one, trivial
        # decoded error: multiply in the logical X representative.
        s_hat = 1 << 11
        new_e, _ = correct_block(zero_spec, 1, s_hat, (0,), (0,))
        assert new_e == (GOLAY_LOGICAL,)
        tab = zero_spec.weight_table(4)
        assert tab.x_weight(new_e) is None  # weight-7 class

    def test_round2_corrects_f(self, zero_spec):
        f_err = 0b101
        s_hat = 0
        for idx, el in enumerate(zero_spec.s2):
            if (el.x[0] & f_err).bit_count() & 1:
                s_hat |= 1 << idx
        _, new_f = correct_block(zero_spec, 2, s_hat, (0,), (f_err,))
        tab = zero_spec.weight_table(4)
        assert tab.z_weight(new_f) == 0


class TestRoundEngineEquivalence:
    """The table-driven trial engine must agree bit-for-bit with the
    generic circuit-walk reference composed from the public operations."""

    @pytest.mark.parametrize(
        "c_name,d1,d2,p,trials",
        [
            ("rep3", "golay23", "golay23_dual", 0.02, 12),
            ("bch15_7_5", "golay23", "golay23_dual", 0.004, 4),
            ("rep3", None, None, 0.02, 8),
            ("rep3", "ideal", "ideal", 0.01, 5),
        ],
    )
    def test_engine_matches_reference(self, zero_spec, c_name, d1, d2, p, trials):
        code_c = registry(c_name)
        cfg = DistillationConfig(
            spec=zero_spec,
            code_c1=code_c,
            code_c2=code_c,
            code_d1=registry(d1) if isinstance(d1, str) and d1 != "ideal" else d1,
            code_d2=registry(d2) if isinstance(d2, str) and d2 != "ideal" else d2,
            model=FailureModel.uniform(0.0),
            n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        rng = np.random.default_rng(zlib.crc32(f"{c_name}:{p}:{d1}".encode()))
        for _ in range(trials):
            self._check_injected(runner, self._random_faults(runner, p, rng))

    def _check_sampled(self, runner, seed, p_index, trials):
        """Sampled trials of the runner against the reference, trial by
        trial; returns the outcomes."""
        batch = runner.run_batch(seed, p_index, 0, trials)
        outcomes = []
        for t in range(trials):
            got = batch.outcome(t)
            assert got == runner.run_trial(seed, p_index, t), t
            outcomes.append(got)
        return outcomes

    def _check_sampled_config(self, spec, c_name, d1, d2, p, n_extra):
        code_c = registry(c_name)
        cfg = DistillationConfig(
            spec=spec, code_c1=code_c, code_c2=code_c,
            code_d1=registry(d1) if isinstance(d1, str) and d1 != "ideal" else d1,
            code_d2=registry(d2) if isinstance(d2, str) and d2 != "ideal" else d2,
            model=FailureModel.uniform(p), n_extra=n_extra,
        )
        runner = ProtocolRunner(cfg)
        outcomes = self._check_sampled(runner, 23, 1, 50)
        assert sum(o.rej1 + o.rej2 for o in outcomes) or d1 is None

    @pytest.mark.parametrize(
        "c_name,d1,d2,p,n_extra",
        [
            ("bch15_7_5", "golay23", "golay23_dual", 1.6e-3, 6),
            ("rep3", "golay23", "golay23_dual", 0.02, 2),
            ("rep3", None, None, 0.02, 2),
            ("rep3", "ideal", "ideal", 0.01, 2),
            ("golay23_dual", "golay23", "golay23_dual", 1e-3, 2),
        ],
    )
    def test_sampled_trials_match_reference(self, zero_spec, monkeypatch, c_name, d1, d2, p, n_extra):
        # Sampled positions, decoded into circuit-level injections and
        # replayed through the reference, give the batched engine's outcome.
        # The [23,11,8] round code's covering radius is 7, so its columns
        # also decode to leaders heavier than t + 1 = 4.
        heavy = record_heavy_leaders(monkeypatch)
        self._check_sampled_config(zero_spec, c_name, d1, d2, p, n_extra)
        assert bool(heavy) == (c_name == "golay23_dual")

    @pytest.mark.parametrize("d1,d2", [(None, None), ("golay23", "golay23_dual")])
    def test_sampled_trials_with_a_heavy_correction_code(self, monkeypatch, d1, d2):
        # The CSS code of the Golay code and its dual corrects X errors
        # with the [23,11,8] code, whose blocks also decode to leaders
        # heavier than t + 1 = 4 when nothing rejects them first.
        heavy = record_heavy_leaders(monkeypatch)
        spec = build_ancilla_spec(build_css(registry("golay23"), registry("golay23_dual")), "zero")
        self._check_sampled_config(spec, "rep3", d1, d2, 0.02, 2)
        assert bool(heavy) == (d1 is None)

    def test_widest_round_code_matches_reference(self, zero_spec):
        # An [18,17,2] parity code would break the kernel's 16-bit column
        # decoder values (test_config_beyond_the_kernel_names_field); the
        # [17,16,2] one fills them.
        parity = build_code(BitMatrix(1, 17, ((1 << 17) - 1,)), d=2)
        runner = ProtocolRunner(DistillationConfig(
            spec=zero_spec, code_c1=registry("rep3"), code_c2=parity, code_d1=None, code_d2=None,
            model=FailureModel.uniform(0.01), n_extra=2,
        ))
        outcomes = self._check_sampled(runner, 23, 1, 20)
        assert sum(len(o.outputs) for o in outcomes) == 20 * 16

    def test_detecting_code_beyond_the_table_limit(self, zero_spec):
        # A [29,12] detecting code has r = 17 checks, too many for a
        # coset-leader table; postselection reads only its parities, so
        # the runner builds and runs without one.
        wide = build_code(BitMatrix(17, 29, tuple((1 << i) | (0x9E5 * (i + 1) & 0xFFF) << 17
                                                  for i in range(17))), d=1)
        rep3 = registry("rep3")
        runner = ProtocolRunner(DistillationConfig(
            spec=zero_spec, code_c1=rep3, code_c2=rep3, code_d1=wide, code_d2=None,
            model=FailureModel.uniform(0.02), n_extra=2,
        ))
        outcomes = self._check_sampled(runner, 23, 1, 20)
        assert sum(o.rej1 for o in outcomes)
        assert "syndrome_table" not in vars(wide)

    @pytest.mark.parametrize(
        "block,c_name,d1,d2,p",
        [
            ("golay23", "bch15_7_5", None, None, 1.6e-3),
            # bch15_7_5 as detecting code: k = 7 = |S| of a Steane Bell round.
            ("hamming7", "bch15_7_5", "bch15_7_5", "bch15_7_5", 2e-3),
            ("hamming7", "rep3", "ideal", "ideal", 0.01),
            # |S| = 23 stabilizers: 2^23 products, but a span of at most 4 syndromes.
            ("golay23", "rep3", "ideal", "ideal", 1e-3),
        ],
    )
    def test_sampled_bell_trials_match_reference(self, block, c_name, d1, d2, p):
        # Two-block units: 46-bit (Golay) and 14-bit (Steane) unit words.
        css = build_css(registry(block), registry(block))
        self._check_sampled_config(build_ancilla_spec([css, css], "bell"), c_name, d1, d2, p, 2)

    @pytest.mark.parametrize(
        "n,kind,refused", [(62, "zero", None), (63, "zero", "spec.blocks: a block has 63"),
                           (67, "zero", "spec.blocks: a block has 67"), (31, "bell", None),
                           (32, "bell", "spec: a unit of 2 blocks has 64")],
        ids=["62", "63", "67", "bell-31", "bell-32"],
    )
    def test_wide_blocks_match_reference(self, n, kind, refused):
        # The Steane code plus n - 7 unencoded qubits is an [[n, n - 6]]
        # code whose zero state has |SE| = n - 3.  Units of up to 62 bits
        # (one block of n = 62, two of n = 31) fill the batched kernel's
        # int64 words and match the reference there; a config of wider
        # units is refused, naming the block code or the unit (test_cli
        # checks the exit code of simulate and inject on them).
        code = build_code(BitMatrix(3, n, registry("hamming7").h.data), d=1)
        css = build_css(code, code)
        spec = build_ancilla_spec([css] * (2 if kind == "bell" else 1), kind)
        rep3 = registry("rep3")

        def config():
            return DistillationConfig(
                spec=spec, code_c1=rep3, code_c2=rep3, code_d1=None, code_d2=None,
                model=FailureModel.uniform(0.01), n_extra=2,
            )
        if refused:
            with pytest.raises(ValueError, match=rf"^{refused} qubits; the batched kernel takes at most 62$"):
                config()
            return
        outcomes = self._check_sampled(ProtocolRunner(config()), 7, 0, 20)
        assert any(any(any(e) or any(f) for e, f in o.outputs) for o in outcomes)

    def _random_faults(self, runner, p, rng):
        return numpy_rows(runner.with_model(FailureModel.uniform(p)), [rng])

    def test_plus_spec_round2_logicals(self, golay_css):
        # The plus state moves the logical eigenvalue handling to round 2
        # (the detecting-code pair swaps accordingly).
        spec = build_ancilla_spec(golay_css, "plus")
        rep3 = registry("rep3")
        cfg = DistillationConfig(
            spec=spec, code_c1=rep3, code_c2=rep3,
            code_d1=registry("golay23_dual"), code_d2=registry("golay23"),
            model=FailureModel.uniform(0.0), n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        rng = np.random.default_rng(404)
        for _ in range(8):
            self._check_injected(runner, self._random_faults(runner, 0.02, rng))

    def _check_injected(self, runner, rows):
        got = runner.run_rows(*rows).outcome(0)
        assert got == runner.run_reference(*sampling.injections(runner, *rows[:2]))

    def test_bell_spec_two_block_units(self, golay_css):
        # Two-block ancilla units run on the batched kernel as 46-bit words.
        spec = build_ancilla_spec([golay_css, golay_css], "bell")
        rep3 = registry("rep3")
        cfg = DistillationConfig(
            spec=spec, code_c1=rep3, code_c2=rep3,
            code_d1=None, code_d2=None,
            model=FailureModel.uniform(0.0), n_extra=1,
        )
        runner = ProtocolRunner(cfg)
        rng = np.random.default_rng(505)
        out0 = runner.run_injected()
        assert len(out0.outputs) == 1 and out0.outputs[0] == ((0, 0), (0, 0))
        for _ in range(4):
            self._check_injected(runner, self._random_faults(runner, 0.01, rng))


@pytest.fixture(scope="module")
def steane_runner():
    # Steane |0>_L with rep3 rounds: small enough to sample p = 1.
    steane = build_css(registry("hamming7"), registry("hamming7"))
    rep3 = registry("rep3")
    return ProtocolRunner(DistillationConfig(
        spec=build_ancilla_spec(steane, "zero"), code_c1=rep3, code_c2=rep3,
        code_d1=None, code_d2=None, model=FailureModel.uniform(0.0), n_extra=2,
    ))


def _numpy_positions(rng, total, p):
    """Positions of a Bernoulli(p) process over [0, total) from numpy's own
    geometric skips, drawn ``sampling._chunk`` at a time until one ends past
    the space."""
    if p <= 0.0 or total == 0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunk, parts, cur = sampling._chunk(total, p), [], -1
    while True:
        ends = rng.geometric(p, size=chunk).cumsum() + cur
        cut = int(ends.searchsorted(total))
        parts.append(ends[:cut])
        if cut < chunk:
            return np.concatenate(parts)
        cur = int(ends[-1])


def numpy_rows(runner, rngs):
    """The oracle of ``sampling.sample_batch``: each trial's faults
    drawn from its generator with numpy's own ``geometric`` skips over the
    gate space, then over the readout space, then ``integers(0, 15)`` and
    ``integers(0, 3)`` per gate fault, stacked as fault rows."""
    model, gate, meas = runner.config.model, [], []
    for t, rng in enumerate(rngs):
        pos = _numpy_positions(rng, runner.gate_space, model.p_gate)
        m_pos = _numpy_positions(rng, runner.meas_space, model.p_meas)
        draw15 = rng.integers(0, 15, size=len(pos))
        draw3 = rng.integers(0, 3, size=len(pos))
        gate.append(np.column_stack((np.full(len(pos), t), pos, draw15, draw3)))
        meas.append(np.column_stack((np.full(len(m_pos), t), m_pos)))
    rows = runner.row_dtype
    return np.concatenate(gate).astype(rows), np.concatenate(meas).astype(rows), t + 1


# Failure rates: none, inversion geometric, search geometric, every location.
_RATES = st.one_of(st.just(0.0), st.floats(1e-6, 0.3), st.sampled_from([0.35, 1.0]))


class TestBatchSampling:
    """``sampling.sample_batch`` against numpy's per-trial draws, row for
    row."""

    def _check(self, runner, seed, p_index, first, count):
        got = sampling.sample_batch(runner, seed, p_index, first, count)
        want = numpy_rows(runner, (runner.stream.at(seed, p_index, t)
                                   for t in range(first, first + count)))
        assert got[2] == want[2] == count
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(-2**63, 2**64 - 1), p_index=st.integers(0, 2**20),
           first=st.integers(0, 2**62), count=st.integers(1, BATCH),
           p_gate=_RATES, p_meas=_RATES)
    def test_matches_per_trial_sampler(self, steane_runner, seed, p_index, first, count,
                                       p_gate, p_meas):
        runner = steane_runner.with_model(FailureModel(p_gate=p_gate, p_meas=p_meas))
        self._check(runner, seed, p_index, first, count)

    @pytest.mark.parametrize("kind", ["zero", "bell"])
    def test_benchmark_configs(self, golay_css, kind):
        # Golay |0>_L with combination A and Golay postselection, and Golay
        # Bell pairs without: the two benchmark workloads at their rates.
        base = _benchmark_runner(golay_css, kind)
        for p_index, p in enumerate([1e-4, 4e-4, 1.6e-3]):
            self._check(base.with_model(FailureModel.uniform(p)), 31, p_index, 5 * BATCH, BATCH)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_multi_chunk_redraws_match_numpy(self, steane_runner, monkeypatch, chunk):
        # Chunks far too short for their spaces: most trials are drawn
        # again alone with more gate chunks, then more readout chunks, at
        # inversion and search rates, and spliced back in trial order.
        monkeypatch.setattr(sampling, "_chunk", lambda total, p: chunk)
        for p_gate, p_meas in [(0.01, 0.05), (0.4, 1e-3), (2e-3, 0.5), (0.0, 0.3), (1.0, 0.02)]:
            runner = steane_runner.with_model(FailureModel(p_gate=p_gate, p_meas=p_meas))
            self._check(runner, 5, 2, 40, 12)

    def test_raw_word_redraws_match_numpy(self, steane_runner, monkeypatch):
        # A row flagged as out of nonzero uint32 values is drawn again alone
        # with twice the raw words until it is not; flagged here, with
        # garbage draws, for three trials until their words doubled twice.
        real, widths = sampling._pauli_draws, []

        def short_rows(raw, k):
            draw15, draw3, short = real(raw, k)
            widths.append(raw.shape[1])
            rows = [0, 5, 17] if len(k) > 1 else [0] * (raw.shape[1] < 4 * widths[0])
            short[rows] = True
            garbage = short[np.repeat(np.arange(len(k)), k)]
            draw15[garbage] = draw3[garbage] = -1
            return draw15, draw3, short

        monkeypatch.setattr(sampling, "_pauli_draws", short_rows)
        self._check(steane_runner.with_model(FailureModel.uniform(0.05)), 3, 1, 100, 20)
        assert widths[1:] == [2 * widths[0], 4 * widths[0]] * 3

    @pytest.mark.parametrize("p", [np.nextafter(1 / 3, 0), 1 / 3, 0.35, 0.5, 0.9, 0.999999])
    def test_search_geometric_matches_numpy(self, p):
        # From p = 1/3 up numpy's geometric searches its partial sums for a
        # uniform of one raw word; below it inverts a standard exponential.
        searches = p >= 1 / 3
        for key in (0, 7, 2**64 - 1):
            want = np.random.Generator(np.random.Philox(key=key)).geometric(p, (4, 500))
            want = want.cumsum(axis=1) - 1
            gen = np.random.Generator(np.random.Philox(key=key))
            draws = gen.bit_generator.random_raw((4, 500)) if searches else gen.standard_exponential((4, 500))
            for total in (300, 10**6):
                pos, k, short = sampling._batch_positions(draws, total, p)
                assert np.array_equal(pos, want[want < total])
                assert k.tolist() == (want < total).sum(axis=1).tolist()
                assert short.tolist() == [total == 10**6] * 4

    @pytest.mark.parametrize("p", [1e-18, 1e-300, 5e-324])
    def test_tiny_rates_sample_no_faults(self, steane_runner, golay_css, p):
        # numpy's geometric clamps such skips to 2^63 - 1 and its int64
        # running sums wrap: at 1e-18 they put 151,961 faults in these 10,240
        # golay0-A-ref trials, where about 6e-10 are expected.
        for base in (steane_runner, _benchmark_runner(golay_css, "zero")):
            runner = base.with_model(FailureModel.uniform(p))
            for first in range(0, 40 * BATCH, BATCH):
                gate, meas, _ = sampling.sample_batch(runner, 3, 0, first, BATCH)
                assert len(gate) == len(meas) == 0, (base.n, first)

    def test_long_chunk_falls_back(self):
        # Skips of 1 use up a chunk of 16 inside a total of 100: numpy would
        # draw a second chunk, so the trial is drawn again with two.  The
        # other row ends inside its chunk.
        exps = np.full((2, 16), 1e-9)
        exps[1, 3] = 50.0
        pos, k, short = sampling._batch_positions(exps, 100, 0.01)
        assert short.tolist() == [True, False]
        assert k.tolist() == [16, 3]
        assert pos[16:].tolist() == [0, 1, 2]

    def test_positions_match_integer_running_sums(self):
        # Crafted rows against plain-int skips and running sums.  Row 0
        # holds a skip of about 2^60 in a chunk of 16, which the float64
        # running sums keep exact; row 1 a skip of 2^64, past numpy's int64
        # clamp, after two kept positions; row 2 fifteen short skips that
        # end inside the total, and row 3 sixteen that use up the chunk.
        p, total = 1e-12, 100
        rate = -math.log1p(-p)
        exps = np.full((4, 16), 3.0 * rate)
        exps[0, 5] = 2.0**60 * rate
        exps[1, 2] = 2.0**64 * rate
        exps[2, 15] = 200.0 * rate
        exps[3] = 2.0 * rate
        pos, k, short = sampling._batch_positions(exps, total, p)
        assert short.tolist() == [False, False, False, True]
        want = []
        for row in exps.tolist():
            sums = itertools.accumulate(math.ceil(e / rate) for e in row)
            want.append([s - 1 for s in sums if s - 1 < total])
        assert want[0] == [2, 5, 8, 11, 14] and want[1] == [2, 5] and len(want[2]) == 15
        assert k.tolist() == [len(w) for w in want]
        assert pos.tolist() == [x for w in want for x in w]

    def test_zero_uint32_falls_back(self):
        # A trial's k 15-way then k 3-way draws read the first 2k nonzero
        # uint32 values of its row, low half of each word first: numpy
        # redraws a zero.  The last row holds one nonzero value, too few
        # for one fault, so the trial is drawn again with twice the words.
        def u(d, r):  # (u * r) >> 32 == d
            return d * 2**32 // r + 1

        rows = [[u(11, 15), 0, u(4, 15), u(2, 3), 0, u(1, 3)],
                [u(7, 15), u(0, 3), 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0],
                [0, u(14, 15), 0, 0, 0, u(2, 3)],
                [u(3, 15), 0, 0, 0, 0, 0]]
        raw = np.array(rows, dtype="<u4").view("<u8").astype(np.uint64)
        draw15, draw3, short = sampling._pauli_draws(raw, np.array([2, 1, 0, 1, 1]))
        assert short.tolist() == [False, False, False, False, True]
        assert draw15[:4].tolist() == [11, 4, 7, 14]
        assert draw3[:4].tolist() == [2, 1, 0, 2]


def _benchmark_runner(golay_css, kind, combination="A"):
    """The runner of a benchmark config at p = 0: Golay |0>_L with Golay
    postselection, or Golay Bell pairs without; combination A (or another
    one's round codes), n_extra 6."""
    c1, c2 = (registry(name) for name in COMBINATIONS[combination])
    blocks = golay_css if kind == "zero" else [golay_css, golay_css]
    d1, d2 = (registry("golay23"), registry("golay23_dual")) if kind == "zero" else (None, None)
    return ProtocolRunner(DistillationConfig(
        spec=build_ancilla_spec(blocks, kind), code_c1=c1, code_c2=c2, code_d1=d1,
        code_d2=d2, model=FailureModel.uniform(0.0), n_extra=6,
    ))


def _digest(*items) -> str:
    """A SHA-256 prefix of arrays (dtype, shape and bytes), scalars,
    circuits and nested lists or tuples of them."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for y in x:
                feed(y)
        elif isinstance(x, (np.ndarray, np.generic)):
            a = np.ascontiguousarray(x)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(repr(x).encode())

    feed(items)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind,digests", [
    ("zero", {"round1": "7bc8d19239e38dd7", "round2": "1fbf7acd71923e73",
              "encoder": "8666236d5ebb9a13"}),
    ("bell", {"round1": "1c26ab32e5b499b6", "round2": "1dd05cc304332039",
              "encoder": "f4e6b6e6f6ce2de8"}),
], ids=["golay0-A-ref", "bell-A-nops"])
def test_compiled_tables_are_pinned(golay_css, kind, digests):
    # Every table and circuit the batched kernel runs on the benchmark
    # configs, against digests recorded when the per-block decision tables
    # and the two hit planes came in (the encoder's digests date from
    # before the per-block measurement bases were deleted): a change to
    # any of them shows here.
    runner = _benchmark_runner(golay_css, kind)
    tables = ("eff_masks", "_hit_slots", "nu_to_sigma", "leaders", "block_tables",
              "tail_side", "corrector_map")
    got = {f"round{rnd.round}": _digest(rnd.circuit, *(getattr(rnd, t) for t in tables))
           for rnd in (runner.round1, runner.round2)}
    got["encoder"] = _digest(runner.enc_circuit, runner._enc_eff)
    assert got == digests


def test_runner_build_walks_no_circuit(golay_css, monkeypatch):
    # Effects and the encoder check come from fault_images sweeps: a
    # bell-A-nops build makes no forward run_noisy walk.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run_noisy(*args, **kwargs)
    monkeypatch.setattr(frames, "run_noisy", counted)
    monkeypatch.setattr(distill, "run_noisy", counted)
    runner = _benchmark_runner(golay_css, "bell")
    assert len(runner.enc_prep_locs) == 46
    assert calls == []


@pytest.mark.parametrize("kind", ["zero", "bell"], ids=["golay0-A-ref", "bell-A-nops"])
def test_build_sorts_nothing(kind, monkeypatch):
    # The coset-leader and weight tables keep each syndrome's first error
    # by a dense scatter, so the benchmark configs build, codes and all,
    # without np.unique.
    def refused(*args, **kwargs):
        raise AssertionError("np.unique called")
    registry.cache_clear()
    monkeypatch.setattr(np, "unique", refused)
    golay = registry("golay23")
    runner = _benchmark_runner(build_css(golay, golay), kind)
    runner.spec.weight_table(4)


def test_detecting_code_builds_no_table():
    # golay0-A-ref postselects round 2 with the [23,11,8] code and decodes
    # with it nowhere, so its coset-leader tables are never built.
    registry.cache_clear()
    golay = registry("golay23")
    dual = _benchmark_runner(build_css(golay, golay), "zero").config.code_d2
    assert dual.name == "golay23_dual"
    assert not {"syndrome_table", "systematic_table"} & set(vars(dual))


def _single_fault_count(runner) -> int:
    """The protocol's single faults, read off its fault spaces: 15 Paulis
    per CNOT, 3 per preparation and a flip per readout."""
    enc, enc_cnots = runner.n_units * runner.n_enc_locs, runner.n_units * runner.n_enc_cnots
    return 15 * (runner.gate_space - enc + enc_cnots) + 3 * (enc - enc_cnots) + runner.meas_space


def _run_single_faults(runner) -> int:
    """Run every single fault of the protocol on the batched engine and
    return their count.  The paper's fault-tolerance claim, checked
    exactly: no single fault aborts or rejects in either round, and every
    output keeps residual weight <= 1."""
    table = runner.spec.weight_table(4)
    seen = 0
    for gate, meas, count in sampling.single_faults(runner):
        batch = runner.run_rows(gate, meas, count)
        seen += count
        assert not batch.aborted.any()
        assert not batch.rej1.any() and not batch.rej2.any()
        for side, frames in (("x", batch.out_e), ("z", batch.out_f)):
            weights = table.weights(side, frames)
            assert ((weights >= 0) & (weights <= 1)).all(), side
    return seen


@pytest.mark.exhaustive
@pytest.mark.parametrize("kind,configurations", [("zero", 680_512), ("bell", 1_592_549)])
def test_every_single_fault_is_benign(golay_css, kind, configurations):
    # The claim on the benchmark configs.
    assert _run_single_faults(_benchmark_runner(golay_css, kind)) == configurations


@pytest.mark.parametrize("combination", ["B", "C", "D"])
def test_every_single_fault_is_benign_per_combination(golay_css, combination):
    # The claim on Golay |0>_L with Golay postselection and n_extra 6 for
    # the round codes of combinations B, C and D: about 1 s together, so
    # every run checks them.
    runner = _benchmark_runner(golay_css, "zero", combination)
    assert _run_single_faults(runner) == _single_fault_count(runner)


@pytest.mark.parametrize("kind,configurations", [("zero", 680_512), ("bell", 1_592_549)])
def test_single_faults_enumerates_each_once(golay_css, kind, configurations):
    # The enumeration behind test_every_single_fault_is_benign, without the
    # kernel: one fault per trial, and as many distinct (space, position,
    # Pauli) keys, each in range, as the protocol has single faults.
    runner = _benchmark_runner(golay_css, kind)
    enc, enc_cnots = runner.n_units * runner.n_enc_locs, runner.n_units * runner.n_enc_cnots
    gate, meas = [], []
    for g, m, count in sampling.single_faults(runner):
        assert np.array_equal(np.concatenate((g[:, 0], m[:, 0])), np.arange(count))
        gate.append(g[:, 1:])
        meas.append(m[:, 1])
    (pos, draw15, draw3), meas = (np.concatenate(rows).astype(np.int64).T for rows in (gate, meas))
    is_cnot = (pos >= enc) | (pos % runner.n_enc_locs < runner.n_enc_cnots)
    pauli = np.where(is_cnot, draw15, draw3)
    assert (np.where(is_cnot, draw3, draw15) == 0).all()
    assert ((pauli >= 0) & (pauli < np.where(is_cnot, 15, 3))).all()
    assert ((pos >= 0) & (pos < runner.gate_space)).all()
    assert ((meas >= 0) & (meas < runner.meas_space)).all()
    keys = np.concatenate((pos * 15 + pauli, runner.gate_space * 15 + meas))
    assert len(np.unique(keys)) == len(keys) == configurations
    assert configurations == _single_fault_count(runner)


@pytest.mark.parametrize("k", [2, 3])
def test_sampled_multi_fault_audit(golay_css, k):
    # The benchmark's Golay |0>_L config with exactly k faults: 10^5 trials,
    # each a uniform k-subset of the 50,820 gate and 5,152 readout
    # locations with uniform 15-way and 3-way draws.  No accepted block
    # may keep residual weight above k (or beyond the table), and 30 of
    # the trials replayed on the reference give the batched outcome.
    runner = _benchmark_runner(golay_css, "zero")
    assert (runner.gate_space, runner.meas_space) == (50_820, 5_152)
    table = runner.spec.weight_table(4)
    rng = np.random.default_rng(1000 + k)
    trials = 100_000
    batches = sampling.k_faults(runner, k, trials, rng)
    replay = np.sort(rng.choice(trials, 30, replace=False))
    start = 0
    for gate_rows, meas_rows, count in batches:
        batch = runner.run_rows(gate_rows, meas_rows, count)
        for side, frames in (("x", batch.out_e), ("z", batch.out_f)):
            weights = table.weights(side, frames)
            assert ((weights >= 0) & (weights <= k)).all(), side
        for t in replay[(replay >= start) & (replay < start + count)] - start:
            g, m = gate_rows[gate_rows[:, 0] == t], meas_rows[meas_rows[:, 0] == t]
            assert batch.outcome(t) == runner.run_reference(*sampling.injections(runner, g, m)), start + t
        start += count
    assert start == trials


@pytest.mark.parametrize("round_", [1, 2])
@pytest.mark.parametrize("c_name", ["rep3", "bch15_7_5"])
@pytest.mark.parametrize("kind", ["zero", "bell"])
def test_slice_effects_match_full_circuit(golay_css, kind, c_name, round_):
    # The effect masks, compiled on the one-qubit slice of the round
    # circuit, are those of a fault at the first and at the last qubit of
    # the full circuit; such a fault hits no other qubit of any slot.
    spec = build_ancilla_spec([golay_css] * 2 if kind == "bell" else golay_css, kind)
    rnd = CompiledRound(spec, round_, registry(c_name), None)
    m, n = rnd.m, rnd.n
    for layer, blk, q in itertools.product(range(len(rnd.layers)), range(m), (0, n - 1)):
        for code, pauli in ((1, "XI"), (2, "ZI"), (4, "IX"), (8, "IZ")):
            fault = Fault(*rnd.cnot_location(layer, blk * n + q), pauli)
            frame, _ = run_noisy(rnd.circuit, FaultInjection((fault,)))
            want = [0, 0, 0]
            for slot in range(rnd.n_c):
                for b in range(m):
                    hit = frame.e[slot * m + b] | frame.f[slot * m + b]
                    assert hit & ~(1 << q) == 0 and (b == blk or hit == 0)
                eb = frame.e[slot * m + blk] >> q & 1
                fb = frame.f[slot * m + blk] >> q & 1
                if slot < rnd.r_c:
                    want[0] |= (eb if round_ == 1 else fb) << slot
                else:
                    want[1] |= eb << slot
                    want[2] |= fb << slot
            assert rnd.eff_masks[layer, blk, code].tolist() == want


@pytest.mark.parametrize("round_", [1, 2])
@pytest.mark.parametrize("c_name", ["rep3", "bch15_7_5"])
@pytest.mark.parametrize("kind", ["zero", "bell"])
def test_round_locations_name_every_gate(golay_css, kind, c_name, round_):
    # Parse the built circuit back into engine coordinates: every CNOT and
    # readout must be named by exactly one (layer, qubit) or (slot, qubit)
    # of cnot_location / readout_location, and act on the qubits those
    # coordinates imply.
    spec = build_ancilla_spec([golay_css] * 2 if kind == "bell" else golay_css, kind)
    rnd = CompiledRound(spec, round_, registry(c_name), None)
    m, n, r_c, circuit = rnd.m, rnd.n, rnd.r_c, rnd.circuit
    layer_of = {pair: idx for idx, pair in enumerate(rnd.layers)}
    gates, reads = {}, {}
    for s, g, gate in circuit.gates():
        if gate.kind == "cnot":
            (b1, q), (b2, _) = gate.locs
            check_slot, data_slot = sorted((b1 // m, b2 // m))
            gates[(s, g)] = (layer_of[(check_slot, data_slot - r_c)], b1 % m * n + q)
        else:
            assert gate.kind == ("meas_z" if round_ == 1 else "meas_x")
            (b, q), = gate.locs
            reads[(s, g)] = (b // m, b % m * n + q)
    named = {rnd.cnot_location(layer, qubit): (layer, qubit)
             for layer in range(len(rnd.layers)) for qubit in range(m * n)}
    assert len(named) == len(rnd.layers) * m * n and named == gates
    named = {rnd.readout_location(slot, qubit): (slot, qubit)
             for slot in range(r_c) for qubit in range(m * n)}
    assert len(named) == r_c * m * n and named == reads
    for layer, (i, j) in enumerate(rnd.layers):
        for qubit in range(m * n):
            blk, q = divmod(qubit, n)
            s, g = rnd.cnot_location(layer, qubit)
            data, check = ((r_c + j) * m + blk, q), (i * m + blk, q)
            assert circuit.steps[s][g].locs == ((data, check) if round_ == 1 else (check, data))
    for slot, qubit in itertools.product(range(r_c), range(m * n)):
        s, g = rnd.readout_location(slot, qubit)
        assert circuit.steps[s][g].locs == ((slot * m + qubit // n, qubit % n),)


@pytest.mark.parametrize("kind", ["zero", "bell"])
def test_fault_positions_round_trip(golay_css, kind):
    # Every position of both fault spaces decodes into exactly one segment,
    # inside its shape, and its coordinates encode back to the position.
    runner = _benchmark_runner(golay_css, kind)
    for layout, space in ((runner.gate_layout, runner.gate_space),
                          (runner.meas_layout, runner.meas_space)):
        pos = np.arange(space, dtype=np.int32)
        parts = sampling.decode(pos, layout)
        assert len(parts) == len(layout)
        start = 0
        for shape, (sel, coords) in zip(layout, parts):
            assert np.array_equal(sel, np.arange(start, start + math.prod(shape)))
            assert len(coords) == len(shape)
            for c, size in zip(coords, shape):
                assert c.dtype == np.int32 and c.min() >= 0 and c.max() < size
            assert np.array_equal(np.ravel_multi_index(coords, shape) + start, pos[sel])
            start += math.prod(shape)
        assert start == space


@pytest.mark.parametrize("round_,c_name", [
    (1, "bch15_7_5"), (2, "bch15_7_5"), (1, "golay23"), (2, "golay23"), (1, "golay23_dual"),
    (2, "golay23_dual"),
], ids=["1", "2", "golay23-1", "golay23-2", "golay23_dual-1", "golay23_dual-2"])
def test_batch_decode_matches_decode_columns(zero_spec, round_, c_name):
    # Dense rows make most column syndromes random, so the [23,11,8] code
    # also decodes leaders heavier than t + 1 = 4.  The [15,7,5] decoder
    # reads the syndromes of two columns per key, the 23-bit codes one
    # column per key.
    code = registry(c_name)
    rnd = CompiledRound(zero_spec, round_, code, None)
    rng = np.random.default_rng(round_)
    bits = rng.random((400, rnd.r_c, rnd.n_se)) < 0.3
    sigma = (bits << np.arange(rnd.n_se)).sum(axis=2).astype(rnd.nu_to_sigma.dtype)
    heavy = 0
    for row, est in zip(sigma.tolist(), rnd.batch_decode(sigma).tolist()):
        want = decode_columns(row, code, rnd.n_se)
        assert est == want[rnd.r_c:]
        heavy += sum(sum(w >> c & 1 for w in want) > code.t + 1 for c in range(rnd.n_se))
    assert bool(heavy) == (c_name == "golay23_dual")


def _decision_round(golay_css, name, round_):
    """A round of golay0-A-ref, bell-A-nops, Golay |+>_L with combination A
    (detecting codes golay23_dual, then golay23), or the [[62, 56]] zero
    state of test_wide_blocks_match_reference, which has 56 logicals."""
    bch, golay, dual = registry("bch15_7_5"), registry("golay23"), registry("golay23_dual")
    if name == "wide-62":
        code = build_code(BitMatrix(3, 62, registry("hamming7").h.data), d=1)
        return CompiledRound(build_ancilla_spec(build_css(code, code), "zero"), round_,
                             registry("rep3"), None)
    spec, codes_d = {
        "golay0-A-ref": (build_ancilla_spec(golay_css, "zero"), (golay, dual)),
        "bell-A-nops": (build_ancilla_spec([golay_css, golay_css], "bell"), (None, None)),
        "plus-A": (build_ancilla_spec(golay_css, "plus"), (dual, golay)),
    }[name]
    return CompiledRound(spec, round_, bch, codes_d[round_ - 1])


@pytest.mark.parametrize("round_", [1, 2])
@pytest.mark.parametrize("name", ["golay0-A-ref", "bell-A-nops", "plus-A", "wide-62"])
def test_decide_matches_reference(golay_css, name, round_):
    # The decision step on estimated SE rows, with no sigma: each row's
    # accept bit is postselect's on the detecting code's parities, and its
    # correction correct_block's on a clean frame.  The rows' stabilizer
    # parts are every generator syndrome and logical pattern when there
    # are at most 2^16, else 20,000 random ones; their parity bits are the
    # expected ones, and again with one random bit flipped.
    rnd = _decision_round(golay_css, name, round_)
    n_s, r_d = rnd.n_s, rnd.n_se - rnd.n_s
    rng = np.random.default_rng(round_)
    stab = (np.arange(1 << n_s) if n_s <= 16 else rng.integers(0, 1 << n_s, 20_000)).tolist()
    masks = rnd.hd_masks
    parity = [functools.reduce(operator.xor, (masks[c] for c in range(n_s) if v >> c & 1), 0)
              for v in stab]
    rows = [v | p << n_s for v, p in zip(stab, parity)]
    if r_d:
        rows += [v | (p ^ 1 << int(rng.integers(r_d))) << n_s for v, p in zip(stab, parity)]
    dtype = rnd.batch_decode(np.zeros((1, rnd.r_c), rnd.nu_to_sigma.dtype)).dtype
    acc, est = rnd.decide(np.array(rows, dtype=dtype))
    want_acc = [postselect(row, masks) for row in rows]
    assert want_acc == [i < len(stab) for i in range(len(rows))]
    assert acc.tolist() == want_acc
    zero = (0,) * rnd.m
    want_est = [distill._pack(correct_block(rnd.spec, round_, v, zero, zero)[round_ - 1], rnd.n)
                for v in stab]
    assert est.tolist() == want_est * (len(rows) // len(stab))


def test_batch_temporaries_stay_lean(golay_css):
    # After a warm-up batch, one batch of BATCH = 256 trials of the Golay
    # |0>_L benchmark config at p = 1.6e-3 peaked at 1.59-1.61 MiB of
    # traced allocations over eight seeds (numpy 2.4); 1.9 MiB leaves 18%
    # headroom.  The 128-trial kernel before it peaked at 1.55 MiB at 128
    # trials and 3.08 MiB at 256: its fault rows lived through both rounds,
    # and its decoder took whole-batch intp copies of its indices.
    bch = registry("bch15_7_5")
    runner = ProtocolRunner(DistillationConfig(
        spec=build_ancilla_spec(golay_css, "zero"), code_c1=bch, code_c2=bch,
        code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
        model=FailureModel.uniform(1.6e-3), n_extra=6,
    ))
    runner.run_batch(5, 2, 0, BATCH)
    tracemalloc.start()
    try:
        runner.run_batch(5, 2, BATCH, BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * 2**20, peak / 2**20


def test_ideal_batch_temporaries_stay_lean(golay_css):
    # One warm BATCH-size batch of Golay |0>_L with combination A's round
    # codes and ideal postselection at p = 1.6e-3 peaked at 1.82-1.83 MiB
    # of traced allocations over eight seeds (numpy 2.4); 2.2 MiB leaves
    # 20% headroom.  ideal_postselect's span arrays hold 2^14 (group,
    # syndrome) cells at once; at 2^16 this batch peaked at 3.00 MiB.
    bch = registry("bch15_7_5")
    runner = ProtocolRunner(DistillationConfig(
        spec=build_ancilla_spec(golay_css, "zero"), code_c1=bch, code_c2=bch,
        code_d1="ideal", code_d2="ideal", model=FailureModel.uniform(1.6e-3), n_extra=6,
    ))
    runner.run_batch(5, 2, 0, BATCH)
    tracemalloc.start()
    try:
        runner.run_batch(5, 2, BATCH, BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * 2**20, peak / 2**20


def test_bell_batch_temporaries_stay_lean(golay_css):
    # One BATCH-size batch of the Golay Bell benchmark config at p = 4e-4,
    # after a warm-up batch: 2.36 MiB of traced allocations over eight
    # seeds (numpy 2.4), 1.29 MiB of it the two frames of 46-bit unit
    # words; 2.85 MiB leaves 20% headroom.  The 128-trial kernel before it
    # peaked at 3.37-3.41 MiB when run on 256 trials.
    runner = _benchmark_runner(golay_css, "bell").with_model(FailureModel.uniform(4e-4))
    runner.run_batch(5, 0, 0, BATCH)
    tracemalloc.start()
    try:
        runner.run_batch(5, 0, BATCH, BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.85 * 2**20, peak / 2**20


@pytest.mark.parametrize("count", [7, BATCH])
@pytest.mark.parametrize("kind,p_index,p", [("zero", 2, 1.6e-3), ("bell", 0, 4e-4)],
                         ids=["golay0-A-ref", "bell-A-nops"])
def test_batch_composition_never_changes_a_trial(golay_css, kind, p_index, p, count):
    # Every trial of a batch, its output frames one by one and in order,
    # against the same trial run as a batch of one: where a trial sits in
    # a batch, and which trials share it, must not change its outcome.
    # At 1.6e-3 every Golay |0>_L trial has round-1 rejections and some
    # abort.
    runner = _benchmark_runner(golay_css, kind).with_model(FailureModel.uniform(p))
    first = 3 * BATCH + 11
    batch = runner.run_batch(13, p_index, first, count)
    for i in range(count):
        assert batch.outcome(i) == runner.run_batch(13, p_index, first + i, 1).outcome(0), i
    if kind == "zero" and count == BATCH:
        assert batch.aborted.any() and batch.rej1.all()


class TestRunProtocol:
    def test_perfect_circuit_full_yield(self, zero_spec):
        bch = registry("bch15_7_5")
        cfg = DistillationConfig(
            spec=zero_spec, code_c1=bch, code_c2=bch,
            code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
            model=FailureModel.uniform(0.0), n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        out = runner.run_trial(1, 0, 0)
        assert not out.aborted
        assert len(out.outputs) == 7 * 7
        assert all(e == (0,) and f == (0,) for e, f in out.outputs)
        assert out.rej1 == 0 and out.rej2 == 0

    def test_deterministic_given_stream(self, zero_spec):
        bch = registry("bch15_7_5")
        cfg = DistillationConfig(
            spec=zero_spec, code_c1=bch, code_c2=bch,
            code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
            model=FailureModel.uniform(1e-3), n_extra=2,
        )
        r1 = ProtocolRunner(cfg)
        r2 = ProtocolRunner(cfg)
        batch = r1.run_batch(77, 3, 0, 20)
        for t in range(20):
            # The stream is Philox keyed by (seed, p index) at counter
            # (0, 0, 0, trial), the same in a fresh generator.
            fresh = np.random.Generator(np.random.Philox(key=[77, 3], counter=[0, 0, 0, t]))
            assert r2.run_trial(77, 3, t) == batch.outcome(t)
            assert fresh.bit_generator.random_raw() == r2.stream.at(77, 3, t).bit_generator.random_raw()

    def test_dimension_validation(self, zero_spec):
        bch = registry("bch15_7_5")
        with pytest.raises(ValueError, match="k=12"):
            DistillationConfig(
                spec=zero_spec, code_c1=bch, code_c2=bch,
                code_d1=registry("golay23_dual"), code_d2=registry("golay23_dual"),
                model=FailureModel.uniform(0.0),
            )

    @pytest.mark.parametrize("field,message", [
        ("spec", r"spec\.blocks: a block decoder reads 17 syndrome bits; [^;]* at most 16"),
        ("code_c1", r"code_c1: the round code has r=17 checks; [^;]* at most 16"),
        ("code_c2", r"code_c2: the round code encodes k=17 bits; [^;]* at most 16"),
        ("code_d1", r"code_d1: \|SE\| = 12 \+ 51 = 63; [^;]* at most 62"),
    ], ids=["spec", "code_c1", "code_c2", "code_d1"])
    def test_config_beyond_the_kernel_names_field(self, zero_spec, field, message):
        # One limit of the batched kernel broken at a time.  Seventeen
        # disjoint pairs of qubits make a self-orthogonal parity check, so a
        # CSS code whose block decoder reads 17 bits; a 17-check repetition
        # code, an 18-bit parity code and a [63, 12] detecting code break the
        # round and detecting codes' limits.
        pairs = build_code(BitMatrix(17, 34, tuple(3 << 2 * i for i in range(17))), d=1)
        wide = {
            "spec": build_ancilla_spec(build_css(pairs, pairs), "zero"),
            "code_c1": build_code(BitMatrix(17, 18, tuple(3 << i for i in range(17))), d=1),
            "code_c2": build_code(BitMatrix(1, 18, ((1 << 18) - 1,)), d=2),
            "code_d1": build_code(BitMatrix(51, 63, tuple(1 << i for i in range(51))), d=1),
        }
        rep3 = registry("rep3")
        cfg = dict(spec=zero_spec, code_c1=rep3, code_c2=rep3, code_d1=None, code_d2=None,
                   model=FailureModel.uniform(0.0))
        with pytest.raises(ValueError, match=f"^{message}$"):
            DistillationConfig(**{**cfg, field: wide[field]})

    def test_every_registry_config_fits_the_kernel(self):
        # Every CSS code of two registry codes, each ancilla kind it has,
        # each pair of round codes and each detecting code of the round's
        # |S| (or none, or ideal) makes a DistillationConfig, the kernel's
        # limits included.  No runner is built.
        names = codes.REGISTRY_NAMES
        made = 0
        for cx, cz in itertools.product(names, repeat=2):
            try:
                css = build_css(registry(cx), registry(cz))
            except ValueError:
                continue
            for kind in ("zero", "plus", "mixed", "bell") if css.k else ("zero", "plus"):
                spec = build_ancilla_spec([css, css] if kind == "bell" else css, kind)
                detecting = [[None, "ideal", *(registry(d) for d in names if registry(d).k == len(s))]
                             for s in (spec.s1, spec.s2)]
                for c1, c2, d1, d2 in itertools.product(names, names, *detecting):
                    DistillationConfig(spec=spec, code_c1=registry(c1), code_c2=registry(c2),
                                       code_d1=d1, code_d2=d2, model=FailureModel.uniform(0.0))
                    made += 1
        assert made == 3384

    def test_refill_consumes_spares_in_block_order(self, zero_spec):
        # Reject data slot 2 of primary group 0 and the first data unit of
        # spare group n_c2: the slot is filled by the first accepted unit of
        # that spare group, and group 0 keeps its own units in slot order.
        bch = registry("bch15_7_5")
        cfg = DistillationConfig(
            spec=zero_spec, code_c1=bch, code_c2=bch,
            code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
            model=FailureModel.uniform(0.0), n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        n_c, r_c, n_c2 = runner.n_c1, runner.r_c1, runner.n_c2
        acc1 = np.ones((2, runner.groups1, runner.k_c1), dtype=bool)
        acc1[:, 0, 2] = False
        acc1[:, n_c2, 0] = False
        acc1[1, 1:3] = False  # trial 1: a deficit of 15 against 13 spares
        aborted, primary = runner._refill(acc1)
        assert aborted.tolist() == [False, True]
        own = [r_c + j for j in range(runner.k_c1) if j != 2]
        assert primary[0, 0].tolist() == own + [n_c2 * n_c + r_c + 1]
        for g in range(1, n_c2):
            assert primary[0, g].tolist() == list(range(g * n_c + r_c, (g + 1) * n_c))


class TestBenignSingleCnotFaults:
    def test_rep3_exhaustive_single_cnot_faults(self, zero_spec, round1_rep3):
        from cssdistill.frames import PAULI_2Q

        rnd = round1_rep3
        circ = rnd.circuit
        cnots = [(s, g) for s, g, gate in circ.gates() if gate.kind == "cnot"]
        inputs = zero_frames(rnd.n_c)
        checked = 0
        for s, g in cnots:
            for pauli in PAULI_2Q:
                inj = FaultInjection((Fault(s, g, pauli),))
                res = rnd.run(inputs, inj)
                x_sup, _ = effective_support(inj, circ)
                qe = 0
                for b in range(len(circ.ns)):
                    qe |= x_sup[b]
                for slot in range(rnd.r_c, rnd.n_c):
                    assert slot in res.accepted_slots
                    e_out = res.frames[slot].e[0]
                    assert e_out in (0, qe), (s, g, pauli, slot)
                checked += 1
        assert checked == len(cnots) * 15


class TestTwoFaultNoGo:
    def _scenario(self, zero_spec, golay_css):
        """Single round-1 CNOT fault plus one preparation fault outside the
        affected blocks, Hamming check code, postselection off: some output
        block keeps an X error of weight above t = 3."""
        ham = registry("hamming7")
        rnd = CompiledRound(zero_spec, 1, ham, None)
        tab = zero_spec.weight_table(4)
        supp_l = [q for q in range(23) if (GOLAY_LOGICAL >> q) & 1]
        # Both single errors must flip the logical syndrome row; the shared
        # misdecoded columns then hand a wrong logical eigenvalue to the
        # predicted block, whose correction installs a logical-class error.
        for q1, q2 in itertools.permutations(supp_l, 2):
            inputs = zero_frames(rnd.n_c)
            inputs[4].e[0] = 1 << q2  # prep fault on data block 4
            # distillation fault: X on the control of block 3's first layer
            first_layer = min(
                layer for layer, (i, j) in enumerate(rnd.layers) if j == 0
            )
            gate_loc = rnd.cnot_location(first_layer, q1)
            inj = FaultInjection((Fault(gate_loc[0], gate_loc[1], "XI"),))
            res = rnd.run(inputs, inj)
            for slot in range(rnd.r_c, rnd.n_c):
                if slot not in res.accepted_slots:
                    continue
                wx = tab.x_weight(tuple(res.frames[slot].e))
                if wx is None or wx > 3:
                    return q1, q2, slot, inputs, inj, rnd
        return None

    def test_two_faults_leave_high_weight_error(self, zero_spec, golay_css):
        hit = self._scenario(zero_spec, golay_css)
        assert hit is not None, "no two-fault scenario left a weight>3 error"
        q1, q2, slot, inputs, inj, rnd = hit
        # Mechanism: the shared syndrome column gained two flips,
        # beyond the Hamming code's single-error correction.
        res = rnd.run(inputs, inj)
        tab = zero_spec.weight_table(4)
        wx = tab.x_weight(tuple(res.frames[slot].e))
        assert wx is None or wx > 3

    def test_postselection_catches_the_same_scenario(self, zero_spec, golay_css):
        hit = self._scenario(zero_spec, golay_css)
        assert hit is not None
        q1, q2, slot, inputs, inj, _ = hit
        ham = registry("hamming7")
        rnd_ps = CompiledRound(zero_spec, 1, ham, registry("golay23"))
        res = rnd_ps.run(inputs, inj)
        assert slot not in res.accepted_slots


class TestPostselectionLimit:
    def test_two_prep_faults_pass_ideal_postselection_with_heavy_error(
        self, zero_spec, golay_css
    ):
        # rep3 corrects t_c = 1 < t - 1: two identical preparation-stage
        # failures form a good pattern, pass ideal postselection, and leave
        # a weight-4 X error class on the output block.
        rep3 = registry("rep3")
        rnd = CompiledRound(zero_spec, 1, rep3, "ideal")
        tab = zero_spec.weight_table(4)
        # Craft an X pattern whose equivalence class has weight exactly 4.
        pattern = None
        for combo in itertools.combinations(range(23), 4):
            e = 0
            for q in combo:
                e |= 1 << q
            if tab.x_weight((e,)) == 4:
                pattern = e
                break
        assert pattern is not None
        inputs = zero_frames(rnd.n_c)
        inputs[0].e[0] = pattern
        inputs[1].e[0] = pattern
        res = rnd.run(inputs, FaultInjection(()))
        assert res.accepted_slots == [2]  # ideal postselection passes
        wx = tab.x_weight(tuple(res.frames[2].e))
        assert wx is not None and wx > 3
