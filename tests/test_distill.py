import hashlib
import itertools
import math
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssdistill import distill, frames, gf2
from cssdistill.codes import build_code, registry
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
        rows, bad = decode_columns([0, 0], registry("rep3"), 23)
        assert rows == [0, 0, 0] and bad == 0

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
            rows, bad = decode_columns(sigma, bch, n_cols)
            assert bad == 0 and rows == s_true

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
        rows, bad = decode_columns(sigma, rep3, 1)
        assert bad == 0 and rows == [0, 0, 1]

    def test_uncorrectable_column_flagged(self):
        bch_shallow = build_code(registry("bch15_7_5").h, d=5, w_max=2)
        # A weight-3 column flip can fall outside every weight-<=2 ball.
        for combo in itertools.combinations(range(15), 3):
            s_col = 0
            for j in combo:
                s_col |= 1 << j
            syn = 0
            for i in range(8):
                if (bch_shallow.h.data[i] & s_col).bit_count() & 1:
                    syn |= 1 << i
            if syn not in bch_shallow.syndrome_table:
                sigma = [(syn >> i) & 1 for i in range(8)]
                rows, bad = decode_columns(sigma, bch_shallow, 1)
                assert bad == 1
                return
        pytest.fail("no uncorrectable syndrome found")


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


class TestIdealPostselect:
    def test_good_patterns_pass_exhaustively(self, zero_spec):
        # Exhaustive over the rep3 round: every good
        # pattern (identical nonzero rows) yields valid estimates for all
        # blocks, for every flipped-row subset and every row value.
        rep3 = registry("rep3")
        n_s = 12
        h = rep3.h
        for flipped in range(1, 8):
            rows_cache = {}
            for v in range(1, 1 << n_s):
                sigma = [0, 0]
                for i in range(2):
                    parity = 0
                    for j in range(3):
                        if h.get(i, j) and (flipped >> j) & 1:
                            parity ^= 1
                    if parity:
                        sigma[i] = v
                key = tuple(sigma)
                if key in rows_cache:
                    accept = rows_cache[key]
                else:
                    accept = ideal_postselect(sigma, rep3, n_s)
                    rows_cache[key] = accept
                assert accept == 0b111, (flipped, v)

    def test_inconsistent_pattern_rejected(self, zero_spec):
        # Rows flipping in unrelated columns break product consistency.
        rep3 = registry("rep3")
        sigma = [0b000000000011, 0b000000000101]
        accept = ideal_postselect(sigma, rep3, 12)
        assert accept != 0b111


class TestCorrectBlock:
    def test_zero_syndrome_noop(self, zero_spec):
        e, f, bad = correct_block(zero_spec, 1, 0, (0b1010,), (0b1,))
        assert (e, f, bad) == ((0b1010,), (0b1,), False)

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
            new_e, _, bad = correct_block(zero_spec, 1, s_hat, (e,), (0,))
            assert not bad
            assert tab.x_weight(new_e) == 0

    def test_logical_rule_three(self, zero_spec):
        # Estimated stabilizer bits zero, logical eigenvalue one, trivial
        # decoded error: multiply in the logical X representative.
        s_hat = 1 << 11
        new_e, _, bad = correct_block(zero_spec, 1, s_hat, (0,), (0,))
        assert not bad
        assert new_e == (GOLAY_LOGICAL,)
        tab = zero_spec.weight_table(4)
        assert tab.x_weight(new_e) is None  # weight-7 class

    def test_round2_corrects_f(self, zero_spec):
        f_err = 0b101
        s_hat = 0
        for idx, el in enumerate(zero_spec.s2):
            if (el.x[0] & f_err).bit_count() & 1:
                s_hat |= 1 << idx
        _, new_f, bad = correct_block(zero_spec, 2, s_hat, (0,), (f_err,))
        assert not bad
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
            sample = runner._sample(runner._trial_rng(seed, p_index, t))
            got = batch.outcome(t)
            assert got == runner.run_reference(*runner._injections(sample)), t
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
        assert runner.batched
        outcomes = self._check_sampled(runner, 23, 1, 50)
        assert sum(o.rej1 + o.rej2 for o in outcomes) or d1 is None

    @pytest.mark.parametrize(
        "c_name,d1,d2,p,n_extra",
        [
            ("bch15_7_5", "golay23", "golay23_dual", 1.6e-3, 6),
            ("rep3", "golay23", "golay23_dual", 0.02, 2),
            ("rep3", None, None, 0.02, 2),
            ("rep3", "ideal", "ideal", 0.01, 2),
        ],
    )
    def test_sampled_trials_match_reference(self, zero_spec, c_name, d1, d2, p, n_extra):
        # Sampled positions, decoded into circuit-level injections and
        # replayed through the reference, give the batched engine's outcome.
        self._check_sampled_config(zero_spec, c_name, d1, d2, p, n_extra)

    @pytest.mark.parametrize(
        "block,c_name,d1,d2,p",
        [
            ("golay23", "bch15_7_5", None, None, 1.6e-3),
            # bch15_7_5 as detecting code: k = 7 = |S| of a Steane Bell round.
            ("hamming7", "bch15_7_5", "bch15_7_5", "bch15_7_5", 2e-3),
            ("hamming7", "rep3", "ideal", "ideal", 0.01),
        ],
    )
    def test_sampled_bell_trials_match_reference(self, block, c_name, d1, d2, p):
        # Two-block units: 46-bit (Golay) and 14-bit (Steane) unit words.
        css = build_css(registry(block), registry(block))
        self._check_sampled_config(build_ancilla_spec([css, css], "bell"), c_name, d1, d2, p, 2)

    @pytest.mark.parametrize(
        "n,kind", [(62, "zero"), (63, "zero"), (67, "zero"), (31, "bell"), (32, "bell")],
        ids=["62", "63", "67", "bell-31", "bell-32"],
    )
    def test_wide_blocks_match_reference(self, n, kind):
        # The Steane code plus n - 7 unencoded qubits is an [[n, n - 6]]
        # code whose zero state has |SE| = n - 3.  Units of up to 62 bits
        # (one block of n = 62, two of n = 31) fit the batched kernel's
        # int64 words; wider units run on the reference (so this compares it
        # with itself; test_pinned_counters checks them against fixed
        # counters), and past 63 qubits their output words are Python ints.
        code = build_code(BitMatrix(3, n, registry("hamming7").h.data), d=1)
        css = build_css(code, code)
        spec = build_ancilla_spec([css] * (2 if kind == "bell" else 1), kind)
        rep3 = registry("rep3")
        cfg = DistillationConfig(
            spec=spec, code_c1=rep3, code_c2=rep3, code_d1=None, code_d2=None,
            model=FailureModel.uniform(0.01), n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        assert runner.batched == (spec.m * n <= 62)
        outcomes = self._check_sampled(runner, 7, 0, 20)
        assert any(any(any(e) or any(f) for e, f in o.outputs) for o in outcomes)

    def _random_faults(self, runner, p, rng):
        return runner.with_model(FailureModel.uniform(p))._sample(rng)

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
        assert runner.batched
        rng = np.random.default_rng(404)
        for _ in range(8):
            self._check_injected(runner, self._random_faults(runner, 0.02, rng))

    def _check_injected(self, runner, sample):
        got = runner._run_protocol_core(runner._execute(*runner._fault_rows([sample]))).outcome(0)
        assert got == runner.run_reference(*runner._injections(sample))

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
        assert runner.batched
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


# Failure rates: none, inversion geometric, search geometric, every location.
_RATES = st.one_of(st.just(0.0), st.floats(1e-6, 0.3), st.sampled_from([0.35, 1.0]))


class TestBatchSampling:
    """``_sample_batch`` against the per-trial sampler, row for row."""

    @staticmethod
    def _per_trial(runner, seed, p_index, first, count):
        return runner._fault_rows([runner._sample(runner._trial_rng(seed, p_index, t))
                                   for t in range(first, first + count)])

    def _check(self, runner, seed, p_index, first, count):
        got = runner._sample_batch(seed, p_index, first, count)
        want = self._per_trial(runner, seed, p_index, first, count)
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
        bch = registry("bch15_7_5")
        blocks = golay_css if kind == "zero" else [golay_css, golay_css]
        d1, d2 = (registry("golay23"), registry("golay23_dual")) if kind == "zero" else (None, None)
        base = ProtocolRunner(DistillationConfig(
            spec=build_ancilla_spec(blocks, kind), code_c1=bch, code_c2=bch,
            code_d1=d1, code_d2=d2, model=FailureModel.uniform(0.0), n_extra=6,
        ))
        for p_index, p in enumerate([1e-4, 4e-4, 1.6e-3]):
            self._check(base.with_model(FailureModel.uniform(p)), 31, p_index, 5 * BATCH, BATCH)

    def test_long_chunk_falls_back(self):
        # Skips of 1 use up a chunk of 16 inside a total of 100: numpy would
        # draw a second chunk.  The other row ends inside its chunk.
        exps = np.full((2, 16), 1e-9)
        exps[1, 3] = 50.0
        pos, k, bad = distill._batch_positions(exps, 100, 0.01)
        assert bad.tolist() == [True, False]
        assert k.tolist() == [16, 3]
        assert pos[16:].tolist() == [0, 1, 2]

    def test_positions_match_integer_running_sums(self):
        # Crafted rows against plain-int skips and running sums.  Row 0
        # holds a skip of about 2^60 in a chunk of 16, which the float64
        # running sums keep exact (an int64 guard of 2^63 / 16 per skip
        # used to send it back to numpy); row 1 a skip of 2^63 or more,
        # which numpy clamps; row 2 fifteen short skips that end inside
        # the total, and row 3 sixteen that use up the chunk.
        p, total = 1e-12, 100
        rate = -math.log1p(-p)
        exps = np.full((4, 16), 3.0 * rate)
        exps[0, 5] = 2.0**60 * rate
        exps[1, 2] = 2.0**64 * rate
        exps[2, 15] = 200.0 * rate
        exps[3] = 2.0 * rate
        pos, k, bad = distill._batch_positions(exps, total, p)
        assert bad.tolist() == [False, True, False, True]
        want = []
        for row in exps.tolist():
            sums = itertools.accumulate(math.ceil(e / rate) for e in row)
            want.append([s - 1 for s in sums if s - 1 < total])
        assert want[0] == [2, 5, 8, 11, 14] and len(want[2]) == 15
        assert k.tolist() == [len(w) for w in want]
        ends = np.cumsum(k)
        for row in (0, 2):
            assert pos[ends[row] - k[row]:ends[row]].tolist() == want[row]

    def test_huge_skip_falls_back(self):
        # A skip of 2^63 or more, which numpy clamps and whose running sum
        # would overflow int64.
        exps = np.full((2, 16), 30.0)
        exps[0, 7] = 1e10
        *_, bad = distill._batch_positions(exps, 100, 1e-12)
        assert bad.tolist() == [True, False]

    def test_zero_uint32_falls_back(self):
        # One gate fault per trial reads the low then the high half of the
        # trial's first word; numpy redraws a zero half.  The second word
        # of trial 2 is never read.
        raw = np.array([[7 << 32, 1], [9, 1], [(3 << 32) | 0xFFFFFFFF, 0]], dtype=np.uint64)
        draw15, draw3, rejected = distill._pauli_draws(raw, np.ones(3, np.int64))
        assert rejected.tolist() == [True, True, False]
        assert draw15[2] == 14 and draw3[2] == 0

    def test_rejected_trial_samples_batch_per_trial(self, steane_runner, monkeypatch):
        # A trial the transforms reject sends the whole batch through the
        # per-trial sampler; the transformed draws, garbage here for the
        # rejected trials, must not reach the rows.
        real = distill._pauli_draws

        def reject_some(raw, k):
            draw15, draw3, rejected = real(raw, k)
            rejected[[0, 5, 6, 17]] = True
            garbage = rejected[np.repeat(np.arange(len(k)), k)]
            draw15[garbage] = draw3[garbage] = -1
            return draw15, draw3, rejected

        monkeypatch.setattr(distill, "_pauli_draws", reject_some)
        runner = steane_runner.with_model(FailureModel.uniform(0.05))
        self._check(runner, 3, 1, 100, 20)

    @pytest.mark.parametrize("p", [0.35, 0.5])
    def test_search_geometric_samples_per_trial(self, steane_runner, monkeypatch, p):
        def unused(*args):
            raise AssertionError("transform used for a search-geometric rate")

        monkeypatch.setattr(distill, "_batch_positions", unused)
        self._check(steane_runner.with_model(FailureModel.uniform(p)), 8, 0, 0, 12)

    def test_failed_self_test_samples_per_trial(self, steane_runner, monkeypatch):
        assert distill._draws_match_numpy()

        def unused(*args):
            raise AssertionError("transform used after a failed self-test")

        monkeypatch.setattr(distill, "_draws_match_numpy", lambda: False)
        monkeypatch.setattr(distill, "_batch_positions", unused)
        self._check(steane_runner.with_model(FailureModel.uniform(0.02)), 8, 0, 0, 12)

    @pytest.mark.parametrize("part", ["positions", "draws"])
    def test_self_test_catches_a_wrong_transform(self, monkeypatch, part):
        if part == "positions":
            real = distill._batch_positions

            def running_sums(exps, total, p):  # positions without the "- 1"
                pos, k, bad = real(exps, total, p)
                return pos + 1, k, bad

            monkeypatch.setattr(distill, "_batch_positions", running_sums)
        else:
            real = distill._pauli_draws

            def high_half_first(raw, k):
                return real((raw << np.uint64(32)) | (raw >> np.uint64(32)), k)

            monkeypatch.setattr(distill, "_pauli_draws", high_half_first)
        assert not distill._draws_match_numpy.__wrapped__()


def _single_fault_batches(runner, size=2048):
    """Every single fault of the protocol as one-fault trials, in batches
    of ``size``: 15 Paulis per CNOT, 3 per preparation and a flip per
    readout.  Yields the arguments of ``_execute``."""
    enc = np.arange(math.prod(runner._gate_layout[0]))
    is_cnot = enc % runner.n_enc_locs < runner.n_enc_cnots
    cnots = np.concatenate((enc[is_cnot], np.arange(len(enc), runner._gate_space)))
    preps = enc[~is_cnot]
    gate = np.concatenate((
        np.column_stack((np.repeat(cnots, 15), np.tile(np.arange(15), len(cnots)),
                         np.zeros(15 * len(cnots), np.int64))),
        np.column_stack((np.repeat(preps, 3), np.zeros(3 * len(preps), np.int64),
                         np.tile(np.arange(3), len(preps)))),
    ))
    reads = np.arange(runner._meas_space)
    none_gate, none_meas = np.zeros((0, 4), np.int64), np.zeros((0, 2), np.int64)
    for start in range(0, len(gate), size):
        rows = gate[start:start + size]
        yield np.column_stack((np.arange(len(rows)), rows)), none_meas, len(rows)
    for start in range(0, len(reads), size):
        rows = reads[start:start + size]
        yield none_gate, np.column_stack((np.arange(len(rows)), rows)), len(rows)


def _benchmark_runner(golay_css, kind):
    """The runner of a benchmark config at p = 0: Golay |0>_L with Golay
    postselection, or Golay Bell pairs without; combination A, n_extra 6."""
    bch = registry("bch15_7_5")
    blocks = golay_css if kind == "zero" else [golay_css, golay_css]
    d1, d2 = (registry("golay23"), registry("golay23_dual")) if kind == "zero" else (None, None)
    return ProtocolRunner(DistillationConfig(
        spec=build_ancilla_spec(blocks, kind), code_c1=bch, code_c2=bch, code_d1=d1,
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
    ("zero", {"round1": "ef7174c3a775258d", "round2": "01ba2271e3f0ba2d",
              "encoder": "8666236d5ebb9a13"}),
    ("bell", {"round1": "9cf7f48e61611493", "round2": "b84bfac1c93107bc",
              "encoder": "f4e6b6e6f6ce2de8"}),
], ids=["golay0-A-ref", "bell-A-nops"])
def test_compiled_tables_are_pinned(golay_css, kind, digests):
    # Every table and circuit the batched kernel runs on the benchmark
    # configs, against digests recorded before the per-block measurement
    # bases were deleted: the rounds' gates and tables, and the encoder's
    # gates and effects, did not move.
    runner = _benchmark_runner(golay_css, kind)
    tables = ("eff_masks", "_hit_slots", "nu_to_sigma", "hd_parity", "leaders",
              "corrections", "logical_fix")
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
    assert runner.enc_circuit.count("prep_x") + runner.enc_circuit.count("prep_z") == 46
    assert calls == []


@pytest.mark.exhaustive
@pytest.mark.parametrize("kind,configurations", [("zero", 680_512), ("bell", 1_592_549)])
def test_every_single_fault_is_benign(golay_css, kind, configurations):
    # The paper's fault-tolerance claim, checked exactly on the benchmark
    # configs: no single fault aborts or rejects in either round, and every
    # output keeps residual weight <= 1.
    runner = _benchmark_runner(golay_css, kind)
    table = runner.spec.weight_table(4)
    seen = 0
    for gate, meas, count in _single_fault_batches(runner):
        batch = runner._run_protocol_core(runner._execute(gate, meas, count))
        seen += count
        assert not batch.aborted.any()
        assert not batch.rej1.any() and not batch.rej2.any()
        for side, frames in (("x", batch.out_e), ("z", batch.out_f)):
            weights = table.weights(side, frames)
            assert ((weights >= 0) & (weights <= 1)).all(), side
    assert seen == configurations


@pytest.mark.parametrize("round_", [1, 2])
@pytest.mark.parametrize("c_name", ["rep3", "bch15_7_5"])
@pytest.mark.parametrize("kind", ["zero", "bell"])
def test_slice_effects_match_full_circuit(golay_css, kind, c_name, round_):
    # The effect masks, compiled on the one-qubit slice of the round
    # circuit, are those of a fault at the first and at the last qubit of
    # the full circuit; such a fault hits no other qubit of any slot.
    spec = build_ancilla_spec([golay_css] * 2 if kind == "bell" else golay_css, kind)
    rnd = CompiledRound(spec, round_, registry(c_name), None)
    assert rnd.batched
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
    for layout, space in ((runner._gate_layout, runner._gate_space),
                          (runner._meas_layout, runner._meas_space)):
        pos = np.arange(space, dtype=np.int32)
        parts = distill._decode(pos, layout)
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


@pytest.mark.parametrize("round_,c_name,d", [
    (1, "bch15_7_5", 5), (2, "bch15_7_5", 5), (1, "golay23", 7), (2, "golay23", 7),
], ids=["1", "2", "golay23-1", "golay23-2"])
def test_batch_decode_matches_decode_columns(zero_spec, round_, c_name, d):
    # A table cut at weight 2 misses syndromes, so groups are rejected
    # whole (a miss flags its column through bit k_c) as well as decoded;
    # sparse rows make both common.  The [15,7,5] decoder reads the
    # syndromes of two columns per key, the [23,12,7] one column per key.
    shallow = build_code(registry(c_name).h, d=d, w_max=2)
    rnd = CompiledRound(zero_spec, round_, shallow, None)
    assert rnd.batched
    rng = np.random.default_rng(round_)
    bits = rng.random((400, rnd.r_c, rnd.n_se)) < 0.04
    sigma = (bits << np.arange(rnd.n_se)).sum(axis=2).astype(rnd.nu_to_sigma.dtype)
    decoded, se_hat = rnd.batch_decode(sigma)
    for row, ok, est in zip(sigma.tolist(), decoded.tolist(), se_hat.tolist()):
        want, bad = decode_columns(row, shallow, rnd.n_se)
        assert ok == (bad == 0)
        if ok:
            assert est == want[rnd.r_c:]
    assert decoded.any() and not decoded.all()


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
        out = runner.run_trial(runner._trial_rng(1, 0, 0))
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
        for t in range(20):
            fresh = np.random.Generator(np.random.Philox(key=[77, 3], counter=[0, 0, 0, t]))
            a = r1.run_trial(fresh)
            b = r2.run_trial(r2._trial_rng(77, 3, t))
            assert a == b

    def test_dimension_validation(self, zero_spec):
        bch = registry("bch15_7_5")
        with pytest.raises(ValueError, match="k=12"):
            DistillationConfig(
                spec=zero_spec, code_c1=bch, code_c2=bch,
                code_d1=registry("golay23_dual"), code_d2=registry("golay23_dual"),
                model=FailureModel.uniform(0.0),
            )

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
