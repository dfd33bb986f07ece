import itertools
import random

import numpy as np
import pytest

from cssdistill import gf2
from cssdistill.codes import build_code, registry
from cssdistill.css import PauliElement, build_ancilla_spec, build_css, residual_weight
from cssdistill.distill import (
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
    run_protocol,
    steane_extract,
)
from cssdistill.frames import (
    PAULI_1Q,
    PAULI_2Q,
    FailureModel,
    Fault,
    FaultInjection,
    PauliFrame,
    effective_support,
    run_noisy,
    sample_failures,
)
from cssdistill.gf2 import BitMatrix, BitVec

GOLAY_LOGICAL = BitVec.from_string("00000000000101011100011")


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
        assert compute_sigma([[0], [0]], se, ("Z",)) == [0, 0]

    def test_single_flip_reads_se_column(self, zero_spec):
        se = extend_stabilizers(zero_spec.s1, registry("golay23"))
        q = 7
        rows = compute_sigma([[1 << q], [0]], se, ("Z",))
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
        rows = compute_sigma([[recs[0]], [recs[1]]], se, ("Z",))
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
        assert new_e == (GOLAY_LOGICAL.bits,)
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

    def _reference(self, runner, prep, r1, r2):
        empty = FaultInjection(())
        frames = []
        for u in range(runner.n_units):
            fr, _ = run_noisy(runner.enc_circuit, prep.get(u, empty))
            frames.append(fr)

        def one_round(rnd, ids, faults):
            res = rnd.run([frames[u] for u in ids], faults)
            for slot in res.accepted_slots:
                frames[ids[slot]] = res.frames[slot]
            return [ids[s] for s in res.accepted_slots]

        cand1 = rej1 = 0
        accepted1 = []
        for g in range(runner.groups1):
            ids = list(range(g * runner.n_c1, (g + 1) * runner.n_c1))
            acc = one_round(runner.round1, ids, r1.get(g, empty))
            cand1 += runner.k_c1
            rej1 += runner.k_c1 - len(acc)
            accepted1.append(acc)
        pool = [u for g in range(runner.n_c2, runner.groups1) for u in accepted1[g]]
        primary = []
        for g in range(runner.n_c2):
            got = list(accepted1[g])
            while len(got) < runner.k_c1 and pool:
                got.append(pool.pop(0))
            if len(got) < runner.k_c1:
                return dict(aborted=True, cand1=cand1, rej1=rej1, cand2=0, rej2=0, outputs=[])
            primary.append(got)
        cand2 = rej2 = 0
        outputs = []
        for gg in range(runner.groups2):
            ids = [primary[q][gg] for q in range(runner.n_c2)]
            acc = one_round(runner.round2, ids, r2.get(gg, empty))
            cand2 += runner.k_c2
            rej2 += runner.k_c2 - len(acc)
            outputs += [(tuple(frames[u].e), tuple(frames[u].f)) for u in acc]
        return dict(aborted=False, cand1=cand1, rej1=rej1, cand2=cand2, rej2=rej2, outputs=outputs)

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
        model = FailureModel.uniform(p)
        import zlib

        rng = np.random.default_rng(zlib.crc32(f"{c_name}:{p}:{d1}".encode()))
        for _ in range(trials):
            prep, r1, r2 = {}, {}, {}
            for u in range(runner.n_units):
                inj = sample_failures(model, runner.enc_circuit, rng)
                if len(inj):
                    prep[u] = inj
            for g in range(runner.groups1):
                inj = sample_failures(model, runner.round1.circuit, rng)
                if len(inj):
                    r1[g] = inj
            for g in range(runner.groups2):
                inj = sample_failures(model, runner.round2.circuit, rng)
                if len(inj):
                    r2[g] = inj
            got = runner.run_injected(prep_faults=prep, round1_faults=r1, round2_faults=r2)
            want = self._reference(runner, prep, r1, r2)
            assert got.aborted == want["aborted"]
            assert (got.cand1, got.rej1, got.cand2, got.rej2) == (
                want["cand1"], want["rej1"], want["cand2"], want["rej2"])
            assert got.outputs == want["outputs"]

    @staticmethod
    def _decode_sample(runner, sample):
        """A sampled trial as circuit-level injections.

        The gate space is laid out unit by unit over the encoder's CNOT
        then preparation locations, then group by group over each round's
        (layer, qubit) CNOT locations; the readout space group by group
        over each round's (check slot, qubit) measurements.
        """
        gate_pos, draw15, draw3, meas_pos = (a.tolist() for a in sample)
        n = runner.n
        rounds = (runner.round1, runner.round2)
        gates = [{loc: key for key, loc in rnd._gate_index.items()} for rnd in rounds]
        reads = [{loc: key for key, loc in rnd._meas_index.items()} for rnd in rounds]
        enc_locs = runner.enc_cnot_locs + runner.enc_prep_locs
        gate_starts = [runner.n_units * len(enc_locs)]
        gate_starts.append(gate_starts[0] + runner.groups1 * len(rounds[0].layers) * n)
        read_starts = [0, runner.groups1 * rounds[0].r_c * n]
        prep: dict[int, list] = {}
        staged: tuple[dict[int, list], dict[int, list]] = ({}, {})
        for pos, d15, d3 in zip(gate_pos, draw15, draw3):
            if pos < gate_starts[0]:
                unit, loc = divmod(pos, len(enc_locs))
                pauli = PAULI_2Q[d15] if loc < len(runner.enc_cnot_locs) else PAULI_1Q[d3]
                prep.setdefault(unit, []).append(Fault(*enc_locs[loc], pauli))
                continue
            idx = int(pos >= gate_starts[1])
            group, rel = divmod(pos - gate_starts[idx], len(rounds[idx].layers) * n)
            layer, q = divmod(rel, n)
            fault = Fault(*gates[idx][(layer, 0, q)], PAULI_2Q[d15])
            staged[idx].setdefault(group, []).append(fault)
        for pos in meas_pos:
            idx = int(pos >= read_starts[1])
            group, rel = divmod(pos - read_starts[idx], rounds[idx].r_c * n)
            slot, q = divmod(rel, n)
            flip = "X" if rounds[idx].bases[0] == "Z" else "Z"
            staged[idx].setdefault(group, []).append(Fault(*reads[idx][(slot, 0, q)], flip))

        def injections(faults):
            return {k: FaultInjection(tuple(v)) for k, v in faults.items()}

        return injections(prep), injections(staged[0]), injections(staged[1])

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
        # Sampled positions, decoded here independently of the engine and
        # replayed through the reference, give the batched engine's outcome.
        code_c = registry(c_name)
        cfg = DistillationConfig(
            spec=zero_spec, code_c1=code_c, code_c2=code_c,
            code_d1=registry(d1) if isinstance(d1, str) and d1 != "ideal" else d1,
            code_d2=registry(d2) if isinstance(d2, str) and d2 != "ideal" else d2,
            model=FailureModel.uniform(p), n_extra=n_extra,
        )
        runner = ProtocolRunner(cfg)
        seed, p_index, trials = 23, 1, 50
        batch = runner.run_batch(seed, p_index, 0, trials)
        rejected = 0
        for t in range(trials):
            sample = runner._sample(runner._trial_rng(seed, p_index, t))
            want = self._reference(runner, *self._decode_sample(runner, sample))
            got = batch.outcome(t)
            assert got.aborted == want["aborted"], t
            assert (got.cand1, got.rej1, got.cand2, got.rej2) == (
                want["cand1"], want["rej1"], want["cand2"], want["rej2"]), t
            assert got.outputs == want["outputs"], t
            rejected += got.rej1 + got.rej2
        assert rejected or d1 is None

    @pytest.mark.parametrize("n", [62, 63, 67])
    def test_wide_blocks_match_reference(self, n):
        # The Steane code plus n - 7 unencoded qubits is an [[n, n - 6]]
        # code whose zero state has |SE| = n - 3.  Up to n = 62 it fits the
        # batched kernel's int64 words; wider blocks run on the scalar
        # engine, and past 63 qubits their output words are Python ints.
        code = build_code(BitMatrix(3, n, registry("hamming7").h.data), d=1)
        spec = build_ancilla_spec(build_css(code, code), "zero")
        rep3 = registry("rep3")
        cfg = DistillationConfig(
            spec=spec, code_c1=rep3, code_c2=rep3, code_d1=None, code_d2=None,
            model=FailureModel.uniform(0.01), n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        assert runner.batched == (n <= 62)
        seed, p_index, trials = 7, 0, 20
        batch = runner.run_batch(seed, p_index, 0, trials)
        residual = 0
        for t in range(trials):
            sample = runner._sample(runner._trial_rng(seed, p_index, t))
            want = self._reference(runner, *self._decode_sample(runner, sample))
            got = batch.outcome(t)
            assert got.aborted == want["aborted"], t
            assert (got.cand1, got.rej1, got.cand2, got.rej2) == (
                want["cand1"], want["rej1"], want["cand2"], want["rej2"]), t
            assert got.outputs == want["outputs"], t
            residual += any(any(e) or any(f) for e, f in got.outputs)
        assert residual

    def _random_faults(self, runner, p, rng):
        model = FailureModel.uniform(p)
        prep, r1, r2 = {}, {}, {}
        for u in range(runner.n_units):
            inj = sample_failures(model, runner.enc_circuit, rng)
            if len(inj):
                prep[u] = inj
        for g in range(runner.groups1):
            inj = sample_failures(model, runner.round1.circuit, rng)
            if len(inj):
                r1[g] = inj
        for g in range(runner.groups2):
            inj = sample_failures(model, runner.round2.circuit, rng)
            if len(inj):
                r2[g] = inj
        return prep, r1, r2

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
            prep, r1, r2 = self._random_faults(runner, 0.02, rng)
            got = runner.run_injected(prep_faults=prep, round1_faults=r1, round2_faults=r2)
            want = self._reference(runner, prep, r1, r2)
            assert not got.aborted or want["aborted"]
            assert got.outputs == want["outputs"]
            assert (got.rej1, got.rej2) == (want["rej1"], want["rej2"])

    def test_bell_spec_two_block_units(self, golay_css):
        # Two-block ancilla units go through the generic group path.
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
            prep, r1, r2 = self._random_faults(runner, 0.01, rng)
            got = runner.run_injected(prep_faults=prep, round1_faults=r1, round2_faults=r2)
            want = self._reference(runner, prep, r1, r2)
            assert got.outputs == want["outputs"]
            assert (got.rej1, got.rej2) == (want["rej1"], want["rej2"])


class TestRunProtocol:
    def test_perfect_circuit_full_yield(self, zero_spec):
        bch = registry("bch15_7_5")
        cfg = DistillationConfig(
            spec=zero_spec, code_c1=bch, code_c2=bch,
            code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
            model=FailureModel.uniform(0.0), n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        out = run_protocol(cfg, runner.make_rng(1, 0, 0), runner=runner)
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
            a = r1.run_trial(r1.make_rng(77, 3, t))
            b = r2.run_trial(r2._trial_rng(77, 3, t))
            assert a == b

    def test_memory_noise_rejected(self, zero_spec):
        bch = registry("bch15_7_5")
        cfg = DistillationConfig(
            spec=zero_spec, code_c1=bch, code_c2=bch,
            code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
            model=FailureModel(1e-3, 1e-3, p_mem=1e-4), n_extra=2,
        )
        with pytest.raises(NotImplementedError, match="p_mem"):
            ProtocolRunner(cfg)

    def test_dimension_validation(self, zero_spec):
        bch = registry("bch15_7_5")
        with pytest.raises(ValueError, match="k=12"):
            DistillationConfig(
                spec=zero_spec, code_c1=bch, code_c2=bch,
                code_d1=registry("golay23_dual"), code_d2=registry("golay23_dual"),
                model=FailureModel.uniform(0.0),
            )

    def test_refill_consumes_spares_in_block_order(self, zero_spec, golay_css):
        # Reject one data block of primary group 0 via a crafted fault and
        # check the replacement comes from the first spare group's first
        # accepted output.
        rep3 = registry("rep3")
        cfg = DistillationConfig(
            spec=zero_spec, code_c1=rep3, code_c2=rep3,
            code_d1=registry("golay23"), code_d2=registry("golay23_dual"),
            model=FailureModel.uniform(0.0), n_extra=2,
        )
        runner = ProtocolRunner(cfg)
        # A bare logical X on the data block spoils the estimated extended
        # syndrome column pattern (two check flips with rep3 -> misdecode),
        # but a simpler guaranteed rejection: corrupt one check record so
        # the estimated syndromes are incompatible.
        # Find a fault making block 2 (the only data slot) rejected:
        rejected_cfg = None
        circ = runner.round1.circuit
        meas_gates = [
            (s, g) for s, g, gate in circ.gates() if gate.kind == "meas_z"
        ]
        for (s1_, g1_), (s2_, g2_) in itertools.combinations(meas_gates, 2):
            inj = FaultInjection((Fault(s1_, g1_, "X"), Fault(s2_, g2_, "X")))
            out = runner.run_injected(round1_faults={0: inj}, trace=True)
            if out.rej1 == 1 and not out.aborted:
                rejected_cfg = (inj, out)
                break
        assert rejected_cfg is not None
        _, out = rejected_cfg
        groups = out.trace["round2_groups"]
        # rep3: one output per group; primary group 0's slot was refilled by
        # the first accepted output of spare group index n_c2 (= group 3).
        spare_first_unit = 3 * 3 + 2  # group 3, data slot 2
        assert groups[0][0] == spare_first_unit


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
        circ = rnd.circuit
        tab = zero_spec.weight_table(4)
        supp_l = [q for q in range(23) if (GOLAY_LOGICAL.bits >> q) & 1]
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
            gate_loc = None
            for s, g, gate in circ.gates():
                if gate.kind != "cnot":
                    continue
                key = (s, g)
                if key in rnd._gate_index:
                    layer, blk, q = rnd._gate_index[key]
                    if layer == first_layer and q == q1:
                        gate_loc = key
                        break
            assert gate_loc is not None
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


class TestSteaneExtract:
    def test_all_zero(self, golay_css):
        z = PauliFrame.zeros((23,))
        gz, gx = steane_extract(z.copy(), z.copy(), z.copy(), golay_css)
        assert gz.is_zero() and gx.is_zero()

    def test_data_x_error_reads_hz_column(self, golay_css):
        data = PauliFrame.zeros((23,))
        data.e[0] = 1 << 5
        z = PauliFrame.zeros((23,))
        gz, gx = steane_extract(data, z.copy(), z.copy(), golay_css)
        assert gz == golay_css.hp_z.column(5)
        assert gx.is_zero()

    def test_correlated_ancilla_error_mimics_data_error(self, golay_css):
        # An X error on the X ancilla produces the same parity signature as
        # a data error: unqualified ancillas corrupt the extraction.
        data = PauliFrame.zeros((23,))
        data.e[0] = 1 << 5
        x_anc = PauliFrame.zeros((23,))
        x_anc.e[0] = 1 << 5
        z = PauliFrame.zeros((23,))
        gz_data, _ = steane_extract(data, z.copy(), z.copy(), golay_css)
        gz_anc, _ = steane_extract(z.copy(), x_anc, z.copy(), golay_css)
        assert gz_data == gz_anc


class TestScenarioRoundtrip:
    def test_injected_faults_classify(self, zero_spec, round1_rep3):
        rnd = round1_rep3
        circ = rnd.circuit
        s, g, gate = next(
            (s, g, gate) for s, g, gate in circ.gates() if gate.kind == "cnot"
        )
        kind, layer, blk, q, code = rnd.classify_fault(Fault(s, g, "XZ"))
        assert kind == "cnot" and code == (1 | 8)
        ms, mg, _ = next(
            (s, g, gate) for s, g, gate in circ.gates() if gate.kind == "meas_z"
        )
        kind, unit, blk, q, flip = rnd.classify_fault(Fault(ms, mg, "X"))
        assert kind == "meas" and flip == 1
