import random

import numpy as np
import pytest

from cssdistill import gf2
from cssdistill.codes import build_code, registry
from cssdistill.css import build_ancilla_spec, build_css
from cssdistill.distill import DistillationConfig, ProtocolRunner, build_round_circuit
from cssdistill.frames import (
    PAULI_2Q,
    Circuit,
    FailureModel,
    Fault,
    FaultInjection,
    Gate,
    PauliFrame,
    _verify_encoding,
    apply_gate,
    effective_support,
    fault_images,
    run_noisy,
    synth_encoding_circuit,
)
from cssdistill.gf2 import BitMatrix

# Independent conjugation oracle in the classic lookup-table style: a Pauli
# as a dict of (block, qubit) -> char, pushed through the gate list.
_CNOT_TABLE = {
    "II": "II", "IX": "IX", "IY": "ZY", "IZ": "ZZ",
    "XI": "XX", "XX": "XI", "XY": "YZ", "XZ": "YY",
    "YI": "YX", "YX": "YI", "YY": "XZ", "YZ": "XY",
    "ZI": "ZI", "ZX": "ZX", "ZY": "IY", "ZZ": "IZ",
}


def oracle_propagate(circuit, start_pauli, start_at):
    pauli = dict(start_pauli)
    started = False
    for s, g, gate in circuit.gates():
        if (s, g) == start_at:
            started = True
            continue
        if not started:
            continue
        if gate.kind == "cnot":
            c, t = gate.locs
            pair = pauli.get(c, "I") + pauli.get(t, "I")
            nc, nt = _CNOT_TABLE[pair]
            for loc, ch in ((c, nc), (t, nt)):
                if ch == "I":
                    pauli.pop(loc, None)
                else:
                    pauli[loc] = ch
    return pauli


@pytest.fixture(scope="module")
def golay_css():
    g = registry("golay23")
    return build_css(g, g)


@pytest.fixture(scope="module")
def zero_spec(golay_css):
    return build_ancilla_spec(golay_css, "zero")


@pytest.fixture(scope="module")
def enc_circuit(zero_spec):
    return synth_encoding_circuit(zero_spec)


class TestApplyGate:
    def test_cnot_x_on_control(self):
        fr = PauliFrame.zeros((1,) * 1 or (3,))
        fr = PauliFrame.zeros((3,))
        fr.e[0] = 0b001
        apply_gate(fr, Gate("cnot", ((0, 0), (0, 1))))
        assert fr.e[0] == 0b011 and fr.f[0] == 0

    def test_cnot_z_on_target(self):
        fr = PauliFrame.zeros((3,))
        fr.f[0] = 0b010
        apply_gate(fr, Gate("cnot", ((0, 0), (0, 1))))
        assert fr.f[0] == 0b011 and fr.e[0] == 0

    def test_prep_resets(self):
        fr = PauliFrame.zeros((2,))
        fr.e[0], fr.f[0] = 0b11, 0b01
        apply_gate(fr, Gate("prep_z", ((0, 0),)))
        assert (fr.e[0], fr.f[0]) == (0b10, 0b00)


class TestCircuitValidation:
    def test_double_use_in_step(self):
        with pytest.raises(ValueError, match="twice"):
            Circuit((3,), ((Gate("cnot", ((0, 0), (0, 1))), Gate("prep_z", ((0, 0),))),))

    def test_z_measured_control_rejected(self):
        steps = (
            (Gate("cnot", ((0, 0), (0, 1))),),
            (Gate("meas_z", ((0, 0),)),),
        )
        with pytest.raises(ValueError, match="control"):
            Circuit((2,), steps)

    def test_measured_reuse_rejected(self):
        steps = (
            (Gate("meas_z", ((0, 0),)),),
            (Gate("cnot", ((0, 1), (0, 0))),),
        )
        with pytest.raises(ValueError, match="reused"):
            Circuit((2,), steps)


class TestSynthEncoding:
    def test_single_qubit_zero(self):
        bit = build_code(BitMatrix(0, 1, ()), d=1, name="bit")
        css1 = build_css(bit, bit)
        spec = build_ancilla_spec(css1, "zero")
        circ = synth_encoding_circuit(spec)
        kinds = [g.kind for _, _, g in circ.gates()]
        assert kinds == ["prep_z"]

    def test_golay_zero_counts(self, enc_circuit, golay_css):
        # CNOT count = ones of rref(H_X) minus one pivot per row.
        red, pivots, _ = gf2.rref(golay_css.h_x)
        expected_cnots = sum(r.bit_count() for r in red.data) - len(pivots)
        assert enc_circuit.count("prep_x") == 11
        assert enc_circuit.count("prep_z") == 12
        assert enc_circuit.count("cnot") == expected_cnots

    def test_bell_spec_synthesizes(self, golay_css):
        bell = build_ancilla_spec([golay_css, golay_css], "bell")
        circ = synth_encoding_circuit(bell)  # symbolic check runs inside
        assert circ.count("prep_x") + circ.count("prep_z") == 46

    @staticmethod
    def _mutated(circuit, s, g, gate):
        """The circuit with gate (s, g) replaced by ``gate``, or dropped."""
        steps = [list(step) for step in circuit.steps]
        steps[s][g:g + 1] = [gate] if gate else []
        return Circuit(circuit.ns, tuple(tuple(step) for step in steps))

    def test_check_catches_every_dropped_cnot(self, enc_circuit, zero_spec):
        _verify_encoding(enc_circuit, zero_spec)
        cnots = [(s, g) for s, g, gate in enc_circuit.gates() if gate.kind == "cnot"]
        assert len(cnots) == 77
        for s, g in cnots:
            with pytest.raises(AssertionError, match="stabilizer group differs from spec"):
                _verify_encoding(self._mutated(enc_circuit, s, g, None), zero_spec)

    def test_check_catches_every_swapped_preparation_basis(self, enc_circuit, zero_spec):
        swap = {"prep_x": "prep_z", "prep_z": "prep_x"}
        preps = [(s, g, gate) for s, g, gate in enc_circuit.gates() if gate.kind in swap]
        assert len(preps) == 23
        for s, g, gate in preps:
            mutant = self._mutated(enc_circuit, s, g, Gate(swap[gate.kind], gate.locs))
            with pytest.raises(AssertionError, match="stabilizer group differs from spec"):
                _verify_encoding(mutant, zero_spec)

    def test_noiseless_run_keeps_zero_frame(self, enc_circuit):
        frame, records = run_noisy(enc_circuit, FaultInjection(()))
        assert frame.is_zero() and records == {}


@pytest.fixture(scope="module")
def steane_runner():
    steane = build_css(registry("hamming7"), registry("hamming7"))
    rep3 = registry("rep3")
    return ProtocolRunner(DistillationConfig(
        spec=build_ancilla_spec(steane, "zero"), code_c1=rep3, code_c2=rep3,
        code_d1=None, code_d2=None, model=FailureModel.uniform(0.0), n_extra=2,
    ))


class TestSampleFailures:
    """The protocol runner's per-trial fault sampler against the model."""

    def test_zero_rates_empty(self, steane_runner):
        rng = np.random.default_rng(0)
        assert all(len(part) == 0 for part in steane_runner._sample(rng))

    def test_expected_cnot_fault_count(self, steane_runner):
        rng = np.random.default_rng(123)
        p = 0.01
        runner = steane_runner.with_model(FailureModel(p_gate=p, p_meas=0.0))
        trials = 4000
        total = sum(len(runner._sample(rng)[0]) for _ in range(trials))
        n_locs = runner._gate_space  # CNOTs and preparations
        mean = trials * n_locs * p
        sigma = (trials * n_locs * p * (1 - p)) ** 0.5
        assert abs(total - mean) < 5 * sigma

    def test_pauli_histogram_uniform(self, steane_runner):
        # chi^2 over the 15 two-qubit fault classes of every CNOT, encoder
        # and rounds, as the runner's injections label them.
        runner = steane_runner.with_model(FailureModel(p_gate=1.0, p_meas=0.0))
        rng = np.random.default_rng(7)
        counts = dict.fromkeys(PAULI_2Q, 0)
        for _ in range(1000):
            for stage in runner._injections(runner._sample(rng)):
                for inj in stage.values():
                    for fault in inj.items:
                        if len(fault.pauli) == 2:
                            counts[fault.pauli] += 1
        n = sum(counts.values())
        assert n > 100_000
        expected = n / 15
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # df = 14; 70 corresponds to a ~1.7e-9 tail.
        assert chi2 < 70


class TestRunNoisy:
    def test_empty_injection(self, enc_circuit):
        frame, _ = run_noisy(enc_circuit, FaultInjection(()))
        assert frame.is_zero()

    def test_single_fault_matches_symbolic_oracle(self, enc_circuit):
        rng = random.Random(99)
        cnot_locs = [(s, g) for s, g, gate in enc_circuit.gates() if gate.kind == "cnot"]
        for _ in range(25):
            s, g = rng.choice(cnot_locs)
            pauli = rng.choice(PAULI_2Q)
            frame, _ = run_noisy(enc_circuit, FaultInjection((Fault(s, g, pauli),)))
            gate = enc_circuit.steps[s][g]
            start = {
                loc: ch for loc, ch in zip(gate.locs, pauli) if ch != "I"
            }
            want = oracle_propagate(enc_circuit, start, (s, g))
            got = {}
            for b in range(len(enc_circuit.ns)):
                for q in range(enc_circuit.ns[b]):
                    x = (frame.e[b] >> q) & 1
                    z = (frame.f[b] >> q) & 1
                    if x or z:
                        got[(b, q)] = "XZY"[x + z * 2 - 1] if x and z else ("X" if x else "Z")
                        got[(b, q)] = {(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(x, z)]
            assert got == want

    def test_measurement_flip_only(self):
        circ = Circuit((1,), ((Gate("prep_z", ((0, 0),)),), (Gate("meas_z", ((0, 0),)),)))
        frame, records = run_noisy(circ, FaultInjection((Fault(1, 0, "X"),)))
        assert frame.is_zero()
        assert records == {0: 0b1}

    def test_frame_linearity(self, enc_circuit):
        rng = random.Random(3)
        locs = list(enc_circuit.gates())
        for _ in range(20):
            picks = rng.sample(locs, 4)
            faults = []
            for s, g, gate in picks:
                if gate.kind == "cnot":
                    faults.append(Fault(s, g, rng.choice(PAULI_2Q)))
                else:
                    faults.append(Fault(s, g, rng.choice("XYZ")))
            fa = FaultInjection(tuple(faults[:2]))
            fb = FaultInjection(tuple(faults[2:]))
            fab = FaultInjection(tuple(faults))
            fr_a, _ = run_noisy(enc_circuit, fa)
            fr_b, _ = run_noisy(enc_circuit, fb)
            fr_ab, _ = run_noisy(enc_circuit, fab)
            both = fr_a.xor(fr_b)
            assert both.e == fr_ab.e and both.f == fr_ab.f


def _walked_images(circuit, loc):
    """Per gate qubit, the (X, Z) images of a fault at ``loc`` by one
    forward run_noisy walk each, packed as fault_images packs them."""
    offs = [sum(circuit.ns[:b]) for b in range(len(circuit.ns))]

    def walk(pauli):
        frame, _ = run_noisy(circuit, FaultInjection((Fault(*loc, pauli),)))
        return (sum(e << o for e, o in zip(frame.e, offs)),
                sum(f << o for f, o in zip(frame.f, offs)))

    width = len(circuit.steps[loc[0]][loc[1]].locs)
    return tuple((walk("I" * i + "X" + "I" * (width - 1 - i)),
                  walk("I" * i + "Z" + "I" * (width - 1 - i))) for i in range(width))


class TestFaultImages:
    @pytest.mark.parametrize("kind", ["zero", "bell"])
    def test_encoder_matches_run_noisy(self, golay_css, kind):
        # Every CNOT and preparation of the Golay encoders, every component.
        spec = build_ancilla_spec([golay_css] * 2 if kind == "bell" else golay_css, kind)
        circuit = synth_encoding_circuit(spec)
        images = fault_images(circuit)
        assert set(images) == {(s, g) for s, g, _ in circuit.gates()}
        for s, g, gate in circuit.gates():
            assert gate.kind in ("cnot", "prep_x", "prep_z")
            assert images[(s, g)] == _walked_images(circuit, (s, g)), (s, g, gate)

    @pytest.mark.parametrize("round_", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_round_slice_matches_run_noisy(self, round_, m):
        # Every CNOT of the [15,7,5] rounds' one-qubit slices, which end in
        # readouts: those change no image.
        circuit = build_round_circuit(registry("bch15_7_5").a, round_, 1, m)
        images = fault_images(circuit)
        cnots = [(s, g) for s, g, gate in circuit.gates() if gate.kind == "cnot"]
        assert len(cnots) == 30 * m
        for loc in cnots:
            assert images[loc] == _walked_images(circuit, loc), loc

    def test_preparation_erases_earlier_faults(self):
        circ = Circuit((2,), (
            (Gate("prep_x", ((0, 0),)), Gate("prep_z", ((0, 1),))),
            (Gate("cnot", ((0, 0), (0, 1))),),
            (Gate("prep_z", ((0, 1),)),),
        ))
        images = fault_images(circ)
        assert images[(1, 0)] == (((0b01, 0), (0, 0b01)), ((0, 0), (0, 0)))
        assert images[(0, 0)] == (((0b01, 0), (0, 0b01)),)
        assert images[(2, 0)] == (((0b10, 0), (0, 0b10)),)


class TestEffectiveSupport:
    def test_two_identical_faults_cancel(self, enc_circuit):
        # Two X failures on the same control qubit in different steps.
        cnots = [(s, g, gate) for s, g, gate in enc_circuit.gates() if gate.kind == "cnot"]
        ctrl = cnots[0][2].locs[0]
        same_ctrl = [(s, g) for s, g, gate in cnots if gate.locs[0] == ctrl]
        assert len(same_ctrl) >= 2
        inj = FaultInjection(
            (Fault(*same_ctrl[0], "XI"), Fault(*same_ctrl[1], "XI"))
        )
        x_sup, z_sup = effective_support(inj, enc_circuit)
        assert not any(x_sup) and not any(z_sup)

    def test_single_fault_support(self, enc_circuit):
        s, g, gate = next(
            (s, g, gate) for s, g, gate in enc_circuit.gates() if gate.kind == "cnot"
        )
        inj = FaultInjection((Fault(s, g, "XZ"),))
        x_sup, z_sup = effective_support(inj, enc_circuit)
        (bc, qc), (bt, qt) = gate.locs
        assert x_sup[bc] == 1 << qc and z_sup[bt] == 1 << qt

    def test_transversal_example_support_size(self):
        # Faults on the CNOTs of one block layer: |QE| equals the fault count.
        from cssdistill.distill import build_round_circuit

        rep3 = registry("rep3")
        circ = build_round_circuit(rep3.a, 1, n=23)
        # X on the control (data block 2) of three first-layer CNOTs.
        first_layer = [
            (s, g, gate)
            for s, g, gate in circ.gates()
            if gate.kind == "cnot" and s == min(si for si, _, gg in circ.gates() if gg.kind == "cnot")
        ]
        faults = tuple(Fault(s, g, "XI") for s, g, _ in first_layer[:3])
        x_sup, _ = effective_support(FaultInjection(faults), circ)
        data_block = 2
        assert x_sup[data_block].bit_count() == 3
