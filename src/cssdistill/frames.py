"""Pauli-frame error propagation through noisy Clifford circuits.

Only the accumulated Pauli error is tracked, never the state: every circuit
here prepares stabilizer states, every fault is a Pauli, and every observed
quantity is GF(2)-linear in the frame, so the ideal state's contribution to
any measured parity is identically zero.  Measurement records therefore
hold only the *error* contribution to the outcome.

Phases are dropped throughout; syndromes and weights are phase-blind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from . import gf2
from .css import AncillaSpec
from .gf2 import BitMatrix

PAULI_1Q = ("X", "Y", "Z")
# Order follows the failure model's enumeration of two-qubit Paulis.
PAULI_2Q = (
    "IX", "IY", "IZ",
    "XI", "XX", "XY", "XZ",
    "YI", "YX", "YY", "YZ",
    "ZI", "ZX", "ZY", "ZZ",
)

_CHAR_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


class Gate(NamedTuple):
    kind: str  # prep_z | prep_x | cnot | meas_z | meas_x
    locs: tuple[tuple[int, int], ...]  # (block, qubit); cnot = (control, target)


@dataclass
class PauliFrame:
    """Per-block X/Z error bit masks."""

    ns: tuple[int, ...]
    e: list[int]
    f: list[int]

    @classmethod
    def zeros(cls, ns: Sequence[int]) -> "PauliFrame":
        ns = tuple(ns)
        return cls(ns, [0] * len(ns), [0] * len(ns))

    def copy(self) -> "PauliFrame":
        return PauliFrame(self.ns, list(self.e), list(self.f))

    def xor(self, other: "PauliFrame") -> "PauliFrame":
        if self.ns != other.ns:
            raise ValueError("shape mismatch")
        return PauliFrame(
            self.ns,
            [a ^ b for a, b in zip(self.e, other.e)],
            [a ^ b for a, b in zip(self.f, other.f)],
        )

    def is_zero(self) -> bool:
        return not any(self.e) and not any(self.f)


@dataclass(frozen=True)
class Circuit:
    """Time steps of gates on disjoint qubits over fixed-size blocks."""

    ns: tuple[int, ...]
    steps: tuple[tuple[Gate, ...], ...]

    def __post_init__(self) -> None:
        measured: dict[tuple[int, int], str] = {}
        controls: set[tuple[int, int]] = set()
        targets: set[tuple[int, int]] = set()
        for step in self.steps:
            seen: set[tuple[int, int]] = set()
            for gate in step:
                for b, q in gate.locs:
                    if not (0 <= b < len(self.ns) and 0 <= q < self.ns[b]):
                        raise ValueError(f"location out of range: {(b, q)}")
                    if (b, q) in seen:
                        raise ValueError(f"qubit used twice in one step: {(b, q)}")
                    if (b, q) in measured:
                        raise ValueError(f"measured qubit reused: {(b, q)}")
                    seen.add((b, q))
                if gate.kind == "cnot":
                    controls.add(gate.locs[0])
                    targets.add(gate.locs[1])
                elif gate.kind in ("meas_z", "meas_x"):
                    measured[gate.locs[0]] = gate.kind
        for loc, kind in measured.items():
            if kind == "meas_z" and loc in controls:
                raise ValueError(f"Z-measured qubit is a CNOT control: {loc}")
            if kind == "meas_x" and loc in targets:
                raise ValueError(f"X-measured qubit is a CNOT target: {loc}")

    def gates(self) -> Iterator[tuple[int, int, Gate]]:
        for s, step in enumerate(self.steps):
            for g, gate in enumerate(step):
                yield s, g, gate

    def count(self, kind: str) -> int:
        return sum(1 for _, _, g in self.gates() if g.kind == kind)


@dataclass(frozen=True)
class FailureModel:
    """Independent-failure circuit noise: depolarizing CNOT and prep
    failures at p_gate, measurement flips at p_meas; no memory noise."""

    p_gate: float
    p_meas: float

    def __post_init__(self) -> None:
        for name in ("p_gate", "p_meas"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @classmethod
    def uniform(cls, p: float) -> "FailureModel":
        return cls(p_gate=p, p_meas=p)


class Fault(NamedTuple):
    step: int
    gate_idx: int
    pauli: str  # one char per gate loc


@dataclass(frozen=True)
class FaultInjection:
    """An explicit set of Pauli faults at circuit locations."""

    items: tuple[Fault, ...]

    def __len__(self) -> int:
        return len(self.items)


def apply_gate(frame: PauliFrame, gate: Gate) -> None:
    """Propagate the frame through one gate, in place."""
    if gate.kind == "cnot":
        (bc, qc), (bt, qt) = gate.locs
        if (frame.e[bc] >> qc) & 1:
            frame.e[bt] ^= 1 << qt
        if (frame.f[bt] >> qt) & 1:
            frame.f[bc] ^= 1 << qc
    elif gate.kind in ("prep_z", "prep_x"):
        b, q = gate.locs[0]
        frame.e[b] &= ~(1 << q)
        frame.f[b] &= ~(1 << q)
    elif gate.kind in ("meas_z", "meas_x"):
        pass
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")


Image = tuple[int, int]  # a final frame's (e, f), block b at bit offset ns[0] + .. + ns[b-1]


def fault_images(circuit: Circuit) -> dict[tuple[int, int], tuple[tuple[Image, Image], ...]]:
    """Final frame of every one-component fault, from one backward sweep.

    Keyed by (step, gate) like :class:`Fault`: per gate location, the
    images of an X and of a Z placed right after the gate, which is where
    :func:`run_noisy` puts a fault.  Walking the gates last to first, each
    qubit holds the images of an X and a Z at the current point; a gate
    first records its qubits' images, then steps back through itself by
    :func:`apply_gate`'s rule read backwards: a CNOT (c, t) sets X(c) ^= X(t)
    and Z(t) ^= Z(c), a preparation erases both, a readout changes nothing.
    """
    offs = [sum(circuit.ns[:b]) for b in range(len(circuit.ns))]
    x_img: list[Image] = [(1 << i, 0) for i in range(sum(circuit.ns))]
    z_img: list[Image] = [(0, 1 << i) for i in range(sum(circuit.ns))]
    images = {}
    for s in range(len(circuit.steps) - 1, -1, -1):
        for g, gate in enumerate(circuit.steps[s]):
            qs = [offs[b] + q for b, q in gate.locs]
            images[(s, g)] = tuple((x_img[i], z_img[i]) for i in qs)
            if gate.kind == "cnot":
                c, t = qs
                x_img[c] = (x_img[c][0] ^ x_img[t][0], x_img[c][1] ^ x_img[t][1])
                z_img[t] = (z_img[t][0] ^ z_img[c][0], z_img[t][1] ^ z_img[c][1])
            elif gate.kind in ("prep_z", "prep_x"):
                x_img[qs[0]] = z_img[qs[0]] = (0, 0)
            elif gate.kind not in ("meas_z", "meas_x"):
                raise ValueError(f"unknown gate kind {gate.kind!r}")
    return images


def _inject(frame: PauliFrame, gate_locs, pauli: str) -> None:
    for (b, q), ch in zip(gate_locs, pauli):
        xb, zb = _CHAR_XZ[ch]
        if xb:
            frame.e[b] ^= 1 << q
        if zb:
            frame.f[b] ^= 1 << q


def check_injection(circuit: Circuit, injection: FaultInjection, place: str) -> None:
    """Raise ``ValueError`` for a fault whose (step, gate) is not a gate of
    the circuit, named ``place`` in the message, or whose Pauli does not
    have one letter per gate qubit; :func:`run_noisy` checks neither."""
    for fault in injection.items:
        if not (0 <= fault.step < len(circuit.steps)
                and 0 <= fault.gate_idx < len(circuit.steps[fault.step])):
            raise ValueError(f"fault does not address {place}: {fault}")
        gate = circuit.steps[fault.step][fault.gate_idx]
        if len(fault.pauli) != len(gate.locs):
            kind = "CNOT" if gate.kind == "cnot" else "preparation or readout"
            raise ValueError(f"{fault}: a {kind} fault takes {len(gate.locs)} Pauli letter(s)")


def run_noisy(
    circuit: Circuit,
    injection: FaultInjection,
    initial: PauliFrame | None = None,
) -> tuple[PauliFrame, dict[int, int]]:
    """Execute the circuit on a zero frame (or ``initial``) with the faults.

    Faults attached to a gate are applied right after it; a fault on a
    measurement gate is a classical readout flip (its relevant component
    XORs into the record, the frame is untouched).  Returns the final frame
    and, per measured block, the packed error contribution to the outcomes:
    the e bit under meas_z, the f bit under meas_x, at measurement time.
    """
    by_gate: dict[tuple[int, int], list[str]] = {}
    for it in injection.items:
        by_gate.setdefault((it.step, it.gate_idx), []).append(it.pauli)

    frame = PauliFrame.zeros(circuit.ns) if initial is None else initial.copy()
    records: dict[int, int] = {}
    for s, step in enumerate(circuit.steps):
        for g, gate in enumerate(step):
            pend = by_gate.get((s, g), ())
            if gate.kind in ("meas_z", "meas_x"):
                part = 0 if gate.kind == "meas_z" else 1
                flip = 0
                for pauli in pend:
                    flip ^= _CHAR_XZ[pauli[0]][part]
                b, q = gate.locs[0]
                bit = (frame.e[b] >> q) & 1 if gate.kind == "meas_z" else (frame.f[b] >> q) & 1
                bit ^= flip
                records.setdefault(b, 0)
                if bit:
                    records[b] |= 1 << q
            else:
                apply_gate(frame, gate)
                for pauli in pend:
                    _inject(frame, gate.locs, pauli)
    return frame, records


def effective_support(
    injection: FaultInjection, circuit: Circuit
) -> tuple[list[int], list[int]]:
    """Per-block X-part and Z-part effective supports of a fault set.

    A qubit toggled by an even number of fault components cancels out and
    leaves the support.
    """
    x_sup = [0] * len(circuit.ns)
    z_sup = [0] * len(circuit.ns)
    for it in injection.items:
        for (b, q), ch in zip(circuit.steps[it.step][it.gate_idx].locs, it.pauli):
            xb, zb = _CHAR_XZ[ch]
            if xb:
                x_sup[b] ^= 1 << q
            if zb:
                z_sup[b] ^= 1 << q
    return x_sup, z_sup


def _greedy_schedule(prep_gates: list[Gate], cnots: list[Gate], ns) -> Circuit:
    steps: list[list[Gate]] = [prep_gates] if prep_gates else []
    occupied: list[set[tuple[int, int]]] = [set()] if prep_gates else []
    if prep_gates:
        occupied[0] = {loc for g in prep_gates for loc in g.locs}
    start = len(steps)
    for gate in cnots:
        placed = False
        for idx in range(start, len(steps)):
            if not any(loc in occupied[idx] for loc in gate.locs):
                steps[idx].append(gate)
                occupied[idx].update(gate.locs)
                placed = True
                break
        if not placed:
            steps.append([gate])
            occupied.append(set(gate.locs))
    return Circuit(tuple(ns), tuple(tuple(s) for s in steps))


def synth_encoding_circuit(spec: AncillaSpec) -> Circuit:
    """Deterministic CNOT encoding circuit for a CSS-type ancilla spec.

    Row-reduces the round-2 X-generator matrix over the concatenated
    qubits; pivots are prepared in |+>, the rest in |0>, and each row
    becomes CNOTs from its pivot onto its other qubits.  Verified
    symbolically: the prepared single-qubit stabilizers conjugate through
    the circuit onto exactly the specified stabilizer group.
    """
    m = spec.m
    sizes = spec.block_sizes
    total = spec.total_qubits
    offs = [0]
    for n in sizes[:-1]:
        offs.append(offs[-1] + n)

    x_rows = [sum(el.x[b] << offs[b] for b in range(m)) for el in spec.s2]

    xmat = BitMatrix(len(x_rows), total, tuple(x_rows))
    red, pivots, rnk = gf2.rref(xmat)
    if rnk < len(x_rows):
        raise ValueError("degenerate spec: dependent round-2 generators")

    def to_loc(idx: int) -> tuple[int, int]:
        for b in range(m - 1, -1, -1):
            if idx >= offs[b]:
                return b, idx - offs[b]
        raise AssertionError

    piv_set = set(pivots)
    preps = [Gate("prep_x", (to_loc(q),)) for q in sorted(piv_set)]
    preps += [Gate("prep_z", (to_loc(q),)) for q in range(total) if q not in piv_set]
    cnots = []
    for r_idx, p in enumerate(pivots):
        row = red.data[r_idx]
        for c in range(total):
            if c != p and (row >> c) & 1:
                cnots.append(Gate("cnot", (to_loc(p), to_loc(c))))
    circuit = _greedy_schedule(preps, cnots, sizes)
    _verify_encoding(circuit, spec)
    return circuit


def _verify_encoding(circuit: Circuit, spec: AncillaSpec) -> None:
    # Each prepared qubit's stabilizer (X after prep_x, Z after prep_z),
    # pushed through the rest of the circuit, is the image of that fault.
    images = fault_images(circuit)
    got: dict[str, list[int]] = {"prep_x": [], "prep_z": []}
    for s, g, gate in circuit.gates():
        if gate.kind in got:
            e, f = images[(s, g)][0][gate.kind == "prep_z"]
            assert not (f if gate.kind == "prep_x" else e)
            got[gate.kind].append(e | f)
    offs = [sum(spec.block_sizes[:b]) for b in range(spec.m)]
    for kind, label, elements in (("prep_x", "X", spec.s2), ("prep_z", "Z", spec.s1)):
        want = [sum(part << offs[b] for b, part in enumerate(el.x if label == "X" else el.z))
                for el in elements]
        if not gf2.row_space_equal(BitMatrix(len(got[kind]), spec.total_qubits, tuple(got[kind])),
                                   BitMatrix(len(want), spec.total_qubits, tuple(want))):
            raise AssertionError(f"synthesized {label} stabilizer group differs from spec")
