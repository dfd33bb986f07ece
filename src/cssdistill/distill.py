"""The two-round ancilla distillation protocol.

Round 1 estimates the Z-side generalized syndromes of every block in a
group through transversal CNOTs onto check blocks and bitwise measurement,
decodes the syndrome columns with a classical code, postselects blocks
whose estimated extended syndromes satisfy an error-detecting code's
parities, and corrects X errors.  Round 2 mirrors the procedure for Z
errors after regrouping.

The protocol runner precompiles fault-propagation tables from the generic
circuit layer: each elementary fault component at each location is pushed
through the remaining gates once, so a trial only XORs per-fault effect
masks and decodes sparse syndromes.  Tables are derived from
:func:`cssdistill.frames.run_noisy` itself, which keeps the fast path and
the reference path definitionally in sync.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import gf2
from .codes import LinearCode
from .css import AncillaSpec, CssCode, PauliElement
from .frames import (
    PAULI_1Q,
    PAULI_2Q,
    Circuit,
    FailureModel,
    Fault,
    FaultInjection,
    Gate,
    PauliFrame,
    run_noisy,
    synth_encoding_circuit,
)
from .gf2 import BitMatrix, BitVec

# Component codes for a two-qubit Pauli on (control, target):
# bit 0 = X on control, bit 1 = Z on control, bit 2 = X on target, bit 3 = Z on target.
_CHAR_CODE = {"I": 0, "X": 1, "Z": 2, "Y": 3}


def pauli2_code(pauli: str) -> int:
    return _CHAR_CODE[pauli[0]] | (_CHAR_CODE[pauli[1]] << 2)


PAULI15_CODE = tuple(pauli2_code(p) for p in PAULI_2Q)
PAULI3_CODE = tuple(_CHAR_CODE[p] for p in PAULI_1Q)
_PAULI15_CODES = np.array(PAULI15_CODE, dtype=np.intp)

# Trials per batch of the single-block engine.  Larger batches spread the
# fixed numpy call cost of a batch over more trials, but the temporaries
# grow as BATCH * groups * |SE| words.  On the reference workload (2-vCPU
# Xeon VM, five alternating pairs of 60 s benchmark runs), 64 read a median
# of 7,690 trials/s against 6,860 at 32, and a peak resident memory of
# 44.3 against 43.4 MiB; the scalar engine it replaced read 43.7 MiB.
BATCH = 64

# Largest block length, |SE| and round-code length the batched kernel packs
# into int64 words, and the most syndrome bits of its dense decoder tables.
_WORD_BITS = 62
_DENSE_BITS = 20


def _dense_table(table: dict[int, int], bits: int) -> np.ndarray:
    """A syndrome -> leader dict as an array over all 2^bits keys; -1 marks
    a syndrome the dict does not hold."""
    wide = max(table.values(), default=0) >> 31
    out = np.full(1 << bits, -1, dtype=np.int64 if wide else np.int32)
    out[np.fromiter(table.keys(), np.int64, len(table))] = np.fromiter(
        table.values(), np.int64, len(table)
    )
    return out


def _by_code(single: np.ndarray, codes) -> np.ndarray:
    """Effects of composite Pauli codes from those of their components.

    ``single[..., i, :]`` is the effect of component bit i; effects add by
    XOR.  Returns ``[..., j, :]`` = effect of ``codes[j]``.
    """
    codes = np.asarray(codes)
    out = np.zeros((*single.shape[:-2], len(codes), single.shape[-1]), dtype=single.dtype)
    for i in range(single.shape[-2]):
        out[..., (codes >> i) & 1 == 1, :] ^= single[..., i, None, :]
    return out


def _bit_transpose(words: np.ndarray, width: int) -> np.ndarray:
    """Transpose the bit matrix held in the last axis: (..., rows) integer
    words of ``width`` bits become (..., width) int64 words of ``rows`` bits.

    Works on 8x8 bit blocks, each transposed inside one uint64 by three
    delta swaps (Hacker's Delight, section 7-3).
    """
    *lead, rows = words.shape
    r8, w8 = -(-rows // 8), -(-width // 8)
    words = np.ascontiguousarray(words, dtype=words.dtype.newbyteorder("<"))
    octets = words.view(np.uint8).reshape(*lead, rows, words.itemsize)[..., :w8]
    if rows % 8:
        pad = np.zeros((*lead, 8 * r8 - rows, w8), dtype=np.uint8)
        octets = np.concatenate((octets, pad), axis=-2)
    blocks = octets.reshape(*lead, r8, 8, w8).swapaxes(-1, -2)
    x = np.ascontiguousarray(blocks).view("<u8")[..., 0]
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
    x ^= t ^ (t << 7)
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
    x ^= t ^ (t << 14)
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
    x ^= t ^ (t << 28)
    cols = x.view(np.uint8).reshape(*lead, r8, 8 * w8)[..., :width]
    out = cols[..., 0, :].astype(np.int64)
    for k in range(1, r8):
        out |= cols[..., k, :].astype(np.int64) << (8 * k)
    return out


@dataclass(frozen=True)
class DistillationConfig:
    """Inputs of a full two-round distillation cycle."""

    spec: AncillaSpec
    code_c1: LinearCode
    code_c2: LinearCode
    code_d1: LinearCode | Literal["ideal"] | None
    code_d2: LinearCode | Literal["ideal"] | None
    model: FailureModel
    n_extra: int = 2

    def __post_init__(self) -> None:
        for code_d, s, name in (
            (self.code_d1, self.spec.s1, "code_d1"),
            (self.code_d2, self.spec.s2, "code_d2"),
        ):
            if isinstance(code_d, LinearCode) and code_d.k != len(s):
                raise ValueError(
                    f"{name}: error-detecting code must encode k={len(s)} bits, got k={code_d.k}"
                )
        if self.n_extra < 0:
            raise ValueError("n_extra must be >= 0")


@dataclass
class RoundResult:
    """Outcome of one distillation round on one group.

    ``frames[slot]`` is the post-round frame of every unit (checks included,
    pre-measurement); corrections are applied to accepted slots only.
    """

    accepted_slots: list[int]
    frames: list[PauliFrame]
    nu: list[list[int]]
    sigma: list[int]
    se_hat: list[int]
    accept_mask: int
    uncorrectable_cols: int


@dataclass
class TrialOutcome:
    """Result of one protocol cycle.

    ``outputs`` holds the accepted final frames as (e, f) per-block tuples.
    Rejection counters include the spare groups in round 1.
    """

    aborted: bool
    cand1: int
    rej1: int
    cand2: int
    rej2: int
    outputs: list[tuple[tuple[int, ...], tuple[int, ...]]]
    trace: dict | None = None


@dataclass
class BatchOutcome:
    """Results of consecutive protocol cycles, one array entry per trial.

    The accepted output frames of every trial are stacked in trial order:
    ``out_e``/``out_f`` are (outputs, m) arrays of per-block words (see
    :func:`gf2.word_array`) and ``out_trial`` holds the trial each output
    belongs to.
    """

    aborted: np.ndarray
    cand1: np.ndarray
    rej1: np.ndarray
    cand2: np.ndarray
    rej2: np.ndarray
    out_trial: np.ndarray
    out_e: np.ndarray
    out_f: np.ndarray

    @classmethod
    def of(cls, outcomes: Sequence[TrialOutcome], m: int) -> "BatchOutcome":
        def column(name: str) -> np.ndarray:
            return np.array([getattr(o, name) for o in outcomes], dtype=np.int64)

        frames = [fr for o in outcomes for fr in o.outputs]
        return cls(
            aborted=np.array([o.aborted for o in outcomes], dtype=bool),
            cand1=column("cand1"), rej1=column("rej1"),
            cand2=column("cand2"), rej2=column("rej2"),
            out_trial=np.repeat(np.arange(len(outcomes)), [len(o.outputs) for o in outcomes]),
            out_e=gf2.word_array([e for e, _ in frames]).reshape(-1, m),
            out_f=gf2.word_array([f for _, f in frames]).reshape(-1, m),
        )

    def outcome(self, i: int) -> TrialOutcome:
        """Trial ``i`` of the batch as a :class:`TrialOutcome`."""
        sel = self.out_trial == i
        return TrialOutcome(
            bool(self.aborted[i]), int(self.cand1[i]), int(self.rej1[i]),
            int(self.cand2[i]), int(self.rej2[i]),
            [(tuple(e), tuple(f)) for e, f in zip(self.out_e[sel].tolist(), self.out_f[sel].tolist())],
        )


def build_round_circuit(
    a_c: BitMatrix,
    round_: int,
    n: int,
    bases: tuple[str, ...] | None = None,
) -> Circuit:
    """Transversal distillation circuit for one round.

    Blocks 0..r_c-1 are the check ancillas.  A 1 at (i, j) of the
    systematic part couples data block r_c + j with check block i through
    a transversal CNOT layer; on a Z-measured block the data side is the
    control (X errors do not flow back into the data), on an X-measured
    block the directions reverse.  Layers sharing a block land in distinct
    time steps.  ``bases`` gives the measurement basis per code block of a
    multi-block ancilla unit; it defaults to all-Z for round 1 and all-X
    for round 2.
    """
    if bases is None:
        bases = ("Z",) if round_ == 1 else ("X",)
    m = len(bases)
    r_c, k_c = a_c.rows, a_c.cols
    n_c = r_c + k_c
    ns = tuple(n for _ in range(n_c * m))

    layers = [(i, j) for i in range(r_c) for j in range(k_c) if a_c.get(i, j)]
    # Greedy step assignment over whole ancilla units.
    step_units: list[set[int]] = []
    layer_step = []
    for (i, j) in layers:
        placed = None
        for s_idx, used in enumerate(step_units):
            if i not in used and (r_c + j) not in used:
                placed = s_idx
                break
        if placed is None:
            step_units.append(set())
            placed = len(step_units) - 1
        step_units[placed].update((i, r_c + j))
        layer_step.append(placed)

    steps: list[list[Gate]] = [[] for _ in step_units]
    for (i, j), s_idx in zip(layers, layer_step):
        for b in range(m):
            data = (r_c + j) * m + b
            check = i * m + b
            ctrl, tgt = (data, check) if bases[b] == "Z" else (check, data)
            for q in range(n):
                steps[s_idx].append(Gate("cnot", ((ctrl, q), (tgt, q))))
    meas = []
    for i in range(r_c):
        for b in range(m):
            kind = "meas_z" if bases[b] == "Z" else "meas_x"
            for q in range(n):
                meas.append(Gate(kind, ((i * m + b, q),)))
    steps.append(meas)
    return Circuit(ns, tuple(tuple(s) for s in steps))


def extend_stabilizers(
    elements: Sequence[PauliElement], code_d: LinearCode | None
) -> list[PauliElement]:
    """SE = S followed by the products S' prescribed by the rows of the
    error-detecting code's systematic part."""
    elements = list(elements)
    if code_d is None:
        return elements
    if code_d.k != len(elements):
        raise ValueError(f"error-detecting code must encode k={len(elements)} bits")
    out = list(elements)
    for row_idx in range(code_d.a.rows):
        row = code_d.a.data[row_idx]
        prod = None
        for i in range(code_d.k):
            if (row >> i) & 1:
                prod = elements[i] if prod is None else prod.xor(elements[i])
        if prod is None:
            m = len(elements[0].x)
            prod = PauliElement((0,) * m, (0,) * m)
        out.append(prod)
    return out


def compute_sigma(
    nu_records: Sequence[Sequence[int]],
    se: Sequence[PauliElement],
    bases: Sequence[str],
) -> list[int]:
    """Parity rows sigma^(i) = nu^(i) . (SE reps)^T, one int per check unit.

    ``nu_records[i][b]`` is the packed error contribution of check unit i,
    code block b (e bits under Z measurement, f bits under X measurement).
    """
    rows = []
    for nu in nu_records:
        row = 0
        for c, el in enumerate(se):
            acc = 0
            for b, basis in enumerate(bases):
                rep = el.z[b] if basis == "Z" else el.x[b]
                acc ^= (rep & nu[b]).bit_count()
            if acc & 1:
                row |= 1 << c
        rows.append(row)
    return rows


def decode_columns(
    sigma_rows: Sequence[int], code_c: LinearCode, n_cols: int
) -> tuple[list[int], int]:
    """Estimate the syndrome array column by column.

    Each column of sigma is the parity-check image of the unknown n_c-bit
    syndrome column; its coset leader is the estimate.  Every column is
    decoded independently (estimates are never combined across columns,
    otherwise the compatibility check would be vacuous).  Returns per-unit
    estimated rows and a bitmask of uncorrectable columns.
    """
    r_c = code_c.r
    if len(sigma_rows) != r_c:
        raise ValueError("sigma must have one row per check unit")
    table = code_c.systematic_table
    rows_out = [0] * code_c.n
    bad = 0
    for c in range(n_cols):
        syn = 0
        for i in range(r_c):
            if (sigma_rows[i] >> c) & 1:
                syn |= 1 << i
        if not syn:
            continue
        leader = table.get(syn)
        if leader is None:
            bad |= 1 << c
            continue
        j = leader
        while j:
            u = (j & -j).bit_length() - 1
            rows_out[u] |= 1 << c
            j &= j - 1
    return rows_out, bad


def hd_column_masks(code_d: LinearCode, n_s: int) -> list[int]:
    """Per-SE-column parity masks of H_d = [I | A_d] in [S | S'] layout.

    Column c < n_s contributes A_d's column c; column n_s + i is the unit
    parity i.
    """
    masks = []
    for c in range(n_s):
        masks.append(code_d.a.column(c).bits)
    for i in range(code_d.r):
        masks.append(1 << i)
    return masks


def postselect(se_hat_row: int, masks: Sequence[int]) -> bool:
    """Accept iff every parity of the error-detecting code vanishes."""
    acc = 0
    bits = se_hat_row
    while bits:
        c = (bits & -bits).bit_length() - 1
        acc ^= masks[c]
        bits &= bits - 1
    return acc == 0


def ideal_postselect(
    sigma_rows: Sequence[int], code_c: LinearCode, n_s: int
) -> int:
    """Accept mask over units under ideal postselection.

    Decodes the syndrome column of every nontrivial product of the round's
    stabilizers independently and requires each estimated product bit to
    equal the sum of its factors' estimated bits, for every product.
    """
    r_c = code_c.r
    syn_single = np.zeros(n_s, dtype=np.uint32)
    for i_el in range(n_s):
        syn = 0
        for i in range(r_c):
            if (sigma_rows[i] >> i_el) & 1:
                syn |= 1 << i
        syn_single[i_el] = syn

    table = np.zeros(1 << r_c, dtype=np.int64)
    for syn, leader in code_c.systematic_table.items():
        table[syn] = leader

    count = 1 << n_s
    idx = np.arange(count, dtype=np.uint32)
    syn_prod = np.zeros(count, dtype=np.uint32)
    for b in range(n_s):
        sel = (idx >> b) & 1 == 1
        syn_prod[sel] ^= syn_single[b]
    est = table[syn_prod]
    est_xor = np.zeros(count, dtype=np.int64)
    for b in range(n_s):
        sel = (idx >> b) & 1 == 1
        est_xor[sel] ^= est[1 << b]
    mismatch = int(np.bitwise_or.reduce(est ^ est_xor))
    return ~mismatch & ((1 << code_c.n) - 1)


def correct_block(
    spec: AncillaSpec,
    round_: int,
    s_hat_row: int,
    e: tuple[int, ...],
    f: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Quantum error correction of one unit from its estimated syndromes.

    Decodes each block's generator syndrome with the round's classical
    code, then fixes logical eigenvalues: the estimate is multiplied by a
    logical's corrector exactly when its anticommutation with the estimate
    disagrees with the estimated eigenvalue bit.  Returns the corrected
    frame and a flag set when a block decode fell outside the syndrome
    table (callers discard such units).
    """
    s_elems, counts, bases = (
        (spec.s1, spec.gen_counts1, spec.bases1)
        if round_ == 1
        else (spec.s2, spec.gen_counts2, spec.bases2)
    )
    correctors = spec.correctors1 if round_ == 1 else spec.correctors2
    m = spec.m
    est_x = [0] * m
    est_z = [0] * m
    off = 0
    for b in range(m):
        syn = (s_hat_row >> off) & ((1 << counts[b]) - 1)
        off += counts[b]
        code = spec.blocks[b].code_z if bases[b] == "Z" else spec.blocks[b].code_x
        err, ok = code.decode(syn)
        if not ok:
            return e, f, True
        if bases[b] == "Z":
            est_x[b] = err.bits
        else:
            est_z[b] = err.bits
    logicals = spec.logicals(round_)
    for t, logical in enumerate(logicals):
        ell = (s_hat_row >> (off + t)) & 1
        anti = 0
        for b in range(m):
            anti ^= (logical.z[b] & est_x[b]).bit_count() ^ (logical.x[b] & est_z[b]).bit_count()
        if (anti & 1) != ell:
            cor = correctors[t]
            for b in range(m):
                est_x[b] ^= cor.x[b]
                est_z[b] ^= cor.z[b]
    new_e = tuple(eb ^ xb for eb, xb in zip(e, est_x))
    new_f = tuple(fb ^ zb for fb, zb in zip(f, est_z))
    return new_e, new_f, False


def steane_extract(
    data: PauliFrame, x_anc: PauliFrame, z_anc: PauliFrame, css: CssCode
) -> tuple[BitVec, BitVec]:
    """Steane-type syndrome extraction parities from three frames.

    Transversal CNOTs copy the data X errors onto the Z-measured ancilla
    and the data Z errors onto the X-measured ancilla; the returned bits
    are the error contributions to the measured check and logical
    parities (stacked checks-then-logicals).
    """
    e_d, f_d = data.e[0], data.f[0]
    e_x, f_x = x_anc.e[0], x_anc.f[0]
    e_z, f_z = z_anc.e[0], z_anc.f[0]
    # data -> x ancilla (data controls): e copies forward, f flows back.
    e_x ^= e_d
    f_d ^= f_x
    # z ancilla -> data (ancilla controls): e flows into data, data f flows back.
    e_d ^= e_z
    f_z ^= f_d
    nu_z = BitVec(css.n, e_x)  # bitwise Z measurement of the X ancilla
    nu_x = BitVec(css.n, f_z)  # bitwise X measurement of the Z ancilla
    return gf2.mat_vec(css.hp_z, nu_z), gf2.mat_vec(css.hp_x, nu_x)


class CompiledRound:
    """Precompiled tables for one distillation round."""

    def __init__(
        self,
        spec: AncillaSpec,
        round_: int,
        code_c: LinearCode,
        code_d: LinearCode | Literal["ideal"] | None,
    ):
        self.round = round_
        self.code_c = code_c
        self.code_d = code_d
        self.ideal = code_d == "ideal"
        real_d = code_d if isinstance(code_d, LinearCode) else None
        self.spec = spec
        self.bases = spec.bases1 if round_ == 1 else spec.bases2
        self.s = spec.s1 if round_ == 1 else spec.s2
        self.gen_counts = spec.gen_counts1 if round_ == 1 else spec.gen_counts2
        m = spec.m
        n = spec.blocks[0].n
        if any(c.n != n for c in spec.blocks):
            raise ValueError("all blocks must have equal length for transversal rounds")
        for el in self.s:
            for b in range(m):
                if self.bases[b] == "Z" and el.x[b]:
                    raise ValueError(
                        f"{spec.kind!r} round {round_} has a non-measurable element; "
                        "this state cannot be distilled directly"
                    )
                if self.bases[b] == "X" and el.z[b]:
                    raise ValueError(
                        f"{spec.kind!r} round {round_} has a non-measurable element; "
                        "this state cannot be distilled directly"
                    )
        self.m = m
        self.n = n
        self.r_c = code_c.r
        self.k_c = code_c.k
        self.n_c = code_c.n
        self.circuit = build_round_circuit(code_c.a, round_, n, bases=self.bases)

        self.se = extend_stabilizers(self.s, real_d)
        self.n_s = len(self.s)
        self.n_se = len(self.se)
        # Which SE elements touch (block b, qubit q), via the measured part.
        self.se_cols = [[0] * n for _ in range(m)]
        for c, el in enumerate(self.se):
            for b in range(m):
                rep = el.z[b] if self.bases[b] == "Z" else el.x[b]
                while rep:
                    q = (rep & -rep).bit_length() - 1
                    self.se_cols[b][q] |= 1 << c
                    rep &= rep - 1
        self.hd_masks = hd_column_masks(real_d, self.n_s) if real_d else None

        self.layers = [
            (i, j) for i in range(self.r_c) for j in range(self.k_c) if code_c.a.get(i, j)
        ]
        layer_of = {pair: idx for idx, pair in enumerate(self.layers)}
        self._gate_index: dict[tuple[int, int], tuple[int, int, int]] = {}
        self._meas_index: dict[tuple[int, int], tuple[int, int, int]] = {}
        for s_idx, g_idx, gate in self.circuit.gates():
            if gate.kind == "cnot":
                (b1, q), (b2, _) = gate.locs
                unit_a, blk = divmod(b1, m)
                unit_b, _ = divmod(b2, m)
                check_slot = min(unit_a, unit_b)
                data_slot = max(unit_a, unit_b)
                layer = layer_of[(check_slot, data_slot - self.r_c)]
                self._gate_index[(s_idx, g_idx)] = (layer, blk, q)
            elif gate.kind in ("meas_z", "meas_x"):
                (bq, q) = gate.locs[0]
                unit, blk = divmod(bq, m)
                self._meas_index[(s_idx, g_idx)] = (unit, blk, q)

        # Effect tables: for each layer and block, the component fault at a
        # representative qubit is pushed through the remaining circuit; by
        # transversality the block pattern is qubit-independent.
        self.eff: list[list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None]] = []
        rep_gate: dict[tuple[int, int], tuple[int, int]] = {}
        for (sg, loc) in ((k, v) for k, v in self._gate_index.items()):
            layer, blk, q = loc
            if q == 0:
                rep_gate[(layer, blk)] = sg
        for layer in range(len(self.layers)):
            per_block = []
            for blk in range(m):
                s_idx, g_idx = rep_gate[(layer, blk)]
                comps = {}
                for bit, pauli in ((1, "XI"), (2, "ZI"), (4, "IX"), (8, "IZ")):
                    frame, _ = run_noisy(self.circuit, FaultInjection((Fault(s_idx, g_idx, pauli),)))
                    nu_slots, e_slots, f_slots = [], [], []
                    for slot in range(self.n_c):
                        eb = frame.e[slot * m + blk]
                        fb = frame.f[slot * m + blk]
                        # transversality: only the representative qubit is hit
                        assert (eb | fb) & ~1 == 0
                        if slot < self.r_c:
                            rec = eb if self.bases[blk] == "Z" else fb
                            if rec:
                                nu_slots.append(slot)
                        else:
                            if eb:
                                e_slots.append(slot)
                            if fb:
                                f_slots.append(slot)
                    comps[bit] = (tuple(nu_slots), tuple(e_slots), tuple(f_slots))
                combo = [None] * 16
                for code in range(1, 16):
                    nu_t, e_t, f_t = set(), set(), set()
                    for bit in (1, 2, 4, 8):
                        if code & bit:
                            nset, eset, fset = comps[bit]
                            nu_t ^= set(nset)
                            e_t ^= set(eset)
                            f_t ^= set(fset)
                    combo[code] = (tuple(sorted(nu_t)), tuple(sorted(e_t)), tuple(sorted(f_t)))
                per_block.append(combo)
            self.eff.append(per_block)

        # Per check row: the data columns feeding it; per data column: its rows.
        self.row_data = [
            [j for j in range(self.k_c) if code_c.a.get(i, j)] for i in range(self.r_c)
        ]
        self.col_checks = [
            [i for i in range(self.r_c) if code_c.a.get(i, j)] for j in range(self.k_c)
        ]

        # Dense tables of the trial-batched single-block kernel: blocks,
        # sigma rows, estimated SE rows and check-slot masks are packed into
        # int64 words, and both decoders become arrays over every syndrome.
        # Rounds beyond these sizes run on the scalar engine.
        blk0 = spec.blocks[0]
        corr_code = blk0.code_z if self.bases[0] == "Z" else blk0.code_x
        self.gen_count = self.gen_counts[0]
        corr_bits = max(corr_code.r, self.gen_count)
        self.batched = (
            m == 1
            and max(n, self.n_se, self.n_c) <= _WORD_BITS
            and max(self.r_c, corr_bits) <= _DENSE_BITS
        )
        if self.batched:
            if self.bases[0] != ("Z" if round_ == 1 else "X"):
                raise ValueError("single-block rounds measure Z in round 1 and X in round 2")
            # Per layer and Pauli code: bitmasks of the check slots whose
            # records flip and of the slots whose e / f parts flip.
            single = np.array([
                [[sum(1 << s for s in slots) for slots in combo[bit]] for bit in (1, 2, 4, 8)]
                for (combo,) in self.eff
            ], dtype=np.int64).reshape(len(self.layers), 4, 3)
            self.eff_masks = _by_code(single, range(16))
            self.nu_to_sigma = gf2.byte_tables(self.se_cols[0])
            self.hd_parity = gf2.byte_tables(self.hd_masks) if self.hd_masks else None
            self.leaders = _dense_table(code_c.systematic_table, self.r_c)
            # Corrections are XORed into block words, logical correctors too.
            word = np.int32 if n < 32 else np.int64
            self.corrections = _dense_table(corr_code.syndrome_table, corr_bits).astype(word)
            correctors = spec.correctors1 if round_ == 1 else spec.correctors2
            # Per logical: the parity of a correction against its measured
            # part (byte tables), its corrector and its bit in the SE rows.
            self.logical_fix = []
            for t, lg in enumerate(self.s[self.gen_count:]):
                rep = lg.z[0] if self.bases[0] == "Z" else lg.x[0]
                cor = correctors[t].x[0] if self.bases[0] == "Z" else correctors[t].z[0]
                parity = gf2.byte_tables([(rep >> q) & 1 for q in range(n)])
                self.logical_fix.append((parity, cor, self.gen_count + t))
            self.row_data_idx = [np.array(cols, dtype=np.intp) + self.r_c for cols in self.row_data]

    def batch_records(self, meas, flow, hits) -> np.ndarray:
        """Check records of (trials, groups, n_c) single-block words.

        Transversal propagation: measured parts flow data -> check, the
        opposite parts check -> data (``flow`` is updated in place),
        identically in both rounds; then the round's fault hits (see
        :meth:`fault_hits`) land on records, e parts and f parts.
        """
        nu = meas[..., :self.r_c].copy()
        for i, cols in enumerate(self.row_data_idx):
            nu[..., i] ^= np.bitwise_xor.reduce(meas[..., cols], axis=-1)
            flow[..., cols] ^= flow[..., i, None]
        e_part, f_part = (meas, flow) if self.round == 1 else (flow, meas)
        for target, (t, g, s, bit) in zip((nu, e_part, f_part), hits):
            np.bitwise_xor.at(target, (t, g, s), bit)
        return nu

    def batch_decode(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column decode of (groups, r_c) sigma rows.

        Column c's syndrome collects bit c of every row (columns padded to
        whole bytes; a padding column reads syndrome 0).  Returns whether
        every column's syndrome is in the table, and the estimated SE rows
        of the data slots.
        """
        leader = self.leaders[_bit_transpose(sigma, -(-self.n_se // 8) * 8)]
        return (leader >= 0).all(axis=1), _bit_transpose(leader >> self.r_c, self.k_c)

    def fault_hits(self, trial, group, layer, q, code, m_trial, m_group, m_slot, m_q):
        """Round faults of a batch as XOR hits on (trial, group, slot) words.

        CNOT faults are (trial, group, layer, qubit, Pauli code) arrays,
        readout flips (trial, group, check slot, qubit).  Returns three
        (trial, group, slot, bit) array tuples: on the check records, on
        the e parts and on the f parts.  Single-block rounds only.
        """
        bit = np.left_shift(1, q)
        masks = self.eff_masks[layer, code]
        hits = []
        for part, width in enumerate((self.r_c, self.n_c, self.n_c)):
            k, slot = np.nonzero((masks[:, part, None] >> np.arange(width)) & 1)
            hits.append((trial[k], group[k], slot, bit[k]))
        flips = (m_trial, m_group, m_slot, np.left_shift(1, m_q))
        hits[0] = tuple(np.concatenate(pair) for pair in zip(hits[0], flips))
        return tuple(hits)

    def run(
        self,
        inputs: Sequence[PauliFrame],
        injection: FaultInjection = FaultInjection(()),
    ) -> "RoundResult":
        """Reference execution of this round on explicit input frames.

        Walks the transversal circuit gate by gate, then decodes, postselects
        and corrects through the public operations.  Slow but direct; the
        table-driven trial engine is cross-checked against it.
        """
        m = self.m
        if len(inputs) != self.n_c:
            raise ValueError(f"need {self.n_c} input frames")
        init = PauliFrame.zeros(self.circuit.ns)
        for slot, fr in enumerate(inputs):
            for b in range(m):
                init.e[slot * m + b] = fr.e[b]
                init.f[slot * m + b] = fr.f[b]
        final, recs = run_noisy(self.circuit, injection, initial=init)
        nu = [[recs.get(i * m + b, 0) for b in range(m)] for i in range(self.r_c)]
        sigma = compute_sigma(nu, self.se, self.bases)
        se_hat, bad_cols = decode_columns(sigma, self.code_c, self.n_se)
        frames = [
            PauliFrame(
                tuple(self.circuit.ns[slot * m: (slot + 1) * m]),
                final.e[slot * m: (slot + 1) * m],
                final.f[slot * m: (slot + 1) * m],
            )
            for slot in range(self.n_c)
        ]
        accept_mask = 0
        accepted = []
        if not bad_cols:
            if self.ideal:
                accept_mask = ideal_postselect(sigma, self.code_c, self.n_s)
            elif self.hd_masks is not None:
                for slot in range(self.r_c, self.n_c):
                    if postselect(se_hat[slot], self.hd_masks):
                        accept_mask |= 1 << slot
            else:
                accept_mask = ((1 << self.n_c) - 1) & ~((1 << self.r_c) - 1)
            for slot in range(self.r_c, self.n_c):
                if not (accept_mask >> slot) & 1:
                    continue
                s_hat = se_hat[slot] & ((1 << self.n_s) - 1)
                fr = frames[slot]
                new_e, new_f, bad = correct_block(
                    self.spec, self.round, s_hat, tuple(fr.e), tuple(fr.f)
                )
                if bad:
                    continue
                fr.e = list(new_e)
                fr.f = list(new_f)
                accepted.append(slot)
        return RoundResult(
            accepted_slots=accepted,
            frames=frames,
            nu=nu,
            sigma=sigma,
            se_hat=se_hat,
            accept_mask=accept_mask,
            uncorrectable_cols=bad_cols,
        )

    def classify_fault(self, fault: Fault) -> tuple:
        """Map a circuit fault onto engine coordinates."""
        if fault.gate_idx < 0:
            raise NotImplementedError("memory faults are not supported by the round engine")
        key = (fault.step, fault.gate_idx)
        if key in self._gate_index:
            layer, blk, q = self._gate_index[key]
            return ("cnot", layer, blk, q, pauli2_code(fault.pauli))
        if key in self._meas_index:
            unit, blk, q = self._meas_index[key]
            part = 0 if self.bases[blk] == "Z" else 1
            ch = fault.pauli[0]
            flip = (ch in "XY") if part == 0 else (ch in "ZY")
            return ("meas", unit, blk, q, 1 if flip else 0)
        raise ValueError(f"fault does not address a circuit location: {fault}")


def _check_model(model: FailureModel) -> None:
    if model.p_mem > 0:
        raise NotImplementedError(
            "the protocol engine assumes p_mem = 0; memory noise is only "
            "available in the generic circuit layer"
        )


class ProtocolRunner:
    """Compiled end-to-end protocol: noisy preparation, two distillation
    rounds with refill and regrouping, per-trial fault sampling."""

    def __init__(self, config: DistillationConfig):
        _check_model(config.model)
        self.config = config
        spec = config.spec
        self.spec = spec
        self.m = spec.m
        self.n = spec.blocks[0].n
        self.round1 = CompiledRound(spec, 1, config.code_c1, config.code_d1)
        self.round2 = CompiledRound(spec, 2, config.code_c2, config.code_d2)

        self.n_c1, self.r_c1, self.k_c1 = self.round1.n_c, self.round1.r_c, self.round1.k_c
        self.n_c2, self.r_c2, self.k_c2 = self.round2.n_c, self.round2.r_c, self.round2.k_c
        self.groups1 = self.n_c2 + config.n_extra
        self.groups2 = self.k_c1
        self.n_units = self.n_c1 * self.groups1

        self.enc_circuit = synth_encoding_circuit(spec)
        self._compile_encoding()

        m, n = self.m, self.n
        self._gate_space = (
            self.n_units * self.n_enc_locs
            + self.groups1 * len(self.round1.layers) * m * n
            + self.groups2 * len(self.round2.layers) * m * n
        )
        self._enc_end = self.n_units * self.n_enc_locs
        self._r1_end = self._enc_end + self.groups1 * len(self.round1.layers) * m * n
        self._meas_space = self.groups1 * self.r_c1 * m * n + self.groups2 * self.r_c2 * m * n
        self._meas1_end = self.groups1 * self.r_c1 * m * n
        self._g1_units = [
            list(range(g * self.n_c1, (g + 1) * self.n_c1)) for g in range(self.groups1)
        ]
        self._g1_data = [u[self.r_c1:] for u in self._g1_units]
        # Single-block protocols whose rounds fit the batched kernel run
        # trial-batched; the rest run trial by trial on the scalar engine.
        self.batched = self.round1.batched and self.round2.batched
        if self.batched:
            # Frames of a batch hold one block per word.
            self._word = np.int32 if n < 32 else np.int64
            # Encoding effects by (location, draw): the 15-way draw indexes
            # a CNOT location's Paulis, the 3-way draw a preparation's.
            self._enc_eff = np.zeros((self.n_enc_locs, 15, 2), dtype=self._word)
            for combos, bits, codes, locs in (
                (self.enc_cnot_eff, (1, 2, 4, 8), PAULI15_CODE, slice(0, self.n_enc_cnots)),
                (self.enc_prep_eff, (1, 2), PAULI3_CODE, slice(self.n_enc_cnots, None)),
            ):
                single = np.array([[(combo[bit][0][0], combo[bit][1][0]) for bit in bits]
                                   for combo in combos], dtype=self._word)
                self._enc_eff[locs, :len(codes)] = _by_code(single.reshape(-1, len(bits), 2), codes)
            self._g1_data_ids = np.array(self._g1_data, dtype=np.intp).reshape(self.groups1, self.k_c1)
        self._rng_template = None

    def with_model(self, model: FailureModel) -> "ProtocolRunner":
        """This compiled protocol under another failure model; no compiled
        table depends on the model."""
        _check_model(model)
        other = copy.copy(self)
        other.config = dataclasses.replace(self.config, model=model)
        return other

    def _compile_encoding(self) -> None:
        """Single-component fault effects for every encoding location."""
        m = self.m
        self.enc_cnot_locs: list[tuple[int, int]] = []
        self.enc_prep_locs: list[tuple[int, int]] = []
        for s_idx, g_idx, gate in self.enc_circuit.gates():
            if gate.kind == "cnot":
                self.enc_cnot_locs.append((s_idx, g_idx))
            elif gate.kind in ("prep_z", "prep_x"):
                self.enc_prep_locs.append((s_idx, g_idx))
        self.n_enc_cnots = len(self.enc_cnot_locs)
        self.n_enc_locs = self.n_enc_cnots + len(self.enc_prep_locs)

        def effect_of(s_idx: int, g_idx: int, pauli: str):
            frame, _ = run_noisy(self.enc_circuit, FaultInjection((Fault(s_idx, g_idx, pauli),)))
            return tuple(frame.e), tuple(frame.f)

        self.enc_cnot_eff: list[list[tuple[tuple[int, ...], tuple[int, ...]] | None]] = []
        for s_idx, g_idx in self.enc_cnot_locs:
            comps = {
                1: effect_of(s_idx, g_idx, "XI"),
                2: effect_of(s_idx, g_idx, "ZI"),
                4: effect_of(s_idx, g_idx, "IX"),
                8: effect_of(s_idx, g_idx, "IZ"),
            }
            combo: list = [None] * 16
            for code in range(1, 16):
                e_acc = [0] * m
                f_acc = [0] * m
                for bit in (1, 2, 4, 8):
                    if code & bit:
                        ee, ff = comps[bit]
                        for b in range(m):
                            e_acc[b] ^= ee[b]
                            f_acc[b] ^= ff[b]
                combo[code] = (tuple(e_acc), tuple(f_acc))
            self.enc_cnot_eff.append(combo)
        self.enc_prep_eff: list[list[tuple[tuple[int, ...], tuple[int, ...]] | None]] = []
        for s_idx, g_idx in self.enc_prep_locs:
            comps = {1: effect_of(s_idx, g_idx, "X"), 2: effect_of(s_idx, g_idx, "Z")}
            combo = [None] * 4
            for code in range(1, 4):
                e_acc = [0] * m
                f_acc = [0] * m
                for bit in (1, 2):
                    if code & bit:
                        ee, ff = comps[bit]
                        for b in range(m):
                            e_acc[b] ^= ee[b]
                            f_acc[b] ^= ff[b]
                combo[code] = (tuple(e_acc), tuple(f_acc))
            self.enc_prep_eff.append(combo)

    # ---- trial execution -------------------------------------------------

    def make_rng(self, seed: int, p_index: int, trial: int) -> np.random.Generator:
        """Counter-based per-trial stream: reproducible and order-free."""
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, p_index], dtype=np.uint64)
        counter = np.array([0, 0, 0, trial], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def _trial_rng(self, seed: int, p_index: int, trial: int) -> np.random.Generator:
        """Same stream as :meth:`make_rng` but reusing one generator object;
        the returned generator is only valid until the next call."""
        if self._rng_template is None:
            bg = np.random.Philox(key=0)
            self._rng_template = (bg, np.random.Generator(bg), bg.state)
        bg, gen, state = self._rng_template
        st = dict(state)
        st["state"] = {
            "counter": np.array([0, 0, 0, trial], dtype=np.uint64),
            "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, p_index], dtype=np.uint64),
        }
        st["buffer"] = np.zeros(4, dtype=np.uint64)
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        bg.state = st
        return gen

    def _bernoulli_positions(self, rng, total: int, p: float) -> np.ndarray:
        """Positions of an independent Bernoulli(p) process over [0, total),
        sampled by geometric skips."""
        if p <= 0.0 or total == 0:
            return np.zeros(0, dtype=np.int64)
        if p >= 1.0:
            return np.arange(total, dtype=np.int64)
        mean = total * p
        chunk = max(16, int(mean + 6.0 * math.sqrt(mean) + 8))
        parts = []
        cur = -1  # positions are the running sums of the skips, minus one
        while True:
            ends = rng.geometric(p, size=chunk).cumsum()
            ends += cur
            cut = int(ends.searchsorted(total))
            parts.append(ends[:cut])
            if cut < chunk:
                return parts[0] if len(parts) == 1 else np.concatenate(parts)
            cur = int(ends[-1])

    def _sample(self, rng: np.random.Generator):
        """One trial's faults: gate positions with their 15-way and 3-way
        Pauli draws, then readout positions."""
        model = self.config.model
        gate_pos = self._bernoulli_positions(rng, self._gate_space, model.p_gate)
        meas_pos = self._bernoulli_positions(rng, self._meas_space, model.p_meas)
        # Separate draws per fault family keep the distributions exact.
        if len(gate_pos):
            draw15 = rng.integers(0, 15, size=len(gate_pos))
            draw3 = rng.integers(0, 3, size=len(gate_pos))
        else:
            draw15 = draw3 = gate_pos
        return gate_pos, draw15, draw3, meas_pos

    @staticmethod
    def _fault_rows(samples):
        """Stack per-trial samples into the arguments of :meth:`_execute`:
        gate rows (trial, position, draw15, draw3), readout rows (trial,
        position) and the trial count."""
        trials = np.arange(len(samples))
        gate = np.column_stack((
            np.repeat(trials, [len(s[0]) for s in samples]),
            *(np.concatenate([s[i] for s in samples]) for i in range(3)),
        ))
        meas = np.column_stack((
            np.repeat(trials, [len(s[3]) for s in samples]),
            np.concatenate([s[3] for s in samples]),
        ))
        return gate, meas, len(samples)

    def run_trial(self, rng: np.random.Generator) -> TrialOutcome:
        sample = self._sample(rng)
        if self.batched:
            return self._execute(*self._fault_rows([sample])).outcome(0)
        gate_pos, draw15, draw3, meas_pos = sample
        faults = list(zip(gate_pos.tolist(), draw15.tolist(), draw3.tolist()))
        return self._execute_scalar(faults, meas_pos.tolist())

    def run_batch(self, seed: int, p_index: int, first: int, count: int) -> BatchOutcome:
        """Trials ``first .. first + count - 1`` of the (seed, p index)
        streams, as one batch on the batched engine, else trial by trial."""
        trials = range(first, first + count)
        if not self.batched:
            return BatchOutcome.of(
                [self.run_trial(self._trial_rng(seed, p_index, t)) for t in trials], self.m
            )
        return self._execute(*self._fault_rows(
            [self._sample(self._trial_rng(seed, p_index, t)) for t in trials]
        ))

    def run_injected(
        self,
        prep_faults: dict[int, FaultInjection] | None = None,
        round1_faults: dict[int, FaultInjection] | None = None,
        round2_faults: dict[int, FaultInjection] | None = None,
        trace: bool = False,
    ) -> TrialOutcome:
        """Deterministic protocol run with faults pinned to circuit
        locations of specific units (preparation) or groups (rounds).

        Protocols on the batched engine run a batch of one unless a trace
        is requested."""
        e = [0] * (self.n_units * self.m)
        f = [0] * (self.n_units * self.m)
        r1_faults: dict[int, list] = {}
        r2_faults: dict[int, list] = {}
        m1_flips: dict[int, list] = {}
        m2_flips: dict[int, list] = {}
        cnot_idx = {loc: i for i, loc in enumerate(self.enc_cnot_locs)}
        prep_idx = {loc: i for i, loc in enumerate(self.enc_prep_locs)}
        for unit, inj in (prep_faults or {}).items():
            for fault in inj.items:
                key = (fault.step, fault.gate_idx)
                if key in cnot_idx:
                    eff = self.enc_cnot_eff[cnot_idx[key]][pauli2_code(fault.pauli)]
                elif key in prep_idx:
                    eff = self.enc_prep_eff[prep_idx[key]][_CHAR_CODE[fault.pauli[0]]]
                else:
                    raise ValueError(f"fault does not address an encoding location: {fault}")
                base = unit * self.m
                for b in range(self.m):
                    e[base + b] ^= eff[0][b]
                    f[base + b] ^= eff[1][b]
        for store, flips, compiled, src in (
            (r1_faults, m1_flips, self.round1, round1_faults),
            (r2_faults, m2_flips, self.round2, round2_faults),
        ):
            for group, inj in (src or {}).items():
                for fault in inj.items:
                    kind, *rest = compiled.classify_fault(fault)
                    if kind == "cnot":
                        layer, blk, q, code = rest
                        if code:
                            store.setdefault(group, []).append((layer, blk, q, code))
                    else:
                        unit, blk, q, flip = rest
                        if flip:
                            flips.setdefault(group, []).append((unit, blk, q))
        if self.batched and not trace:
            hits = []
            for rnd, faults, flips in (
                (self.round1, r1_faults, m1_flips), (self.round2, r2_faults, m2_flips)
            ):
                cnots = np.array([(g, layer, q, code) for g, fl in faults.items()
                                  for layer, _, q, code in fl], dtype=np.int64).reshape(-1, 4)
                reads = np.array([(g, slot, q) for g, fl in flips.items()
                                  for slot, _, q in fl], dtype=np.int64).reshape(-1, 3)
                hits.append(rnd.fault_hits(np.zeros(len(cnots), np.int64), *cnots.T,
                                           np.zeros(len(reads), np.int64), *reads.T))
            core = self._run_protocol_core(np.array([e], self._word), np.array([f], self._word), *hits)
            return core.outcome(0)
        return self._run_protocol_scalar(e, f, r1_faults, r2_faults, m1_flips, m2_flips, trace, None)

    # ---- trial-batched single-block engine --------------------------------

    def _execute(self, gate_faults, meas_faults, n_trials: int) -> BatchOutcome:
        """Scatter a batch's sampled faults and run the protocol on it.

        ``gate_faults`` rows are (trial, position, draw15, draw3) and
        ``meas_faults`` rows (trial, position), positions as laid out by
        the gate and readout spaces.  Encoding faults land in (trial, unit)
        frames; round faults become hits for the round kernels.
        """
        e = np.zeros((n_trials, self.n_units), dtype=self._word)
        f = np.zeros_like(e)
        trial, pos, draw15, draw3 = gate_faults.T
        prep = pos < self._enc_end
        unit, loc = np.divmod(pos[prep], self.n_enc_locs)
        draw = np.where(loc < self.n_enc_cnots, draw15[prep], draw3[prep])
        eff = self._enc_eff[loc, draw]
        np.bitwise_xor.at(e, (trial[prep], unit), eff[:, 0])
        np.bitwise_xor.at(f, (trial[prep], unit), eff[:, 1])
        code = _PAULI15_CODES[draw15]
        m_trial, m_pos = meas_faults.T
        hits = []
        for rnd, in_round, offset, m_in_round, m_offset in (
            (self.round1, ~prep & (pos < self._r1_end), self._enc_end,
             m_pos < self._meas1_end, 0),
            (self.round2, pos >= self._r1_end, self._r1_end,
             m_pos >= self._meas1_end, self._meas1_end),
        ):
            group, rel = np.divmod(pos[in_round] - offset, len(rnd.layers) * self.n)
            layer, q = np.divmod(rel, self.n)
            m_group, m_rel = np.divmod(m_pos[m_in_round] - m_offset, rnd.r_c * self.n)
            m_slot, m_q = np.divmod(m_rel, self.n)
            hits.append(rnd.fault_hits(trial[in_round], group, layer, q, code[in_round],
                                       m_trial[m_in_round], m_group, m_slot, m_q))
        return self._run_protocol_core(e, f, *hits)

    def _run_protocol_core(self, e, f, hits1, hits2) -> BatchOutcome:
        """Both rounds, refill and regrouping on a batch of (trials, units)
        frames; ``hits1``/``hits2`` are the rounds' fault hits."""
        n_trials = len(e)
        g1, k1 = self.groups1, self.k_c1
        shape1 = (n_trials, g1, self.n_c1)
        acc1 = self._process_group_m1(self.round1, e.reshape(shape1), f.reshape(shape1), hits1)

        aborted, primary = self._refill(acc1)

        # Regroup: round-2 group j takes the j-th unit of every primary group.
        live = np.flatnonzero(~aborted)
        units2 = (live[:, None, None], primary[live].transpose(0, 2, 1))
        e2, f2 = e[units2], f[units2]
        # Round-2 hits of live trials move to those trials' rows.
        row = np.cumsum(~aborted) - 1
        live_hits = []
        for t, g, s, bit in hits2:
            keep = ~aborted[t]
            live_hits.append((row[t[keep]], g[keep], s[keep], bit[keep]))
        acc2 = self._process_group_m1(self.round2, f2, e2, live_hits)

        out_b, out_g, out_s = np.nonzero(acc2)
        out_s = out_s + self.r_c2
        cand1 = np.full(n_trials, g1 * k1, dtype=np.int64)
        cand2 = np.where(aborted, 0, self.groups2 * self.k_c2)
        rej2 = cand2.copy()
        rej2[live] -= acc2.sum(axis=(1, 2))
        return BatchOutcome(
            aborted=aborted,
            cand1=cand1, rej1=cand1 - acc1.sum(axis=(1, 2)),
            cand2=cand2, rej2=rej2,
            out_trial=live[out_b],
            out_e=e2[out_b, out_g, out_s][:, None],
            out_f=f2[out_b, out_g, out_s][:, None],
        )

    def _refill(self, acc1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Primary groups of a batch after round 1: (aborted, unit ids).

        A primary group keeps its accepted data units in slot order and
        tops up from the spare groups' accepted units, consumed in block
        order; a trial aborts iff its total deficit exceeds them.
        Returns the per-trial abort flags and the (trials, n_c2, k_c1) ids
        (meaningless on aborted trials).
        """
        n_trials, k1, n_c2 = len(acc1), self.k_c1, self.n_c2
        own = acc1[:, :n_c2]
        count = own.sum(axis=2)
        short = k1 - count
        before = np.cumsum(short, axis=1) - short
        spare = acc1[:, n_c2:].reshape(n_trials, -1)
        aborted = before[:, -1] + short[:, -1] > spare.sum(axis=1)
        ids = self._g1_data_ids
        own_ids = ids[:n_c2][np.arange(n_c2)[:, None], np.argsort(~own, axis=2, kind="stable")]
        pool = ids[n_c2:].ravel()[np.argsort(~spare, axis=1, kind="stable")]
        pool = np.concatenate((pool, np.zeros((n_trials, 1), np.intp)), axis=1)
        slot = np.arange(k1)
        take = np.clip(before[:, :, None] + slot - count[:, :, None], 0, pool.shape[1] - 1)
        refill = np.take_along_axis(pool, take.reshape(n_trials, -1), axis=1).reshape(take.shape)
        return aborted, np.where(slot < count[:, :, None], own_ids, refill)

    def _process_group_m1(self, rnd: CompiledRound, meas, flow, hits) -> np.ndarray:
        """One round on every group of a batch at once (single-block units).

        ``meas``/``flow`` are (trials, groups, n_c) words of the measured
        part (e in round 1, f in round 2) and of the opposite part; both
        are updated in place: the flowing part picks up the check blocks'
        errors and accepted data slots are corrected.  Returns the (trials,
        groups, k_c) accept mask.  A group whose column syndromes include
        one outside the decoding table is rejected whole.
        """
        r_c, n_c, k_c = rnd.r_c, rnd.n_c, rnd.k_c
        sigma = gf2.xor_lookup(rnd.nu_to_sigma, rnd.batch_records(meas, flow, hits))
        accept = np.ones(meas.shape[:2] + (k_c,), dtype=bool)
        tb, gb = np.nonzero(sigma.any(axis=2))
        if not len(tb):
            return accept
        sigma = sigma[tb, gb]
        decoded, se_hat = rnd.batch_decode(sigma)
        acc = np.repeat(decoded[:, None], k_c, axis=1)
        if rnd.hd_parity is not None:
            acc &= gf2.xor_lookup(rnd.hd_parity, se_hat) == 0
        if rnd.ideal:
            data_bits = np.arange(r_c, n_c)
            for d in np.flatnonzero(decoded):
                mask = ideal_postselect(sigma[d].tolist(), rnd.code_c, rnd.n_s)
                acc[d] &= (mask >> data_bits) & 1 == 1
        s_hat = se_hat & ((1 << rnd.n_s) - 1)
        est = rnd.corrections[s_hat & ((1 << rnd.gen_count) - 1)]
        acc &= est >= 0
        est[~acc] = 0
        for parity, cor, bidx in rnd.logical_fix:
            wrong = gf2.xor_lookup(parity, est) != (s_hat >> bidx) & 1
            est[wrong & acc] ^= cor
        meas[tb, gb, r_c:] ^= est
        accept[tb, gb] = acc
        return accept

    # ---- scalar engine: multi-block units, wide codes and traced runs -----

    def _execute_scalar(self, gate_faults, meas_positions) -> TrialOutcome:
        m, n = self.m, self.n
        e = [0] * (self.n_units * m)
        f = [0] * (self.n_units * m)
        dirty_g1 = bytearray(self.groups1)
        r1_faults: dict[int, list] = {}
        r2_faults: dict[int, list] = {}
        layer_span1 = len(self.round1.layers) * m * n
        layer_span2 = len(self.round2.layers) * m * n
        for pos, draw15, draw3 in gate_faults:
            if pos < self._enc_end:
                unit, loc = divmod(pos, self.n_enc_locs)
                dirty_g1[unit // self.n_c1] = 1
                base = unit * m
                if loc < self.n_enc_cnots:
                    eff = self.enc_cnot_eff[loc][PAULI15_CODE[draw15]]
                else:
                    eff = self.enc_prep_eff[loc - self.n_enc_cnots][PAULI3_CODE[draw3]]
                for b in range(m):
                    e[base + b] ^= eff[0][b]
                    f[base + b] ^= eff[1][b]
            elif pos < self._r1_end:
                rel = pos - self._enc_end
                g, rel = divmod(rel, layer_span1)
                layer, rel = divmod(rel, m * n)
                blk, q = divmod(rel, n)
                r1_faults.setdefault(g, []).append((layer, blk, q, PAULI15_CODE[draw15]))
            else:
                rel = pos - self._r1_end
                g, rel = divmod(rel, layer_span2)
                layer, rel = divmod(rel, m * n)
                blk, q = divmod(rel, n)
                r2_faults.setdefault(g, []).append((layer, blk, q, PAULI15_CODE[draw15]))
        m1_flips: dict[int, list] = {}
        m2_flips: dict[int, list] = {}
        for pos in meas_positions:
            if pos < self._meas1_end:
                g, rel = divmod(pos, self.r_c1 * m * n)
                slot, rel = divmod(rel, m * n)
                blk, q = divmod(rel, n)
                m1_flips.setdefault(g, []).append((slot, blk, q))
            else:
                rel = pos - self._meas1_end
                g, rel = divmod(rel, self.r_c2 * m * n)
                slot, rel = divmod(rel, m * n)
                blk, q = divmod(rel, n)
                m2_flips.setdefault(g, []).append((slot, blk, q))
        for g in r1_faults:
            dirty_g1[g] = 1
        for g in m1_flips:
            dirty_g1[g] = 1
        return self._run_protocol_scalar(
            e, f, r1_faults, r2_faults, m1_flips, m2_flips, False, dirty_g1
        )

    def _run_protocol_scalar(
        self, e, f, r1_faults, r2_faults, m1_flips, m2_flips, trace, dirty_g1
    ) -> TrialOutcome:
        m = self.m
        k_c1 = self.k_c1
        trace_data: dict | None = (
            {"round1": [], "round2": [], "round2_groups": []} if trace else None
        )

        accepted1: list[list[int]] = []
        cand1 = rej1 = 0
        for g in range(self.groups1):
            if dirty_g1 is not None and not dirty_g1[g]:
                acc = list(self._g1_data[g])
            else:
                acc = self._process_group(
                    self.round1, self._g1_units[g], e, f,
                    r1_faults.get(g), m1_flips.get(g),
                    trace_data["round1"] if trace else None,
                )
            cand1 += k_c1
            rej1 += k_c1 - len(acc)
            accepted1.append(acc)

        pool: list[int] = [u for g in range(self.n_c2, self.groups1) for u in accepted1[g]]
        pool.reverse()  # consume in block order via pop()
        primary: list[list[int]] = []
        aborted = False
        for g in range(self.n_c2):
            got = list(accepted1[g])
            while len(got) < k_c1 and pool:
                got.append(pool.pop())
            if len(got) < k_c1:
                aborted = True
                break
            primary.append(got)
        if aborted:
            return TrialOutcome(True, cand1, rej1, 0, 0, [], trace_data)

        cand2 = rej2 = 0
        outputs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for gg in range(self.groups2):
            units = [primary[q][gg] for q in range(self.n_c2)]
            if trace:
                trace_data["round2_groups"].append(list(units))
            acc = self._process_group(
                self.round2, units, e, f,
                r2_faults.get(gg), m2_flips.get(gg),
                trace_data["round2"] if trace else None,
            )
            cand2 += self.k_c2
            rej2 += self.k_c2 - len(acc)
            for u in acc:
                base = u * m
                outputs.append((tuple(e[base: base + m]), tuple(f[base: base + m])))
        return TrialOutcome(False, cand1, rej1, cand2, rej2, outputs, trace_data)

    def _process_group(self, rnd: CompiledRound, units, e, f, faults, flips, trace_sink):
        """One distillation round on one group; returns accepted unit ids."""
        m = rnd.m
        r_c, k_c, n_c = rnd.r_c, rnd.k_c, rnd.n_c
        data_units = units[r_c:]
        dirty = bool(faults) or bool(flips)
        if not dirty:
            for u in units:
                base = u * m
                for b in range(m):
                    if e[base + b] or f[base + b]:
                        dirty = True
                        break
                if dirty:
                    break
        if not dirty and trace_sink is None:
            return list(data_units)

        bases = rnd.bases
        row_data = rnd.row_data
        col_checks = rnd.col_checks
        # Input-frame propagation through the transversal layers (order-free:
        # the flowing part of each block is never modified by the round).
        nu = [[0] * m for _ in range(r_c)]
        for b in range(m):
            if bases[b] == "Z":
                for i in range(r_c):
                    acc = e[units[i] * m + b]
                    for j in row_data[i]:
                        acc ^= e[units[r_c + j] * m + b]
                    nu[i][b] = acc
                for j in range(k_c):
                    acc = 0
                    for i in col_checks[j]:
                        acc ^= f[units[i] * m + b]
                    f[units[r_c + j] * m + b] ^= acc
            else:
                for i in range(r_c):
                    acc = f[units[i] * m + b]
                    for j in row_data[i]:
                        acc ^= f[units[r_c + j] * m + b]
                    nu[i][b] = acc
                for j in range(k_c):
                    acc = 0
                    for i in col_checks[j]:
                        acc ^= e[units[i] * m + b]
                    e[units[r_c + j] * m + b] ^= acc
        if faults:
            eff_tab = rnd.eff
            for layer, blk, q, code in faults:
                nu_slots, e_slots, f_slots = eff_tab[layer][blk][code]
                bit = 1 << q
                for slot in nu_slots:
                    nu[slot][blk] ^= bit
                for slot in e_slots:
                    e[units[slot] * m + blk] ^= bit
                for slot in f_slots:
                    f[units[slot] * m + blk] ^= bit
        if flips:
            for slot, blk, q in flips:
                nu[slot][blk] ^= 1 << q

        # sigma rows, sparse in the measured records.
        se_cols = rnd.se_cols
        sigma = [0] * r_c
        for i in range(r_c):
            acc = 0
            for b in range(m):
                bits = nu[i][b]
                cols_b = se_cols[b]
                while bits:
                    q = (bits & -bits).bit_length() - 1
                    acc ^= cols_b[q]
                    bits &= bits - 1
            sigma[i] = acc

        # Column gather + decode, nonzero columns only.
        col_syn: dict[int, int] = {}
        for i in range(r_c):
            row = sigma[i]
            while row:
                c = (row & -row).bit_length() - 1
                col_syn[c] = col_syn.get(c, 0) | (1 << i)
                row &= row - 1
        table = rnd.code_c.systematic_table
        se_hat = [0] * n_c
        group_reject = False
        for c, syn in col_syn.items():
            leader = table.get(syn)
            if leader is None:
                group_reject = True
                break
            while leader:
                u_idx = (leader & -leader).bit_length() - 1
                se_hat[u_idx] |= 1 << c
                leader &= leader - 1

        if group_reject:
            if trace_sink is not None:
                trace_sink.append({"sigma": sigma, "se_hat": se_hat, "accept": 0})
            return []

        if rnd.ideal:
            accept_mask = ideal_postselect(sigma, rnd.code_c, rnd.n_s)
        elif rnd.hd_masks is not None:
            accept_mask = 0
            masks = rnd.hd_masks
            for slot in range(r_c, n_c):
                sh = se_hat[slot]
                acc = 0
                while sh:
                    c = (sh & -sh).bit_length() - 1
                    acc ^= masks[c]
                    sh &= sh - 1
                if acc == 0:
                    accept_mask |= 1 << slot
        else:
            accept_mask = ((1 << n_c) - 1) & ~((1 << r_c) - 1)

        s_mask = (1 << rnd.n_s) - 1
        accepted = []
        spec = self.spec
        for slot in range(r_c, n_c):
            if not (accept_mask >> slot) & 1:
                continue
            u = units[slot]
            base = u * m
            s_hat = se_hat[slot] & s_mask
            if s_hat:
                new_e, new_f, bad = correct_block(
                    spec, rnd.round, s_hat,
                    tuple(e[base: base + m]), tuple(f[base: base + m]),
                )
                if bad:
                    continue
                for b in range(m):
                    e[base + b] = new_e[b]
                    f[base + b] = new_f[b]
            accepted.append(u)
        if trace_sink is not None:
            trace_sink.append({
                "sigma": sigma,
                "se_hat": se_hat,
                "accept": accept_mask,
                "accepted_units": list(accepted),
            })
        return accepted


def run_protocol(
    config: DistillationConfig,
    rng: np.random.Generator,
    runner: ProtocolRunner | None = None,
) -> TrialOutcome:
    """One full distillation cycle with sampled faults."""
    if runner is None:
        runner = ProtocolRunner(config)
    return runner.run_trial(rng)
