"""The two-round ancilla distillation protocol.

Round 1 estimates the Z-side generalized syndromes of every block in a
group through transversal CNOTs onto check blocks and bitwise measurement,
decodes the syndrome columns with a classical code, postselects blocks
whose estimated extended syndromes satisfy an error-detecting code's
parities, and corrects X errors.  Round 2 mirrors the procedure for Z
errors after regrouping.

The protocol runner precompiles fault-propagation tables from the generic
circuit layer: one backward sweep of a circuit
(:func:`cssdistill.frames.fault_images`) gives the final frame of every
elementary fault component at every location, of the encoder and of the
one-qubit slice of each round's transversal circuit, so a trial only XORs
per-fault effect masks and decodes sparse syndromes.  The reference path
(:meth:`ProtocolRunner.run_reference`: :func:`cssdistill.frames.run_noisy`
per encoder, :meth:`CompiledRound.run` per group) walks the circuits
forward instead, and the tests hold the two to the same results.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import gf2, sampling
from .codes import LinearCode
from .css import AncillaSpec, PauliElement
from .frames import (
    PAULI_1Q,
    PAULI_2Q,
    Circuit,
    FailureModel,
    FaultInjection,
    Gate,
    PauliFrame,
    check_injection,
    fault_images,
    first_fit,
    run_noisy,
    synth_encoding_circuit,
)
from .gf2 import BitMatrix

# Component codes for a two-qubit Pauli on (control, target):
# bit 0 = X on control, bit 1 = Z on control, bit 2 = X on target, bit 3 = Z on target.
_CHAR_CODE = {"I": 0, "X": 1, "Z": 2, "Y": 3}


def pauli2_code(pauli: str) -> int:
    return _CHAR_CODE[pauli[0]] | (_CHAR_CODE[pauli[1]] << 2)


PAULI15_CODE = tuple(pauli2_code(p) for p in PAULI_2Q)
PAULI3_CODE = tuple(_CHAR_CODE[p] for p in PAULI_1Q)
_PAULI15_CODES = np.array(PAULI15_CODE, dtype=np.int8)

# Trials per batch of the trial-batched engine.  Larger batches spread the
# fixed numpy call cost of a batch (about 0.5 ms) over more trials, but the
# temporaries grow with BATCH.  Four alternating pairs of fresh processes
# running six benchmark-shaped calls each (2-vCPU Xeon VM) read, for this
# kernel:
#
#   workload       BATCH  trials/s       peak RSS    minor faults/trial
#   golay0-A-ref   128    33.1k-38.5k    42.2-42.4   0.46
#                  256    36.6k-48.6k    42.6        0.003
#   bell-A-nops    128    29.8k-33.4k    41.3-41.5   0.37
#                  256    34.1k-36.2k    42.1-42.3   0.001
#
# (bell-A-nops three pairs).  The kernel before this one read 3.08 MiB of
# traced batch peak at 256 against 1.59 MiB here (1.9 MiB bound in
# test_batch_temporaries_stay_lean).
BATCH = 256

# Largest unit width (m blocks of n qubits) and |SE| the batched kernel
# packs into int64 words, and the most syndrome bits of its dense decoder
# tables (the column decoder reads 16-bit keys); DistillationConfig refuses
# a protocol beyond them.
_WORD_BITS = 62
_DENSE_BITS = 16
# A round decodes and corrects its dirty (group, trial) columns in slices
# of at most this many, which bounds its temporaries whatever the batch
# size; take, for one, copies its index to intp first.
_ROUND_SLICE = 2048
# Most (group, syndrome) cells of one step of ideal_postselect (one group
# at least), which bounds its temporaries.
_SPAN_CELLS = 1 << 14


def _flat(words: np.ndarray) -> np.ndarray:
    """A 1-D view of ``words`` for a scatter; hits scattered into a copy
    would be lost, so an array that is not C-contiguous is refused."""
    if not words.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    return words.reshape(-1)


def _pack(blocks: Sequence[int], n: int) -> int:
    """Per-block words as one unit word, block b in bits [b*n, (b+1)*n)."""
    return sum(word << (b * n) for b, word in enumerate(blocks))


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
    words of ``width`` bits become (..., width) words of ``rows`` bits, in
    the narrowest unsigned dtype that holds them, uint64 at most (a view of
    the transposed bytes when ``rows`` <= 8).

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
    dtype = np.min_scalar_type((1 << min(rows, 64)) - 1)
    out = cols[..., 0, :].astype(dtype, copy=False)
    for k in range(1, r8):
        out |= cols[..., k, :].astype(dtype) << (8 * k)
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
        self._check_envelope()

    def _check_envelope(self) -> None:
        """Raise ``ValueError`` naming the field that puts a round beyond the
        batched kernel: it holds a unit of m blocks of n qubits and |SE| in
        one int64 word, and its dense decoder tables take at most
        ``_DENSE_BITS`` key or value bits (the round code's r_c and k_c, and
        per block the larger of the block decoder's checks and the block's
        generator count), so n_c = r_c + k_c fits a word too.  A limit that
        one block breaks is the block code's (``spec.blocks``), one that only
        the m-block unit breaks the ancilla kind's (``spec``)."""
        spec = self.spec
        n = spec.blocks[0].n
        block_bits = max(max((blk.code_z if rnd == 1 else blk.code_x).r, count)
                         for rnd, counts in ((1, spec.gen_counts1), (2, spec.gen_counts2))
                         for blk, count in zip(spec.blocks, counts))
        limits = [("spec.blocks", "a block has {} qubits", n, _WORD_BITS),
                  ("spec.blocks", "a block decoder reads {} syndrome bits", block_bits, _DENSE_BITS),
                  ("spec", f"a unit of {spec.m} blocks has {{}} qubits", spec.m * n, _WORD_BITS)]
        for i, code_c, code_d, s in ((1, self.code_c1, self.code_d1, spec.s1),
                                     (2, self.code_c2, self.code_d2, spec.s2)):
            limits += [(f"code_c{i}", "the round code has r={} checks", code_c.r, _DENSE_BITS),
                       (f"code_c{i}", "the round code encodes k={} bits", code_c.k, _DENSE_BITS)]
            if isinstance(code_d, LinearCode):
                limits.append((f"code_d{i}", f"|SE| = {len(s)} + {code_d.r} = {{}}",
                               len(s) + code_d.r, _WORD_BITS))
        for name, what, value, limit in limits:
            if value > limit:
                raise ValueError(f"{name}: {what.format(value)}; the batched kernel takes at most {limit}")


@dataclass
class RoundResult:
    """Outcome of one distillation round on one group.

    ``frames[slot]`` is the post-round frame of every unit (checks included,
    pre-measurement); corrections are applied to accepted slots only.
    """

    accepted_slots: list[int]
    frames: list[PauliFrame]


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


@dataclass
class BatchOutcome:
    """Results of consecutive protocol cycles, one array entry per trial.

    The accepted output frames of every trial are stacked in trial order:
    ``out_e``/``out_f`` are (outputs, m) integer arrays of per-block words
    and ``out_trial`` holds the trial each output belongs to.
    """

    aborted: np.ndarray
    cand1: np.ndarray
    rej1: np.ndarray
    cand2: np.ndarray
    rej2: np.ndarray
    out_trial: np.ndarray
    out_e: np.ndarray
    out_f: np.ndarray

    def outcome(self, i: int) -> TrialOutcome:
        """Trial ``i`` of the batch as a :class:`TrialOutcome`."""
        sel = self.out_trial == i
        return TrialOutcome(
            bool(self.aborted[i]), int(self.cand1[i]), int(self.rej1[i]),
            int(self.cand2[i]), int(self.rej2[i]),
            [(tuple(e), tuple(f)) for e, f in zip(self.out_e[sel].tolist(), self.out_f[sel].tolist())],
        )


def round_schedule(a_c: BitMatrix) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The CNOT layers of a round and where they run.

    A 1 at (i, j) of the systematic part is layer (i, j), taken row by
    row.  Each layer goes, greedily over whole units, to the first time
    step in which neither check unit i nor data unit r_c + j is busy; its
    rank is the number of layers placed in that step before it
    (:func:`frames.first_fit`).  Returns the layers and their (step, rank)
    pairs.
    """
    r_c = a_c.rows
    layers = [(i, j) for i in range(r_c) for j in range(a_c.cols) if a_c.get(i, j)]
    return layers, first_fit([(i, r_c + j) for i, j in layers])


def build_round_circuit(a_c: BitMatrix, round_: int, n: int, m: int = 1) -> Circuit:
    """Transversal distillation circuit for one round on units of ``m``
    blocks of ``n`` qubits; unit u is blocks u*m .. u*m + m - 1.

    Units 0..r_c-1 are the check ancillas.  A 1 at (i, j) of the
    systematic part couples data unit r_c + j with check unit i through a
    transversal CNOT layer on every block.  Round 1 measures Z: the data
    side is the control (X errors do not flow back into the data).  Round
    2 measures X and the directions reverse.  Layers sharing a unit land
    in distinct time steps (:func:`round_schedule`); a step runs its
    layers in rank order, each block by block and qubit by qubit, and the
    last step reads out the check units.
    """
    r_c, k_c = a_c.rows, a_c.cols
    ns = tuple(n for _ in range((r_c + k_c) * m))
    layers, placed = round_schedule(a_c)
    steps: list[list[Gate]] = [[] for _ in range(len({s for s, _ in placed}))]
    for (i, j), (s_idx, _) in zip(layers, placed):
        for b in range(m):
            data = (r_c + j) * m + b
            check = i * m + b
            ctrl, tgt = (data, check) if round_ == 1 else (check, data)
            for q in range(n):
                steps[s_idx].append(Gate("cnot", ((ctrl, q), (tgt, q))))
    kind = "meas_z" if round_ == 1 else "meas_x"
    steps.append([Gate(kind, ((unit, q),)) for unit in range(r_c * m) for q in range(n)])
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
    round_: int,
) -> list[int]:
    """Parity rows sigma^(i) = nu^(i) . (SE reps)^T, one int per check unit.

    ``nu_records[i][b]`` is the packed error contribution of check unit i,
    code block b: e bits in round 1 (Z measurement), f bits in round 2.
    """
    rows = []
    for nu in nu_records:
        row = 0
        for c, el in enumerate(se):
            acc = 0
            for rep, bits in zip(el.z if round_ == 1 else el.x, nu):
                acc ^= (rep & bits).bit_count()
            if acc & 1:
                row |= 1 << c
        rows.append(row)
    return rows


def decode_columns(sigma_rows: Sequence[int], code_c: LinearCode, n_cols: int) -> list[int]:
    """Estimate the syndrome array column by column.

    Each column of sigma is the parity-check image of the unknown n_c-bit
    syndrome column; its coset leader is the estimate.  Every column is
    decoded independently (estimates are never combined across columns,
    otherwise the compatibility check would be vacuous).  Returns per-unit
    estimated rows.
    """
    r_c = code_c.r
    if len(sigma_rows) != r_c:
        raise ValueError("sigma must have one row per check unit")
    table = code_c.systematic_table
    rows_out = [0] * code_c.n
    for c in range(n_cols):
        syn = 0
        for i in range(r_c):
            if (sigma_rows[i] >> c) & 1:
                syn |= 1 << i
        j = int(table[syn])
        while j:
            u = (j & -j).bit_length() - 1
            rows_out[u] |= 1 << c
            j &= j - 1
    return rows_out


def hd_column_masks(code_d: LinearCode, n_s: int) -> list[int]:
    """Per-SE-column parity masks of H_d = [I | A_d] in [S | S'] layout.

    Column c < n_s contributes A_d's column c; column n_s + i is the unit
    parity i.
    """
    masks = []
    for c in range(n_s):
        masks.append(code_d.a.column(c))
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
    sigma: np.ndarray | Sequence[Sequence[int]], code_c: LinearCode, n_s: int
) -> np.ndarray:
    """Accept masks over units under ideal postselection, per group of
    (groups, r_c) ``sigma`` rows: unit j passes when bit j of the decoded
    column of every product of the n_s stabilizers is the XOR of its
    factors' bits.  With s_i stabilizer i's syndrome, V their span and D
    the column decoder, that is exactly bit j of D being linear on V, D(v ^
    s_i) = D(v) ^ D(s_i) for all v in V and all i, in O(n_s 2^r_c), not
    O(n_s 2^n_s) over the products.  That depends only on the set of
    nonzero s_i, so it is checked once per distinct set, without its zero
    generators.
    """
    table = code_c.systematic_table
    cells = np.arange(len(table))
    singles = _bit_transpose(np.asarray(sigma, dtype=np.int64), n_s).astype(np.intp)
    singles.sort(axis=1)
    singles[:, 1:][singles[:, 1:] == singles[:, :-1]] = 0
    sets, inverse = np.unique(np.sort(singles, axis=1), axis=0, return_inverse=True)
    bad = np.zeros(len(sets), dtype=np.int64)
    step = max(1, _SPAN_CELLS >> code_c.r)
    for lo in range(0, len(sets), step):
        gens = sets[lo:lo + step]
        gens = gens[:, gens.any(axis=0), None]
        member = np.zeros((len(gens), len(table)), dtype=bool)
        member[:, 0] = True
        for s in gens.swapaxes(0, 1):
            member |= np.take_along_axis(member, cells ^ s, axis=1)
        for s in gens.swapaxes(0, 1):
            diff = table.take(cells ^ s) ^ table ^ table.take(s)
            bad[lo:lo + step] |= np.bitwise_or.reduce(diff * member, axis=1)
    return (~bad & ((1 << code_c.n) - 1)).take(inverse)


def correct_block(
    spec: AncillaSpec,
    round_: int,
    s_hat_row: int,
    e: tuple[int, ...],
    f: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quantum error correction of one unit from its estimated syndromes.

    Decodes each block's generator syndrome with the round's classical
    code, then fixes logical eigenvalues: the estimate is multiplied by a
    logical's corrector exactly when its anticommutation with the estimate
    disagrees with the estimated eigenvalue bit.  Returns the corrected
    frame.
    """
    counts = spec.gen_counts1 if round_ == 1 else spec.gen_counts2
    correctors = spec.correctors1 if round_ == 1 else spec.correctors2
    m = spec.m
    est_x = [0] * m
    est_z = [0] * m
    # Round 1 decodes Z syndromes into an X estimate, round 2 the reverse.
    est = est_x if round_ == 1 else est_z
    off = 0
    for b in range(m):
        syn = (s_hat_row >> off) & ((1 << counts[b]) - 1)
        off += counts[b]
        code = spec.blocks[b].code_z if round_ == 1 else spec.blocks[b].code_x
        est[b] = code.decode(syn)
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
    return new_e, new_f


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
        self.ideal = code_d == "ideal"
        real_d = code_d if isinstance(code_d, LinearCode) else None
        self.spec = spec
        self.s = spec.s1 if round_ == 1 else spec.s2
        self.gen_counts = spec.gen_counts1 if round_ == 1 else spec.gen_counts2
        m = spec.m
        n = spec.blocks[0].n
        if any(c.n != n for c in spec.blocks):
            raise ValueError("all blocks must have equal length for transversal rounds")
        self.m = m
        self.n = n
        self.r_c = code_c.r
        self.k_c = code_c.k
        self.n_c = code_c.n

        self.se = extend_stabilizers(self.s, real_d)
        self.n_s = len(self.s)
        self.n_se = len(self.se)
        self.hd_masks = hd_column_masks(real_d, self.n_s) if real_d else [0] * self.n_s

        # Layer (i, j) of the round circuit runs at (step, rank) =
        # self.schedule[layer], and its readouts in the step after the last.
        self.layers, self.schedule = round_schedule(code_c.a)
        self.read_step = max((s for s, _ in self.schedule), default=-1) + 1

        # Dense tables of the trial-batched kernel: a unit's m blocks are
        # packed into one int64 word, block b in bits [b*n, (b+1)*n), and so
        # are sigma rows, estimated SE rows and check-slot masks; every
        # decoder becomes an array over all its syndromes.  Round 1 measures
        # Z and corrects e on every block, round 2 X and f.  Every round of
        # a DistillationConfig fits these words and tables.
        corr_codes = [blk.code_z if round_ == 1 else blk.code_x for blk in spec.blocks]
        self.word = np.int32 if m * n < 32 else np.int64
        # Per layer, block and Pauli code: bitmasks of the check slots whose
        # records flip and of the slots whose e / f parts flip.  A
        # transversal round couples qubit q only with qubit q of other
        # blocks, so every qubit has the pattern of the one-qubit slice of
        # the circuit (blocks of one qubit), whose component faults' images
        # one backward sweep gives.
        slice_ = build_round_circuit(code_c.a, round_, 1, m)
        images = fault_images(slice_)
        # The components XI, ZI, IX, IZ of each (layer, block), as (e, f)
        # bits per (slot, block) of an image; (slot, blk) is bit slot * m +
        # blk, and a check's record is its final e (round 1) or f (round 2)
        # bit, as nothing acts after readout.
        flat = [v for layer in range(len(self.layers)) for blk in range(m)
                for pair in images[self.cnot_location(layer, blk, 1)] for img in pair for v in img]
        bits = gf2.bit_rows(flat, self.n_c * m)
        bits = bits.reshape(len(self.layers), m, 4, 2, self.n_c, m).diagonal(0, 1, 5)
        own = np.moveaxis(bits, -1, 1) << np.arange(self.n_c)  # (layer, block, i, e/f, slot)
        checks, data = own[..., :self.r_c].sum(-1), own[..., self.r_c:].sum(-1)
        single = np.stack((checks[..., 0 if round_ == 1 else 1], data[..., 0], data[..., 1]), axis=-1)
        self.eff_masks = _by_code(single, range(16))
        # For the scatters of fault_hits: per plane, the masks as (layer,
        # block, Pauli code) rows of slot flags (the measured plane takes the
        # records on check slots and its own part on data slots, the flowing
        # plane the other part), and the unit word of each (block, qubit) bit.
        measured = 1 if round_ == 1 else 2
        self._hit_slots = [
            ((mask[..., None] >> np.arange(self.n_c)) & 1 == 1).reshape(-1, self.n_c)
            for mask in (self.eff_masks[..., 0] | self.eff_masks[..., measured],
                         self.eff_masks[..., 3 - measured])
        ]
        self._bits = np.left_shift(1, np.arange(m * n), dtype=self.word)
        # Per (block, qubit) of a unit: the SE elements whose measured part
        # touches it.
        se_rows = np.array([_pack(el.z if round_ == 1 else el.x, n) for el in self.se], dtype=np.int64)
        self.nu_to_sigma = gf2.byte_tables(_bit_transpose(se_rows, m * n).tolist())
        # The round code's coset leaders, in the narrowest signed dtype, and
        # the column decoder's table: per 16-bit key, the leaders shifted
        # right by r_c (their data bits).  When syndromes and shifted
        # leaders fit a byte, a key holds the syndromes of two columns and
        # its value their two shifted leaders, byte for byte.
        leaders = code_c.systematic_table
        self.leaders = leaders.astype(np.min_scalar_type(-int(leaders.max()) - 1))
        self._pair_keys = max(self.r_c, self.k_c) <= 8
        shifted = np.zeros(1 << (8 if self._pair_keys else self.r_c), dtype=np.uint16)
        shifted[:len(self.leaders)] = self.leaders >> self.r_c
        if self._pair_keys:  # key = low | high << 8 at [high, low]
            shifted = (shifted[None, :] | shifted[:, None] << 8).reshape(-1)
        self._column_table = shifted
        # The decision tables.  A unit's int64 side word holds the detecting
        # code's parities of its estimated SE row in bits [0, r_d), all zero
        # iff it is accepted, and in bit r_d + t whether logical t's
        # corrector applies: its estimated bit XOR the correction's parity
        # against its measured part (a corrector anticommutes with its own
        # logical alone, css._validate_spec).  Per block, by its generator
        # syndrome: the correction, shifted to the block's bits, and its side
        # share; one byte-table map adds the bits above the generators.
        self.r_d = r_d = self.n_se - self.n_s
        correctors = spec.correctors1 if round_ == 1 else spec.correctors2
        reps = [_pack(lg.z if round_ == 1 else lg.x, n) for lg in spec.logicals(round_)]
        fix = gf2.byte_tables([sum(((rep >> i) & 1) << (r_d + t) for t, rep in enumerate(reps))
                               for i in range(m * n)])
        self.block_tables = []
        off = 0
        for b, (code, count) in enumerate(zip(corr_codes, self.gen_counts)):
            correction = (code.syndrome_table << b * n).astype(self.word)
            share = gf2.xor_lookup(gf2.byte_tables(self.hd_masks[off:off + count]), np.arange(1 << count))
            side = share.astype(np.int64) ^ gf2.xor_lookup(fix, correction)
            self.block_tables.append((off, (1 << count) - 1, correction, side))
            off += count
        self.tail_shift = off
        self.tail_side = gf2.byte_tables([
            self.hd_masks[c] ^ (1 << (r_d + c - off) if c < self.n_s else 0)
            for c in range(off, self.n_se)
        ]).astype(np.int64)
        self.corrector_map = gf2.byte_tables(
            [_pack(cor.x if round_ == 1 else cor.z, n) for cor in correctors])
        # Per check row: the slots of the data units feeding it; per data
        # unit: the check slots it meets.
        self.row_data_idx = [
            [self.r_c + j for j in range(self.k_c) if code_c.a.get(i, j)] for i in range(self.r_c)
        ]
        self.col_check_idx = [
            [i for i in range(self.r_c) if code_c.a.get(i, j)] for j in range(self.k_c)
        ]

    # The full round circuit is built on first use: only the reference path
    # and tests read it, and the kernel compiles from the one-qubit slice.
    @functools.cached_property
    def circuit(self) -> Circuit:
        return build_round_circuit(self.code_c.a, self.round, self.n, self.m)

    def cnot_location(self, layer: int, qubit: int, n: int | None = None) -> tuple[int, int]:
        """The (step, gate) of the CNOT that ``layer`` applies to qubit
        ``qubit`` = blk * n + q of its units, in the round circuit on
        blocks of ``n`` qubits (this round's n by default)."""
        step, rank = self.schedule[layer]
        return step, rank * self.m * (self.n if n is None else n) + qubit

    def readout_location(self, slot: int, qubit: int) -> tuple[int, int]:
        """The (step, gate) of the readout of qubit ``qubit`` = blk * n + q
        of check slot ``slot`` in the round circuit."""
        return self.read_step, slot * self.m * self.n + qubit

    def batch_records(self, meas, flow, hits) -> np.ndarray:
        """Check records of (n_c, groups * trials) slot planes, column
        group * trials + trial.

        Transversal propagation: measured parts flow data -> check, the
        opposite parts check -> data, identically in both rounds, one row
        XOR per coupling; then the round's fault hits (see
        :meth:`fault_hits`) land on the measured and the flowing plane.  Both
        planes are updated in place, and the records are the check rows of
        ``meas``: no later stage reads a check unit's frame.
        """
        nu = meas[:self.r_c]
        for i, cols in enumerate(self.row_data_idx):
            for c in cols:
                nu[i] ^= meas[c]
        for slot, rows in enumerate(self.col_check_idx, self.r_c):
            for r in rows:
                flow[slot] ^= flow[r]
        for target, (index, bit) in zip((meas, flow), hits):
            np.bitwise_xor.at(_flat(target), index, bit)
        return nu

    def batch_decode(self, sigma: np.ndarray) -> np.ndarray:
        """Column decode of (groups, r_c) sigma rows.

        Column c's syndrome collects bit c of every row (columns padded to
        whole bytes; a padding column reads syndrome 0).  Returns the
        estimated SE rows of the data slots.
        """
        keys = _bit_transpose(sigma, -(-self.n_se // 8) * 8)
        if self._pair_keys:
            keys = keys.view(np.uint16)
        shifted = self._column_table.take(keys)
        if self._pair_keys:
            shifted = shifted.view(np.uint8)
        return _bit_transpose(shifted, self.k_c)

    def batch_correct(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode, postselect and correct groups from their nonzero
        (groups, r_c) sigma rows: returns the (groups, k_c) accept mask and
        the corrections of the data units, zero on rejected units."""
        acc, est = self.decide(self.batch_decode(sigma))
        if self.ideal:
            accept = ideal_postselect(sigma, self.code_c, self.n_s)[:, None]
            acc &= (accept >> np.arange(self.r_c, self.n_c)) & 1 == 1
        est *= acc
        return acc, est

    def decide(self, se_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Detecting-code verdicts and corrections of estimated SE rows (an
        array of unsigned words): one lookup per block of each table, and
        one of the map above the generators, give a row's side word (see
        :meth:`__init__`) and correction; the correctors its side word
        calls for join the correction."""
        side = gf2.xor_lookup(self.tail_side, se_hat >> self.tail_shift)
        est = np.zeros(se_hat.shape, self.word)
        for off, mask, correction, share in self.block_tables:
            index = (se_hat >> off) & mask
            est ^= correction.take(index)
            side ^= share.take(index)
        del index  # freed before the step's largest lookup
        est ^= gf2.xor_lookup(self.corrector_map, side >> self.r_d)
        return (side & ((1 << self.r_d) - 1)) == 0, est

    def fault_hits(self, row, layer, qubit, code, m_row, m_slot, m_qubit, plane: int):
        """Round faults of a batch as XOR hits on its slot planes (see
        :meth:`batch_records`), a column being group * trials + trial and a
        plane ``plane`` = groups * trials words long.

        CNOT faults are (column, layer, qubit, Pauli code) arrays, readout
        flips (column, check slot, qubit); qubit q of block blk is bit
        ``blk * n + q`` of the unit word.  Returns two (flat index, bit)
        pairs, index slot * plane + column and the bits in the unit word
        dtype: on the (n_c, plane) measured plane, records and readout
        flips included, and on the flowing plane.
        """
        bit = self._bits.take(qubit)
        combo = (layer * self.m + qubit // self.n) * 16 + code
        index_type = np.int32 if self.n_c * plane < 2**31 else np.int64
        hits = []
        for table in self._hit_slots:
            # flatnonzero and divmod: a 2-D nonzero costs ten times more.
            k, slot = np.divmod(
                np.flatnonzero(table.take(combo, axis=0)).astype(index_type), self.n_c)
            slot *= plane
            slot += row[k]
            hits.append((slot, bit[k]))
        index, bits = hits[0]
        hits[0] = (np.concatenate((index, m_slot.astype(index_type) * plane + m_row)),
                   np.concatenate((bits, self._bits.take(m_qubit))))
        return hits

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
        sigma = compute_sigma(nu, self.se, self.round)
        se_hat = decode_columns(sigma, self.code_c, self.n_se)
        frames = [
            PauliFrame(
                tuple(self.circuit.ns[slot * m: (slot + 1) * m]),
                final.e[slot * m: (slot + 1) * m],
                final.f[slot * m: (slot + 1) * m],
            )
            for slot in range(self.n_c)
        ]
        accept_mask = int(ideal_postselect([sigma], self.code_c, self.n_s)[0]) if self.ideal else -1
        accepted = []
        for slot in range(self.r_c, self.n_c):
            if not ((accept_mask >> slot) & 1 and postselect(se_hat[slot], self.hd_masks)):
                continue
            s_hat = se_hat[slot] & ((1 << self.n_s) - 1)
            fr = frames[slot]
            new_e, new_f = correct_block(self.spec, self.round, s_hat, tuple(fr.e), tuple(fr.f))
            fr.e = list(new_e)
            fr.f = list(new_f)
            accepted.append(slot)
        return RoundResult(accepted_slots=accepted, frames=frames)


class ProtocolRunner:
    """Compiled end-to-end protocol: noisy preparation, two distillation
    rounds with refill and regrouping, per-trial fault sampling."""

    def __init__(self, config: DistillationConfig):
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
        gates = list(self.enc_circuit.gates())
        self.enc_cnot_locs = [(s, g) for s, g, gate in gates if gate.kind == "cnot"]
        self.enc_prep_locs = [(s, g) for s, g, gate in gates if gate.kind in ("prep_z", "prep_x")]
        self.n_enc_cnots = len(self.enc_cnot_locs)
        self.n_enc_locs = self.n_enc_cnots + len(self.enc_prep_locs)

        # The fault spaces and the dtype of fault rows (see sampling).
        width = self.m * self.n
        self.gate_layout = ((self.n_units, self.n_enc_locs),
                            (self.groups1, len(self.round1.layers), width),
                            (self.groups2, len(self.round2.layers), width))
        self.meas_layout = ((self.groups1, self.r_c1, width), (self.groups2, self.r_c2, width))
        self.gate_space, self.meas_space = (
            sum(map(math.prod, layout)) for layout in (self.gate_layout, self.meas_layout))
        self.row_dtype = np.int32 if max(self.gate_space, self.meas_space) < 2**31 else np.int64
        self.stream = sampling.TrialStream()
        # Frames of a batch hold one unit, all m blocks, per word.
        self._word = self.round1.word
        self._compile_encoding()
        ids = np.arange(self.n_units, dtype=np.int32).reshape(self.groups1, self.n_c1)
        self._g1_data_ids = ids[:, self.r_c1:].copy()
        # Unit group * n_c1 + slot is row slot * groups1 + group of the
        # batch frames, so round 1 reads each slot as one plane.
        self._unit_pos = np.arange(self.n_units, dtype=np.int32).reshape(
            self.n_c1, self.groups1).T.ravel()
        # Frame rows of round 2's (slot, group) units after a round 1
        # without rejections.
        self._identity_rows = self._unit_pos.take(self._g1_data_ids[:self.n_c2])

    def with_model(self, model: FailureModel) -> "ProtocolRunner":
        """This compiled protocol under another failure model; no compiled
        table depends on the model."""
        other = copy.copy(self)
        other.config = dataclasses.replace(self.config, model=model)
        return other

    def _compile_encoding(self) -> None:
        """Encoding effects by (location, draw) as unit words: the 15-way
        draw indexes a CNOT location's Paulis, the 3-way draw a
        preparation's.  Every component fault's image comes from one
        backward sweep of the encoder (blocks of n qubits, so the images
        are unit words); composite Paulis add their components' effects."""
        images = fault_images(self.enc_circuit)
        self._enc_eff = np.zeros((self.n_enc_locs, 15, 2), dtype=self._word)
        for locs, comps, codes, rows in (
            (self.enc_cnot_locs, 4, PAULI15_CODE, slice(0, self.n_enc_cnots)),
            (self.enc_prep_locs, 2, PAULI3_CODE, slice(self.n_enc_cnots, None)),
        ):
            # Per location: (X, Z) images per gate qubit, i.e. the components
            # XI, ZI, IX, IZ of a CNOT and X, Z of a preparation.
            single = np.array([images[loc] for loc in locs], dtype=self._word)
            self._enc_eff[rows, :len(codes)] = _by_code(single.reshape(-1, comps, 2), codes)

    def run_trial(self, seed: int, p_index: int, trial: int) -> TrialOutcome:
        """Trial ``trial`` of the (seed, p index) streams, sampled as
        :meth:`run_batch` samples it and run on the reference."""
        gate, meas, _ = sampling.sample_batch(self, seed, p_index, trial, 1)
        return self.run_reference(*sampling.injections(self, gate, meas))

    def run_injected(
        self,
        prep_faults: dict[int, FaultInjection] | None = None,
        round1_faults: dict[int, FaultInjection] | None = None,
        round2_faults: dict[int, FaultInjection] | None = None,
    ) -> TrialOutcome:
        """Deterministic protocol run on the reference with faults pinned to
        circuit locations of specific units (preparation) or groups (rounds).

        Raises ``ValueError`` for a unit, group or location off the
        protocol's circuits, or a Pauli without one letter per gate qubit.
        Every stage is checked before anything runs: the reference stops at
        an abort and would never see the round-2 faults."""
        injections = (prep_faults or {}, round1_faults or {}, round2_faults or {})
        for (name, count, circuit, place), faults in zip((
            ("unit", self.n_units, self.enc_circuit, "an encoding location"),
            ("round 1 group", self.groups1, self.round1.circuit, "a circuit location"),
            ("round 2 group", self.groups2, self.round2.circuit, "a circuit location"),
        ), injections):
            for index, injection in faults.items():
                if not 0 <= index < count:
                    raise ValueError(f"{name} {index} is outside 0..{count - 1}")
                check_injection(circuit, injection, place)
        return self.run_reference(*injections)

    # ---- trial-batched engine ----------------------------------------------

    def run_batch(self, seed: int, p_index: int, first: int, count: int) -> BatchOutcome:
        """Trials ``first .. first + count - 1`` of the (seed, p index)
        streams, sampled by :func:`sampling.sample_batch` and run as
        :meth:`run_rows` runs them, but with no name holding the fault rows
        through the rounds (0.33 MiB of peak at 1.6e-3)."""
        return self._run_protocol_core(
            self._execute(*sampling.sample_batch(self, seed, p_index, first, count)))

    def run_rows(self, gate, meas, count: int) -> BatchOutcome:
        """The batched engine on a batch of fault rows (see
        :mod:`cssdistill.sampling`): the scatter, then both rounds."""
        return self._run_protocol_core(self._execute(gate, meas, count))

    def _execute(self, gate_faults, meas_faults, n_trials: int) -> list:
        """Scatter a batch of fault rows (see :mod:`cssdistill.sampling`).
        Returns ``[e, f, hits1, hits2]`` for :meth:`_run_protocol_core`:
        the frames with the encoding faults applied (they start clean) and
        the round faults as each round's hits (see
        :meth:`CompiledRound.fault_hits`).  The frames are (units, trials)
        words, unit u in row ``_unit_pos[u]``, so that round 1 sees (n_c1,
        groups1, trials) slot planes.  The per-fault arrays end here,
        before the rounds run."""
        # One allocation for both frames: a batch's largest, and freed whole.
        e, f = np.zeros((2, self.n_units, n_trials), dtype=self._word)
        trial, pos, draw15, draw3 = gate_faults.T
        m_trial, m_pos = meas_faults.T
        (prep, (unit, loc)), *rounds = sampling.decode(pos, self.gate_layout)
        draw = np.where(loc < self.n_enc_cnots, draw15[prep], draw3[prep])
        eff = self._enc_eff.reshape(-1, 2).take(loc * 15 + draw, axis=0)
        index = self._unit_pos.take(unit) * n_trials + trial[prep]
        np.bitwise_xor.at(_flat(e), index, eff[:, 0])
        np.bitwise_xor.at(_flat(f), index, eff[:, 1])
        del prep, unit, loc, draw, eff, index  # before the round hits are built
        hits = []
        for rnd, groups, (sel, (group, layer, qubit)), (m_sel, (m_group, m_slot, m_qubit)) in zip(
            (self.round1, self.round2), (self.groups1, self.groups2),
            rounds, sampling.decode(m_pos, self.meas_layout),
        ):
            hits.append(rnd.fault_hits(group * n_trials + trial[sel], layer, qubit,
                                       _PAULI15_CODES.take(draw15[sel]),
                                       m_group * n_trials + m_trial[m_sel],
                                       m_slot, m_qubit, groups * n_trials))
        return [e, f, *hits]

    def _run_protocol_core(self, batch: list) -> BatchOutcome:
        """Both rounds, refill and regrouping on a scattered batch, the list
        ``[e, f, hits1, hits2]`` of :meth:`_execute`.  The list is emptied,
        so that each array is freed once no later stage needs it."""
        e, f, hits1, hits2 = batch
        batch.clear()
        n_trials = e.shape[1]
        g1, k1 = self.groups1, self.k_c1
        shape1 = (self.n_c1, g1, n_trials)
        acc1 = self._process_group_m1(self.round1, e.reshape(shape1), f.reshape(shape1), hits1)
        del hits1

        # A trial without a round-1 rejection keeps every primary group as
        # it is; only the others are refilled.
        aborted = np.zeros(n_trials, dtype=bool)
        rows = np.repeat(self._identity_rows[:, :, None], n_trials, axis=2)
        rejected = np.flatnonzero(~acc1.all(axis=(0, 1)))
        if len(rejected):
            aborted[rejected], primary = self._refill(acc1.transpose(2, 1, 0)[rejected])
            rows[:, :, rejected] = self._unit_pos.take(primary.transpose(1, 2, 0))

        # Regroup: round-2 group j takes the j-th unit of every primary
        # group, one flat take into (n_c2, groups2, trials) slot planes.
        # Aborted trials run round 2 on meaningless ids, and their outcome
        # is dropped.
        rows *= n_trials
        rows += np.arange(n_trials, dtype=rows.dtype)
        e2, f2 = e.take(rows), f.take(rows)
        del e, f, rows
        acc2 = self._process_group_m1(self.round2, f2, e2, hits2)
        del hits2
        acc2[:, :, aborted] = False

        # Outputs in (trial, group, slot) order.
        out_b, out_gs = np.divmod(np.flatnonzero(acc2.transpose(2, 1, 0)), self.groups2 * self.k_c2)
        out_g, out_s = np.divmod(out_gs, self.k_c2)
        out = ((out_s + self.r_c2) * self.groups2 + out_g) * n_trials + out_b
        cand1 = np.full(n_trials, g1 * k1, dtype=np.int64)
        cand2 = np.where(aborted, 0, self.groups2 * self.k_c2)
        return BatchOutcome(
            aborted=aborted,
            cand1=cand1, rej1=cand1 - acc1.sum(axis=(0, 1)),
            cand2=cand2, rej2=cand2 - acc2.sum(axis=(0, 1)),
            out_trial=out_b,
            out_e=self._blocks(e2.take(out)),
            out_f=self._blocks(f2.take(out)),
        )

    def _blocks(self, words: np.ndarray) -> np.ndarray:
        """Unit words as (units, m) per-block words, one shift per block (a
        shift broadcast over a length-m axis costs three times more)."""
        mask = (1 << self.n) - 1
        return np.stack([(words >> (b * self.n)) & mask for b in range(self.m)], axis=1)

    def _refill(self, acc1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Primary groups of a batch after round 1: (aborted, unit ids).

        A primary group keeps its accepted data units in slot order and
        tops up from the spare groups' accepted units, consumed in block
        order; a trial aborts iff its total deficit exceeds them.
        Returns the per-trial abort flags and the (trials, n_c2, k_c1) ids
        (meaningless on aborted trials).
        """
        n_c2, ids = self.n_c2, self._g1_data_ids
        own = acc1[:, :n_c2]
        spare = acc1[:, n_c2:].reshape(len(acc1), -1)
        # Slot j of a primary group keeps an own unit while j is below the
        # group's accepted count; the q-th empty slot of a trial, in group
        # then slot order, takes the trial's q-th accepted spare unit.
        empty = np.arange(self.k_c1) >= own.sum(axis=2)[:, :, None]
        short = empty.sum(axis=(1, 2))
        aborted = short > spare.sum(axis=1)
        primary = np.zeros(own.shape, ids.dtype)
        primary[~empty] = np.broadcast_to(ids[:n_c2], own.shape)[own]
        empty[aborted] = False
        used = spare & (spare.cumsum(axis=1, dtype=np.int32) <= short[:, None])
        used[aborted] = False
        primary[empty] = np.broadcast_to(ids[n_c2:].ravel(), spare.shape)[used]
        return aborted, primary

    def _process_group_m1(self, rnd: CompiledRound, meas, flow, hits) -> np.ndarray:
        """One round on every group of a batch at once.

        Serves units of any block count m: ``meas``/``flow`` are (n_c,
        groups, trials) slot planes of unit words (all m blocks packed) of
        the measured part (e in round 1, f in round 2) and of the opposite
        part; both are updated in place: the flowing part picks up the check
        blocks' errors, accepted data slots are corrected, and the check
        slots of ``meas`` hold the records.  Returns the (k_c, groups,
        trials) accept mask.  Columns are decoded and corrected
        ``_ROUND_SLICE`` at a time.
        """
        r_c, n_c, k_c = rnd.r_c, rnd.n_c, rnd.k_c
        planes = _flat(meas).reshape(n_c, -1)
        nu = rnd.batch_records(planes, _flat(flow).reshape(n_c, -1), hits)
        accept = np.ones((k_c, planes.shape[1]), dtype=bool)
        data = planes[r_c:]
        # sigma is linear in the records: only the (group, trial) columns
        # with some record, found by an OR over the record rows, can have a
        # syndrome.  Columns are group * trials + trial.
        records = nu.T
        live = gf2.nonzero_rows(records)
        for lo in range(0, len(live), _ROUND_SLICE):
            cols = live[lo:lo + _ROUND_SLICE]
            sigma = gf2.xor_lookup(rnd.nu_to_sigma, records[cols])
            dirty = gf2.nonzero_rows(sigma)
            cols, sigma = cols[dirty], sigma[dirty]
            if len(cols):
                acc, est = rnd.batch_correct(sigma)
                accept[:, cols] = acc.T
                fixed = data.take(cols, axis=1)
                fixed ^= est.T
                data[:, cols] = fixed
        return accept.reshape((k_c,) + meas.shape[1:])

    # ---- reference protocol ------------------------------------------------

    def run_reference(self, prep, r1, r2) -> TrialOutcome:
        """Reference protocol cycle with the given fault injections: by unit
        for the preparations, by group for each round (see
        :func:`sampling.injections`).

        Walks each unit's encoder with :func:`run_noisy` and each group with
        :meth:`CompiledRound.run`; refill and regrouping are plain Python.
        It defines the semantics the batched engine is tested against and
        runs the one-off cycles (:meth:`run_trial`, :meth:`run_injected` and
        so the ``inject`` command).
        """
        empty = FaultInjection(())
        frames = [run_noisy(self.enc_circuit, prep.get(u, empty))[0] for u in range(self.n_units)]
        accepted1 = [
            self._process_group(self.round1, list(range(g * self.n_c1, (g + 1) * self.n_c1)),
                                frames, r1.get(g, empty))
            for g in range(self.groups1)
        ]
        cand1 = self.groups1 * self.k_c1
        rej1 = cand1 - sum(map(len, accepted1))
        # A primary group tops up from the spare groups' accepted units,
        # consumed in block order; the trial aborts when they run out.
        pool = [u for acc in accepted1[self.n_c2:] for u in acc]
        primary = []
        for acc in accepted1[:self.n_c2]:
            need = self.k_c1 - len(acc)
            if need > len(pool):
                return TrialOutcome(True, cand1, rej1, 0, 0, [])
            primary.append(acc + pool[:need])
            del pool[:need]
        # Regroup: round-2 group j takes the j-th unit of every primary group.
        outputs = []
        for j in range(self.groups2):
            acc = self._process_group(self.round2, [ids[j] for ids in primary], frames, r2.get(j, empty))
            outputs += [(tuple(frames[u].e), tuple(frames[u].f)) for u in acc]
        cand2 = self.groups2 * self.k_c2
        return TrialOutcome(False, cand1, rej1, cand2, cand2 - len(outputs), outputs)

    def _process_group(self, rnd: CompiledRound, ids, frames, injection) -> list[int]:
        """One round of the reference on the units ``ids`` of ``frames``,
        check units first; accepted units take their corrected frames.
        Returns the accepted unit ids in slot order."""
        res = rnd.run([frames[u] for u in ids], injection)
        for slot in res.accepted_slots:
            frames[ids[slot]] = res.frames[slot]
        return [ids[slot] for slot in res.accepted_slots]
