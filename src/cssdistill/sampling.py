"""Fault rows, the one input of the batched kernel, and all that makes them.

A gate row (trial, position, draw15, draw3) puts Pauli
``frames.PAULI_2Q[draw15]`` on a CNOT or ``frames.PAULI_1Q[draw3]`` on a
preparation at a position of the gate space; a readout row (trial,
position) flips a readout.  A batch, the arguments of
``ProtocolRunner.run_rows``, is (gate rows, readout rows, trial count),
trials from 0 and rows in trial order, of ``runner.row_dtype``.  A space is
consecutive row-major segments (:func:`decode`): ``runner.gate_layout`` is
(units, encoder CNOTs then preparations), then (groups, layers, m*n) per
round; ``runner.meas_layout`` is (groups, r_c, m*n) per round.

:func:`sample_batch` draws trial t's faults from its own Philox stream,
keyed by (seed, p index) at counter (0, 0, 0, t) (:class:`TrialStream`):
the skips numpy's ``geometric`` would draw over the gate space, then over
the readout space, and then ``integers(0, 15)`` and ``integers(0, 3)`` per
gate fault.  It makes one numpy call per kind of draw and trial, and
transforms them for the whole batch, so the numbers depend on Philox and
``standard_exponential`` only; the tests hold them to ``geometric`` and
``integers``.  :func:`single_faults` enumerates every single fault,
:func:`k_faults` draws k uniform faults per trial, and :func:`injections`
replays rows on the reference.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .frames import PAULI_1Q, PAULI_2Q, Fault, FaultInjection


class TrialStream:
    """One Philox generator, re-keyed for each trial by :meth:`at`; built on
    first use, since numpy.random takes about 10 ms to load."""

    _parts = None

    def at(self, seed: int, p_index: int, trial: int) -> np.random.Generator:
        """Trial ``trial``'s generator of (seed, p index), until the next call."""
        if self._parts is None:
            bg = np.random.Philox(key=0)
            counter, key = [0, 0, 0, 0], [0, 0]
            state = bg.state
            state.update(state={"counter": counter, "key": key}, buffer=[0] * 4,
                         buffer_pos=4, has_uint32=0, uinteger=0)
            self._parts = (np.random.Generator(bg), state, counter, key)
        gen, state, counter, key = self._parts
        counter[3] = trial
        key[0], key[1] = seed & 0xFFFFFFFFFFFFFFFF, p_index
        gen.bit_generator.state = state
        return gen


def _chunk(total: int, p: float) -> int:
    """Skips per chunk over ``total`` locations at rate p: m + 6 sqrt(m) + 8
    of the mean fault count m, at least 16."""
    mean = total * p
    return max(16, int(mean + 6.0 * math.sqrt(mean) + 8))


def _batch_positions(draws: np.ndarray, total: int, p: float):
    """Bernoulli(p) positions (running sums - 1) over [0, total) for each
    row of ``draws``, a trial's chunk of skip draws.  Below p = 1/3 a skip
    is ``ceil(E / -log1p(-p))`` of an exponential E; from 1/3 up, one plus
    the number of numpy's partial sums (``sum = prod = p``, then ``prod *=
    1 - p; sum += prod`` while the sum changes) below (word >> 11) * 2^-53
    of a raw word.  Float64 sums are exact wherever a position is kept
    (numpy's int64 sums wrap below p of about 1e-17).  Returns the kept
    positions in trial order, the count per trial, and the trials whose
    draws all stay inside the space.  p >= 1 takes all, p <= 0 none."""
    count = len(draws)
    none = np.zeros(count, dtype=bool)
    if p <= 0.0 or total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(count, dtype=np.int64), none
    if p >= 1.0:
        return np.tile(np.arange(total), count), np.full(count, total), none
    if p >= 1 / 3:
        prod, ps = p, [p]
        while ps[-1] + (prod := prod * (1.0 - p)) != ps[-1]:
            ps.append(ps[-1] + prod)
        sums = np.searchsorted(ps, (draws >> np.uint64(11)) * 2.0**-53) + 1.0
    else:
        # math.log1p is the libm function numpy's C code calls.  A skip
        # beyond the float range (p near the smallest double) is infinite.
        with np.errstate(over="ignore"):
            sums = np.ceil(draws / -math.log1p(-p))
    sums.cumsum(axis=1, out=sums)
    keep = sums <= total
    k = keep.sum(axis=1)
    pos = sums[keep].astype(np.int64)
    pos -= 1
    return pos, k, k == draws.shape[1]


def _pauli_draws(raw: np.ndarray, k: np.ndarray):
    """The 15-way and 3-way draws of each trial's k gate faults: Lemire's
    ``(u * 15) >> 32`` of the first k nonzero uint32 values of its row of
    raw words (low half first), ``(u * 3) >> 32`` of the next k; a zero is
    numpy's only rejection.  A row with a zero among its first 2k values is
    read again without zeros.  Also returns the trials short of values."""
    u32 = raw.view(np.uint32)
    ends = np.cumsum(k)
    # Fault i (counted over the batch) of trial t reads value i - (faults
    # before t) of row t, and its 3-way draw the value k[t] further on.
    at = np.arange(ends[-1] if len(k) else 0)
    at += np.repeat(np.arange(len(k)) * u32.shape[1] - (ends - k), k)
    flat = u32.reshape(-1)
    u15 = flat.take(at)
    at += np.repeat(k, k)
    u3 = flat.take(at)
    short = np.zeros(len(k), dtype=bool)
    for t in set(np.searchsorted(ends, np.flatnonzero((u15 == 0) | (u3 == 0)), side="right").tolist()):
        lo, n = ends[t] - k[t], k[t]
        row = u32[t][u32[t] != 0]
        short[t] = len(row) < 2 * n
        if not short[t]:
            u15[lo:lo + n], u3[lo:lo + n] = row[:n], row[n:2 * n]
    draw15 = np.multiply(u15, 15, dtype=np.int64)
    draw3 = np.multiply(u3, 3, dtype=np.int64)
    draw15 >>= 32
    draw3 >>= 32
    return draw15, draw3, short


def sample_batch(runner, seed: int, p_index: int, first: int, count: int):
    """The faults of trials ``first .. first + count - 1`` of the (seed,
    p index) streams under ``runner.config.model``, as a batch of rows.
    A trial draws a chunk of skips over each space, then one raw word per
    gate fault of its chunk.  One drawn short is drawn again alone with
    one more gate chunk while its gate draws stay inside the gate space,
    then one more readout chunk (it starts where they end), then twice the
    raw words while they hold too few nonzero values."""
    model = runner.config.model
    chunks = [_chunk(total, p) if total and 0 < p < 1 else 0
              for total, p in ((runner.gate_space, model.p_gate), (runner.meas_space, model.p_meas))]
    # One raw word per skip of the gate chunk, or per location at p = 1.
    n_raw = chunks[0] or (runner.gate_space if model.p_gate >= 1 else 0)
    gate, meas, short = _draw_rows(runner, seed, p_index, range(first, first + count), chunks, n_raw)
    redraw = short.any(axis=0)
    if not redraw.any():
        return gate, meas, count
    parts = [(gate[~redraw[gate[:, 0]]], meas[~redraw[meas[:, 0]]])]
    for i in np.flatnonzero(redraw).tolist():
        sizes, words, flags = list(chunks), n_raw, short[:, i]
        while flags.any():
            if flags[0]:
                sizes[0] += chunks[0]
                words += chunks[0]
            elif flags[1]:
                sizes[1] += chunks[1]
            else:
                words *= 2
            g, m, flags = _draw_rows(runner, seed, p_index, [first + i], sizes, words)
            flags = flags[:, 0]
        g[:, 0] = m[:, 0] = i
        parts.append((g, m))
    gate, meas = (np.concatenate(rows) for rows in zip(*parts))
    return (gate[np.argsort(gate[:, 0], kind="stable")],
            meas[np.argsort(meas[:, 0], kind="stable")], count)


def _draw_rows(runner, seed: int, p_index: int, trials: Sequence[int], sizes, n_raw: int):
    """Fault rows of ``trials`` (counted from 0), each drawn from the start
    of its stream as ``sizes`` (gate, readout) skip draws, then ``n_raw``
    raw words, with one numpy call per trial and run of draws of one kind.
    Also returns the (3, trials) mask of the trials whose gate draws,
    readout draws or raw words ran short."""
    model = runner.config.model
    families = ((runner.gate_space, model.p_gate), (runner.meas_space, model.p_meas))
    count = len(trials)
    # Whether each draw takes raw words (True) or standard exponentials,
    # its columns in the array of its kind, and one (kind, first column,
    # end) step per run of draws of one kind in stream order.
    from_words = [1 / 3 <= p < 1 for _, p in families] + [True]
    ends, cols, steps = [0, 0], [], []
    for size, kind in zip((*sizes, n_raw), from_words):
        lo = ends[kind]
        ends[kind] += size
        cols.append(slice(lo, ends[kind]))
        if steps and steps[-1][0] == kind:
            steps[-1][2] = ends[kind]
        elif size:
            steps.append([kind, lo, ends[kind]])
    draws = (np.empty((count, ends[0])), np.empty((count, ends[1]), dtype=np.uint64))
    steps = [(kind, draws[kind][:, lo:hi], hi - lo) for kind, lo, hi in steps]
    # One generator is reset per trial, so its draw methods are bound once.
    at = runner.stream.at
    rng = at(seed, p_index, 0)
    exponential, raw = rng.standard_exponential, rng.bit_generator.random_raw
    for i, t in enumerate(trials):
        at(seed, p_index, t)
        for kind, out, n in steps:
            if kind:
                out[i] = raw(n)
            else:
                exponential(out=out[i])
    (g_pos, k, g_short), (m_pos, m_k, m_short) = (
        _batch_positions(draws[kind][:, span], total, p)
        for (total, p), kind, span in zip(families, from_words, cols))
    words = draws[1]
    del draws, steps
    trial = np.arange(count, dtype=runner.row_dtype)
    meas = np.stack((np.repeat(trial, m_k), m_pos), axis=1, dtype=runner.row_dtype)
    gate = np.empty((len(g_pos), 4), dtype=runner.row_dtype)
    gate[:, 0] = np.repeat(trial, k)
    gate[:, 1] = g_pos
    del g_pos
    gate[:, 2], gate[:, 3], w_short = _pauli_draws(words[:, cols[2]], k)
    return gate, meas, np.stack((g_short, m_short, w_short))


def single_faults(runner, size: int = 2048):
    """Every single fault of the protocol once, as batches of ``size``
    one-fault trials: 15 Paulis per CNOT, 3 per preparation and a flip per
    readout."""
    pos = np.arange(runner.gate_space + runner.meas_space)
    ways = np.where(pos < runner.gate_space, 15, 1)
    ways[(pos < math.prod(runner.gate_layout[0])) & (pos % runner.n_enc_locs >= runner.n_enc_cnots)] = 3
    at, ways = np.repeat(pos, ways), np.repeat(ways, ways)
    draw = np.arange(len(at)) - np.searchsorted(at, at)
    return _batches(runner, at[:, None], np.where(ways == 15, draw, 0)[:, None],
                    np.where(ways == 3, draw, 0)[:, None], size)


def k_faults(runner, k: int, trials: int, rng: np.random.Generator, size: int = 2048):
    """``trials`` trials of k faults, as batches of ``size``: a uniform
    k-subset of all gate and readout locations (drawn again while it has a
    repeat) with uniform draws, all taken from ``rng`` before returning."""
    total = runner.gate_space + runner.meas_space
    pos = rng.integers(0, total, (trials, k))
    while len(repeat := np.flatnonzero((np.diff(np.sort(pos), axis=1) == 0).any(axis=1))):
        pos[repeat] = rng.integers(0, total, (len(repeat), k))
    return _batches(runner, pos, rng.integers(0, 15, (trials, k)), rng.integers(0, 3, (trials, k)), size)


def _batches(runner, pos, draw15, draw3, size: int):
    """Rows of (trials, k) positions over both spaces and draws, by ``size``."""
    def batch(part):
        count, k = pos[part].shape
        trial, at = np.repeat(np.arange(count), k), pos[part].ravel()
        gate = at < runner.gate_space
        gate_rows = np.column_stack((trial[gate], at[gate], draw15[part].ravel()[gate],
                                     draw3[part].ravel()[gate]))
        meas_rows = np.column_stack((trial[~gate], at[~gate] - runner.gate_space))
        return gate_rows.astype(runner.row_dtype), meas_rows.astype(runner.row_dtype), count
    return (batch(slice(start, start + size)) for start in range(0, len(pos), size))


def decode(pos: np.ndarray, layout) -> list[tuple[np.ndarray, tuple[np.ndarray, ...]]]:
    """Positions of a space of row-major segments of the shapes in
    ``layout``: per segment, the indices of its positions in ``pos`` and
    their coordinates, by divmods in ``pos``' dtype (``np.unravel_index``
    returns intp and was about twice as slow on int32 positions)."""
    out = []
    start = 0
    for shape in layout:
        end = start + math.prod(shape)
        sel = np.flatnonzero((pos >= start) & (pos < end))
        rest, coords = pos[sel] - start, []
        for size in shape[:0:-1]:
            rest, c = np.divmod(rest, size)
            coords.append(c)
        out.append((sel, (rest, *coords[::-1])))
        start = end
    return out


def injections(runner, gate, meas):
    """One trial's gate and readout rows as the fault injections of
    ``runner.run_reference``: by unit for the preparations, by group for
    each round."""
    _, gate_pos, draw15, draw3 = gate.T
    meas_pos = meas[:, 1]
    enc_locs = runner.enc_cnot_locs + runner.enc_prep_locs
    staged: tuple[dict[int, list[Fault]], ...] = ({}, {}, {})
    (prep, (unit, loc)), *rounds = decode(gate_pos, runner.gate_layout)
    for u, at, d15, d3 in zip(*(a.tolist() for a in (unit, loc, draw15[prep], draw3[prep]))):
        pauli = PAULI_2Q[d15] if at < runner.n_enc_cnots else PAULI_1Q[d3]
        staged[0].setdefault(u, []).append(Fault(*enc_locs[at], pauli))
    for faults, rnd, (sel, cnots), (_, reads) in zip(
        staged[1:], (runner.round1, runner.round2), rounds, decode(meas_pos, runner.meas_layout)
    ):
        flip = "X" if rnd.round == 1 else "Z"
        for group, layer, qubit, d15 in zip(*(c.tolist() for c in (*cnots, draw15[sel]))):
            faults.setdefault(group, []).append(
                Fault(*rnd.cnot_location(layer, qubit), PAULI_2Q[d15]))
        for group, slot, qubit in zip(*(c.tolist() for c in reads)):
            faults.setdefault(group, []).append(Fault(*rnd.readout_location(slot, qubit), flip))
    return tuple({k: FaultInjection(tuple(v)) for k, v in faults.items()} for faults in staged)
