"""CSS codes, stabilizer-state ancilla specifications and residual weights.

A CSS code is built from two classical codes with commuting checks.  An
ancilla specification describes a target stabilizer state over one or two
code blocks: the full stabilizer set split into the two distillation
rounds, plus the Pauli correctors used by the logical-eigenvalue rules.
Residual error weights are measured up to degeneracy: the weight of an
error is the minimum weight over its equivalence class, identified by the
generalized syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .codes import LinearCode
from .gf2 import BitMatrix


@dataclass(frozen=True)
class CssCode:
    """An [[n, k]] CSS code with explicit logical operator representatives.

    ``d_mat`` rows are binary representatives of the logical X operators
    (coset representatives of C_Z modulo the row space of H_X); ``l_z`` rows
    represent the logical Z operators, chosen so that l_z . d_mat^T = I.
    ``hp_z``/``hp_x`` stack the stabilizer checks over the logical rows.
    """

    n: int
    k: int
    code_x: LinearCode
    code_z: LinearCode
    h_x: BitMatrix
    h_z: BitMatrix
    d_mat: BitMatrix
    l_z: BitMatrix
    hp_z: BitMatrix
    hp_x: BitMatrix

    @property
    def r_x(self) -> int:
        return self.h_x.rows

    @property
    def r_z(self) -> int:
        return self.h_z.rows


def build_css(code_x: LinearCode, code_z: LinearCode) -> CssCode:
    """Form a CSS code from classical codes with H_X H_Z^T = 0."""
    if code_x.n != code_z.n:
        raise ValueError("CSS condition violated: different lengths")
    if not gf2.mat_mul_t(code_x.h, code_z.h).is_zero():
        raise ValueError("CSS condition violated: H_X H_Z^T != 0")
    n = code_x.n
    k = code_x.k + code_z.k - n
    if k < 0:
        raise ValueError("negative logical count")
    h_x, h_z = code_x.h, code_z.h

    # Extend rowspace(H_X) to rowspace(G_Z); rows of G_Z that raise the rank
    # represent the logical X operators.  Each is fully reduced against the
    # echelon form of H_X, which makes the representative of every coset
    # canonical (for the Golay code this yields the standard weight-7 vector).
    red_x, piv_x, _ = gf2.rref(h_x)

    def reduce_mod_hx(row: int) -> int:
        v = row
        for r_idx, p in enumerate(piv_x):
            if (v >> p) & 1:
                v ^= red_x.data[r_idx]
        return v

    # The pivots of the rref of [H_X; G_Z]^T past H_X's rows are the G_Z
    # rows outside the span of the rows above them.
    _, pivots, _ = gf2.rref(h_x.vstack(code_z.g).transpose())
    d_rows = [reduce_mod_hx(code_z.g.data[p - h_x.rows]) for p in pivots if p >= h_x.rows]
    if len(d_rows) != k:
        raise ValueError("logical extraction failed")
    d_mat = BitMatrix(k, n, tuple(d_rows))

    ddt = gf2.mat_mul_t(d_mat, d_mat)
    try:
        ddt_inv = gf2.invert(ddt)
    except ValueError:
        raise ValueError(
            "DD^T singular: cannot form logical Z representatives for this code"
        ) from None
    l_z = gf2.mat_mul(ddt_inv, d_mat)

    assert gf2.mat_mul_t(l_z, d_mat) == BitMatrix.identity(k)
    assert gf2.mat_mul_t(h_z, d_mat).is_zero()
    assert gf2.mat_mul_t(h_x, l_z).is_zero()

    hp_z = h_z.vstack(l_z)
    hp_x = h_x.vstack(d_mat)
    return CssCode(
        n=n, k=k, code_x=code_x, code_z=code_z,
        h_x=h_x, h_z=h_z, d_mat=d_mat, l_z=l_z, hp_z=hp_z, hp_x=hp_x,
    )


@dataclass(frozen=True)
class PauliElement:
    """Binary representation of a Pauli over m code blocks: per-block X and
    Z part bitmasks."""

    x: tuple[int, ...]
    z: tuple[int, ...]

    def commutes(self, other: "PauliElement") -> bool:
        acc = 0
        for xa, za, xb, zb in zip(self.x, self.z, other.x, other.z):
            acc ^= (xa & zb).bit_count() ^ (za & xb).bit_count()
        return acc % 2 == 0

    def syndrome_bit(self, e: tuple[int, ...], f: tuple[int, ...]) -> int:
        """1 iff this element anticommutes with the frame error X^e Z^f."""
        acc = 0
        for xa, za, eb, fb in zip(self.x, self.z, e, f):
            acc ^= (xa & fb).bit_count() ^ (za & eb).bit_count()
        return acc & 1

    def xor(self, other: "PauliElement") -> "PauliElement":
        return PauliElement(
            tuple(a ^ b for a, b in zip(self.x, other.x)),
            tuple(a ^ b for a, b in zip(self.z, other.z)),
        )


def _z_elem(m: int, b: int, bits: int) -> PauliElement:
    return PauliElement(tuple(0 for _ in range(m)), tuple(bits if i == b else 0 for i in range(m)))


def _x_elem(m: int, b: int, bits: int) -> PauliElement:
    return PauliElement(tuple(bits if i == b else 0 for i in range(m)), tuple(0 for _ in range(m)))


@dataclass(frozen=True)
class AncillaSpec:
    """Target stabilizer state over ``m`` blocks, partitioned for the two
    distillation rounds.

    ``s1``/``s2`` each hold, per block in block order, that block's
    generator elements for the round, followed by the round's logical
    elements.  Round 1 measures Z on every block and corrects X errors, so
    its elements are pure Z; round 2 measures X, corrects Z errors, and its
    elements are pure X.  ``correctors1[i]`` anticommutes with logical
    ``s1[gen_count + i]`` and commutes with everything else in s1, and is
    of the error type the round corrects.
    """

    blocks: tuple[CssCode, ...]
    kind: str
    s1: tuple[PauliElement, ...]
    s2: tuple[PauliElement, ...]
    gen_counts1: tuple[int, ...]
    gen_counts2: tuple[int, ...]
    correctors1: tuple[PauliElement, ...]
    correctors2: tuple[PauliElement, ...]

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(c.n for c in self.blocks)

    @property
    def total_qubits(self) -> int:
        return sum(self.block_sizes)

    def logicals(self, round_: int) -> tuple[PauliElement, ...]:
        s, counts = (self.s1, self.gen_counts1) if round_ == 1 else (self.s2, self.gen_counts2)
        return s[sum(counts):]

    def all_elements(self) -> tuple[PauliElement, ...]:
        return self.s1 + self.s2

    def weight_table(self, w_cap: int = 4) -> "WeightTable":
        return WeightTable(self, w_cap)


def _round_sets_for_kind(css_blocks, kind, i, j, basis):
    """Per round: (generators, gen_counts, logicals, correctors).

    A corrector is the logical partner multiplied into the error estimate by
    the eigenvalue rules: the anticommuting counterpart of the round logical,
    restricted to the error type the round corrects."""
    m = len(css_blocks)

    def zrows(b):
        return [_z_elem(m, b, r) for r in css_blocks[b].h_z.data]

    def xrows(b):
        return [_x_elem(m, b, r) for r in css_blocks[b].h_x.data]

    def zbar(b, idx):
        return _z_elem(m, b, css_blocks[b].l_z.data[idx])

    def xbar(b, idx):
        return _x_elem(m, b, css_blocks[b].d_mat.data[idx])

    if kind != "bell":
        # One block: round 1 fixes some logicals in Z, round 2 the rest in
        # X.  |0>_L fixes all in Z, |+>_L none; the mixed state fixes the
        # others in ``basis`` and logical j in the opposite one.
        k = css_blocks[0].k
        if kind == "mixed" and basis not in ("Z", "X"):
            raise ValueError("mixed basis must be 'Z' or 'X'")
        if kind == "mixed" and not 0 <= j < k:
            raise ValueError(f"mixed logical j must be in 0..{k - 1}, got {j}")
        in_z = [u for u in range(k)
                if kind == "zero" or (kind == "mixed" and (u == j) == (basis == "X"))]
        in_x = [u for u in range(k) if u not in in_z]
        return (
            (zrows(0), (css_blocks[0].r_z,), [zbar(0, u) for u in in_z], [xbar(0, u) for u in in_z]),
            (xrows(0), (css_blocks[0].r_x,), [xbar(0, u) for u in in_x], [zbar(0, u) for u in in_x]),
        )
    # bell
    ka, kb = css_blocks[0].k, css_blocks[1].k
    for name, u, k in (("i", i, ka), ("j", j, kb)):
        if not 0 <= u < k:
            raise ValueError(f"bell logical {name} must be in 0..{k - 1}, got {u}")
    log1 = [zbar(0, u) for u in range(ka) if u != i]
    cor1 = [xbar(0, u) for u in range(ka) if u != i]
    log1 += [zbar(1, v) for v in range(kb) if v != j]
    cor1 += [xbar(1, v) for v in range(kb) if v != j]
    log1.append(zbar(0, i).xor(zbar(1, j)))
    cor1.append(xbar(0, i))
    log2 = [xbar(0, i).xor(xbar(1, j))]
    cor2 = [zbar(0, i)]
    return (
        (zrows(0) + zrows(1), (css_blocks[0].r_z, css_blocks[1].r_z), log1, cor1),
        (xrows(0) + xrows(1), (css_blocks[0].r_x, css_blocks[1].r_x), log2, cor2),
    )


def build_ancilla_spec(
    blocks: CssCode | list[CssCode] | tuple[CssCode, ...],
    kind: str,
    i: int = 0,
    j: int = 0,
    basis: str = "Z",
) -> AncillaSpec:
    """Build the stabilizer description of one of the ancilla-state kinds.

    kinds: ``zero``, ``plus``, ``mixed`` (logical j in the opposite basis)
    and ``bell`` (logical i of block a with logical j of block b).
    """
    if isinstance(blocks, CssCode):
        blocks = (blocks,)
    blocks = tuple(blocks)
    expected_m = {"zero": 1, "plus": 1, "mixed": 1, "bell": 2}.get(kind)
    if expected_m is None:
        raise ValueError(f"unknown ancilla kind {kind!r}")
    if len(blocks) != expected_m:
        raise ValueError(f"kind {kind!r} needs {expected_m} block(s), got {len(blocks)}")

    (g1, counts1, log1, cor1), (g2, counts2, log2, cor2) = _round_sets_for_kind(
        blocks, kind, i, j, basis
    )
    spec = AncillaSpec(
        blocks=blocks,
        kind=kind,
        s1=tuple(g1) + tuple(log1),
        s2=tuple(g2) + tuple(log2),
        gen_counts1=counts1,
        gen_counts2=counts2,
        correctors1=tuple(cor1),
        correctors2=tuple(cor2),
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: AncillaSpec) -> None:
    """The checks every spec passes, among them the protocol's rule: round 1
    measures Z (pure-Z elements) and corrects X errors (pure-X correctors),
    round 2 measures X and corrects Z errors."""
    elems = spec.all_elements()
    if len(elems) != spec.total_qubits:
        raise ValueError("stabilizer count must equal total qubit count")
    # Entry (a, b) of x z^T counts the qubits where a's X part meets b's Z
    # part; a and b commute iff that count plus (b, a)'s is even.
    x, z = (np.hstack([gf2.bit_rows([getattr(el, part)[b] for el in elems], n)
                       for b, n in enumerate(spec.block_sizes)]) for part in ("x", "z"))
    overlaps = x @ z.T
    if ((overlaps ^ overlaps.T) & 1).any():
        raise ValueError("stabilizer elements must commute")
    for round_, s, correctors in ((1, spec.s1, spec.correctors1), (2, spec.s2, spec.correctors2)):
        logicals = spec.logicals(round_)
        if len(correctors) != len(logicals):
            raise ValueError("one corrector per round logical required")
        gens = len(s) - len(logicals)
        for t, cor in enumerate(correctors):
            for idx, el in enumerate(s):
                if cor.commutes(el) == (idx == gens + t):
                    raise ValueError("corrector breaks the eigenvalue-rule contract")
        measured, corrected = ("z", "x") if round_ == 1 else ("x", "z")
        if any(any(getattr(el, corrected)) for el in s):
            raise ValueError(f"round-{round_} elements must be pure {measured.upper()}")
        if any(any(getattr(cor, measured)) for cor in correctors):
            raise ValueError(f"round-{round_} correctors must be pure {corrected.upper()}")


def generalized_syndrome(spec: AncillaSpec, e: tuple[int, ...], f: tuple[int, ...]) -> int:
    """Eigenvalue-flip pattern of all spec stabilizers under X^e Z^f.

    ``e``/``f`` are per-block bitmasks (a Pauli frame snapshot)."""
    if len(e) != spec.m or len(f) != spec.m:
        raise ValueError("frame shape mismatch")
    for b, n in enumerate(spec.block_sizes):
        if (e[b] >> n) or (f[b] >> n):
            raise ValueError("frame shape mismatch")
    bits = 0
    for idx, el in enumerate(spec.all_elements()):
        if el.syndrome_bit(e, f):
            bits |= 1 << idx
    return bits


class WeightTable:
    """Minimum equivalent Pauli weights keyed by generalized syndrome,
    factored by block.

    Two sides are kept: X-side syndromes (bits of every spec element's Z
    part against an X error pattern) and Z-side syndromes.  On a side, the
    local syndrome of block b has one bit per element whose part on that
    side touches b, read from b's word alone.  Per block, a table gives
    the least weight of a block error of weight <= ``w_cap`` with each
    local syndrome, or ``w_cap + 1`` if there is none.  An element with
    parts on both blocks of a two-block state fixes only the XOR of its two
    local bits, so an equivalent error may flip that bit on both blocks;
    the weight of a frame is the least, over those flips, of its block
    weights' sum, which is the true minimum weight of its class whenever
    that is <= ``w_cap``.  A local syndrome is one int64 key word, as every
    spec of at most 63 qubits gives: of up to ``_DENSE_BITS`` bits it
    indexes a dense int8 table, wider ones are searched in the sorted
    syndromes of the block's errors.
    """

    _DENSE_BITS = 20

    def __init__(self, spec: AncillaSpec, w_cap: int = 4):
        self.spec = spec
        self.w_cap = w_cap
        self._x = self._build(spec, "z", w_cap)  # Z parts detect X errors
        self._z = self._build(spec, "x", w_cap)

    @classmethod
    def _build(cls, spec: AncillaSpec, part: str, w_cap: int):
        """Per block, the byte tables of its local syndrome and its weight
        lookup; then every combination of cross-block element flips, as
        per-block words to XOR into the local syndromes."""
        cols = [[0] * n for n in spec.block_sizes]
        bits = [0] * spec.m
        flips = [(0,) * spec.m]
        for el in spec.all_elements():
            parts = el.z if part == "z" else el.x
            touched = [b for b in range(spec.m) if parts[b]]
            for b in touched:
                p = parts[b]
                while p:
                    q = (p & -p).bit_length() - 1
                    cols[b][q] |= 1 << bits[b]
                    p &= p - 1
                bits[b] += 1
            if len(touched) > 1:
                flip = [1 << (bits[b] - 1) if b in touched else 0 for b in range(spec.m)]
                flips += [tuple(v ^ f for v, f in zip(fl, flip)) for fl in flips]
        tables = [gf2.byte_tables(block) for block in cols]
        lookups = [cls._block_lookup(np.array(block, dtype=np.int64)[:, None], width, w_cap)
                   for block, width in zip(cols, bits)]
        return tables, lookups, flips

    @classmethod
    def _block_lookup(cls, block: np.ndarray, bits: int, w_cap: int):
        """The minimum weight of every local syndrome reached by a block
        error of weight <= w_cap: a dense table over all syndromes, or the
        sorted syndromes and their weights."""
        images, counts = gf2.weight_le_images(block, w_cap)
        weights = np.repeat(np.arange(len(counts), dtype=np.int8), counts)
        syn = images[:, 0]
        first = gf2.first_rows(syn, bits)
        keys, values = syn[first], weights[first]
        if bits > cls._DENSE_BITS:
            return keys, values
        dense = np.full(1 << bits, w_cap + 1, dtype=np.int8)
        dense[keys] = values
        return dense

    def weights(self, side: str, frames: np.ndarray) -> np.ndarray:
        """Minimum weights of the X errors (side ``"x"``, e frames) or Z
        errors (side ``"z"``, f frames) in the rows of an (count, m) integer
        array of per-block words; -1 where the class is beyond the table."""
        tables, lookups, flips = self._x if side == "x" else self._z
        local = [gf2.xor_lookup(tab, frames[:, b]) for b, tab in enumerate(tables)]
        best = None
        for flip in flips:
            # int8 sums: each term is at most w_cap + 1.
            total = sum(self._block_weights(lookup, syn ^ f if f else syn)
                        for syn, lookup, f in zip(local, lookups, flip))
            best = total if best is None else np.minimum(best, total)
        return np.where(best > self.w_cap, -1, best)

    def _block_weights(self, lookup, syn: np.ndarray) -> np.ndarray:
        if isinstance(lookup, np.ndarray):
            return lookup.take(syn)
        keys, values = lookup
        idx = np.minimum(np.searchsorted(keys, syn), len(keys) - 1)
        return np.where(keys[idx] == syn, values[idx], self.w_cap + 1)

    def _weight(self, side: str, frame: tuple[int, ...]) -> int | None:
        w = int(self.weights(side, np.array([frame], dtype=np.int64))[0])
        return None if w < 0 else w

    def x_weight(self, e: tuple[int, ...]) -> int | None:
        return self._weight("x", e)

    def z_weight(self, f: tuple[int, ...]) -> int | None:
        return self._weight("z", f)


def residual_weight(
    spec: AncillaSpec, e: tuple[int, ...], f: tuple[int, ...], w_cap: int = 4
) -> tuple[int | None, int | None]:
    """Degeneracy-aware residual weights (wX, wZ) of a frame error.

    Each side is the minimum weight of any same-type Pauli whose syndrome
    against the state's full stabilizer set matches; ``None`` means the
    class has no representative of weight <= w_cap.
    """
    tab = spec.weight_table(w_cap)
    return tab.x_weight(e), tab.z_weight(f)
