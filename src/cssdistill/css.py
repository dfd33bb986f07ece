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

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .codes import LinearCode
from .gf2 import BitMatrix, BitVec


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

    echelon: dict[int, int] = {}
    d_rows = []
    for g_row in code_z.g.data:
        v0 = reduce_mod_hx(g_row)
        v = v0
        while v:
            p = v.bit_length() - 1
            if p in echelon:
                v ^= echelon[p]
            else:
                echelon[p] = v
                d_rows.append(v0)
                break
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


def extended_checks(css: CssCode) -> tuple[BitMatrix, BitMatrix]:
    """(H'_Z, H'_X): stabilizer check rows first, logical rows after."""
    return css.hp_z, css.hp_x


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

    def weight(self) -> int:
        return sum((xa | za).bit_count() for xa, za in zip(self.x, self.z))

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


def _z_elem(m: int, b: int, bits: int, n_blocks: tuple[int, ...]) -> PauliElement:
    return PauliElement(tuple(0 for _ in range(m)), tuple(bits if i == b else 0 for i in range(m)))


def _x_elem(m: int, b: int, bits: int, n_blocks: tuple[int, ...]) -> PauliElement:
    return PauliElement(tuple(bits if i == b else 0 for i in range(m)), tuple(0 for _ in range(m)))


@dataclass(frozen=True)
class AncillaSpec:
    """Target stabilizer state over ``m`` blocks, partitioned for the two
    distillation rounds.

    ``s1``/``s2`` each hold, per block in block order, that block's
    generator elements for the round, followed by the round's logical
    elements.  ``bases1[b]`` is the measurement basis of block ``b`` in
    round 1 ('Z' removes X errors).  ``correctors1[i]`` anticommutes with
    logical ``s1[gen_count + i]`` and commutes with everything else in s1,
    restricted to the error type the round corrects.
    """

    blocks: tuple[CssCode, ...]
    kind: str
    params: tuple[tuple[str, int | str], ...]
    s1: tuple[PauliElement, ...]
    s2: tuple[PauliElement, ...]
    bases1: tuple[str, ...]
    bases2: tuple[str, ...]
    gen_counts1: tuple[int, ...]
    gen_counts2: tuple[int, ...]
    correctors1: tuple[PauliElement, ...]
    correctors2: tuple[PauliElement, ...]
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

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
        tab = self._tables.get(w_cap)
        if tab is None:
            tab = WeightTable(self, w_cap)
            self._tables[w_cap] = tab
        return tab

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_tables"] = {}  # weight tables rebuild cheaply; keep pickles small
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def _round_sets_for_kind(css_blocks, kind, i, j, basis):
    """Per round: (generators, gen_counts, bases, logicals, correctors).

    A corrector is the logical partner multiplied into the error estimate by
    the eigenvalue rules: the anticommuting counterpart of the round logical,
    restricted to the error type the round corrects."""
    m = len(css_blocks)
    sizes = tuple(c.n for c in css_blocks)

    def zrows(b):
        return [_z_elem(m, b, r, sizes) for r in css_blocks[b].h_z.data]

    def xrows(b):
        return [_x_elem(m, b, r, sizes) for r in css_blocks[b].h_x.data]

    def zbar(b, idx):
        return _z_elem(m, b, css_blocks[b].l_z.data[idx], sizes)

    def xbar(b, idx):
        return _x_elem(m, b, css_blocks[b].d_mat.data[idx], sizes)

    if kind == "zero":
        k = css_blocks[0].k
        return (
            (zrows(0), (css_blocks[0].r_z,), ("Z",),
             [zbar(0, u) for u in range(k)], [xbar(0, u) for u in range(k)]),
            (xrows(0), (css_blocks[0].r_x,), ("X",), [], []),
        )
    if kind == "plus":
        k = css_blocks[0].k
        return (
            (zrows(0), (css_blocks[0].r_z,), ("Z",), [], []),
            (xrows(0), (css_blocks[0].r_x,), ("X",),
             [xbar(0, u) for u in range(k)], [zbar(0, u) for u in range(k)]),
        )
    if kind == "mixed":
        k = css_blocks[0].k
        if basis == "Z":
            others = [u for u in range(k) if u != j]
            log1, cor1 = [zbar(0, u) for u in others], [xbar(0, u) for u in others]
            log2, cor2 = [xbar(0, j)], [zbar(0, j)]
        elif basis == "X":
            log1, cor1 = [zbar(0, j)], [xbar(0, j)]
            others = [u for u in range(k) if u != j]
            log2, cor2 = [xbar(0, u) for u in others], [zbar(0, u) for u in others]
        else:
            raise ValueError("mixed basis must be 'Z' or 'X'")
        return (
            (zrows(0), (css_blocks[0].r_z,), ("Z",), log1, cor1),
            (xrows(0), (css_blocks[0].r_x,), ("X",), log2, cor2),
        )
    if kind == "bell":
        ka, kb = css_blocks[0].k, css_blocks[1].k
        log1 = [zbar(0, u) for u in range(ka) if u != i]
        cor1 = [xbar(0, u) for u in range(ka) if u != i]
        log1 += [zbar(1, v) for v in range(kb) if v != j]
        cor1 += [xbar(1, v) for v in range(kb) if v != j]
        log1.append(zbar(0, i).xor(zbar(1, j)))
        cor1.append(xbar(0, i))
        log2 = [xbar(0, i).xor(xbar(1, j))]
        cor2 = [zbar(0, i)]
        return (
            (zrows(0) + zrows(1), (css_blocks[0].r_z, css_blocks[1].r_z), ("Z", "Z"), log1, cor1),
            (xrows(0) + xrows(1), (css_blocks[0].r_x, css_blocks[1].r_x), ("X", "X"), log2, cor2),
        )
    if kind == "omega":
        ka, kb = css_blocks[0].k, css_blocks[1].k
        log1, cor1 = [zbar(0, i).xor(xbar(1, j))], [xbar(0, i)]
        log2 = [xbar(0, u) for u in range(ka) if u != i]
        cor2 = [zbar(0, u) for u in range(ka) if u != i]
        log2 += [zbar(1, v) for v in range(kb) if v != j]
        cor2 += [xbar(1, v) for v in range(kb) if v != j]
        log2.append(xbar(0, i).xor(zbar(1, j)))
        cor2.append(zbar(0, i))
        return (
            (zrows(0) + xrows(1), (css_blocks[0].r_z, css_blocks[1].r_x), ("Z", "X"), log1, cor1),
            (xrows(0) + zrows(1), (css_blocks[0].r_x, css_blocks[1].r_z), ("X", "Z"), log2, cor2),
        )
    raise ValueError(f"unknown ancilla kind {kind!r}")


def build_ancilla_spec(
    blocks: CssCode | list[CssCode] | tuple[CssCode, ...],
    kind: str,
    i: int = 0,
    j: int = 0,
    basis: str = "Z",
) -> AncillaSpec:
    """Build the stabilizer description of one of the ancilla-state kinds.

    kinds: ``zero``, ``plus``, ``mixed`` (logical j in the opposite basis),
    ``bell`` (logical i of block a with logical j of block b), ``omega``,
    ``theta`` (j on both blocks; built from omega by the bitwise phase map).
    """
    if isinstance(blocks, CssCode):
        blocks = (blocks,)
    blocks = tuple(blocks)
    expected_m = 2 if kind in ("bell", "omega", "theta") else 1
    if len(blocks) != expected_m:
        raise ValueError(f"kind {kind!r} needs {expected_m} block(s), got {len(blocks)}")

    if kind == "theta":
        omega = build_ancilla_spec(blocks, "omega", i=j, j=j)
        return apply_bitwise_phase(omega)

    (g1, counts1, bases1, log1, cor1), (g2, counts2, bases2, log2, cor2) = _round_sets_for_kind(
        blocks, kind, i, j, basis
    )
    spec = AncillaSpec(
        blocks=blocks,
        kind=kind,
        params=(("i", i), ("j", j), ("basis", basis)),
        s1=tuple(g1) + tuple(log1),
        s2=tuple(g2) + tuple(log2),
        bases1=bases1,
        bases2=bases2,
        gen_counts1=counts1,
        gen_counts2=counts2,
        correctors1=tuple(cor1),
        correctors2=tuple(cor2),
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: AncillaSpec, allow_mixed: bool = False) -> None:
    elems = spec.all_elements()
    if len(elems) != spec.total_qubits:
        raise ValueError("stabilizer count must equal total qubit count")
    for a, b in itertools.combinations(elems, 2):
        if not a.commutes(b):
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
    if allow_mixed:
        return
    for s, bases in ((spec.s1, spec.bases1), (spec.s2, spec.bases2)):
        for el in s:
            for b in range(spec.m):
                if bases[b] == "Z" and el.x[b]:
                    raise ValueError("round element has X part on a Z-measured block")
                if bases[b] == "X" and el.z[b]:
                    raise ValueError("round element has Z part on an X-measured block")


def check_phase_gate_compatible(css: CssCode) -> bool:
    """Whether bitwise phase gates preserve the stabilizer group.

    Requires a symmetric CSS code whose X-check row space (the classical
    dual) is doubly even, and odd-weight logical X representatives.
    """
    if not gf2.row_space_equal(css.h_x, css.h_z):
        return False
    for idx, row in enumerate(css.h_x.data):
        if row.bit_count() % 4 != 0:
            return False
        for row2 in css.h_x.data[idx + 1:]:
            if (row & row2).bit_count() % 2 != 0:
                return False
    return all(r.bit_count() % 2 == 1 for r in css.d_mat.data)


def apply_bitwise_phase(spec: AncillaSpec) -> AncillaSpec:
    """Map an omega(j, j) spec to the theta(j) spec.

    Bitwise phase gates on block b send X -> Y; pure-X checks of block b
    pick up a Z part equal to a Z-check row and are renormalized back to
    pure X, so only the crossing logicals change form.  The physical frame
    transformation itself is the phase gate rule in the circuit layer.
    """
    if spec.kind != "omega":
        raise ValueError("bitwise phase construction starts from an omega spec")
    pi = dict(spec.params)["i"]
    pj = dict(spec.params)["j"]
    if pi != pj:
        raise ValueError("theta construction needs omega(j, j)")
    if not check_phase_gate_compatible(spec.blocks[1]):
        raise ValueError("block b fails phase-gate compatibility")

    def conj(el: PauliElement) -> PauliElement:
        return PauliElement(el.x, tuple(z ^ x if b == 1 else z for b, (x, z) in enumerate(zip(el.x, el.z))))

    def fix(el: PauliElement, blocks) -> PauliElement:
        new = conj(el)
        # Renormalize: a Z part created inside the block-b check row space is
        # a stabilizer factor, drop it.
        if new.z[1] and gf2.row_space_contains(blocks[1].h_z, BitVec(blocks[1].n, new.z[1])):
            new = PauliElement(new.x, (new.z[0], 0))
        return new

    s1 = tuple(fix(el, spec.blocks) for el in spec.s1)
    s2 = tuple(fix(el, spec.blocks) for el in spec.s2)
    out = AncillaSpec(
        blocks=spec.blocks,
        kind="theta",
        params=spec.params,
        s1=s1,
        s2=s2,
        bases1=spec.bases1,
        bases2=spec.bases2,
        gen_counts1=spec.gen_counts1,
        gen_counts2=spec.gen_counts2,
        correctors1=tuple(fix(el, spec.blocks) for el in spec.correctors1),
        correctors2=tuple(fix(el, spec.blocks) for el in spec.correctors2),
    )
    _validate_spec(out, allow_mixed=True)
    return out


def generalized_syndrome(spec: AncillaSpec, e: tuple[int, ...], f: tuple[int, ...]) -> BitVec:
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
    return BitVec(spec.total_qubits, bits)


class WeightTable:
    """Minimum equivalent Pauli weights keyed by generalized syndrome.

    Two tables are kept: X-side syndromes (bits of every spec element's Z
    part against an X error pattern) and Z-side syndromes.  Each is a
    sorted array of the syndromes of every error of weight <= ``w_cap``
    with the smallest weight that reaches it, which is the true minimum
    weight of the syndrome's equivalence class.  A side's syndrome bits
    number only the elements with a nonzero part on that side and are
    packed 63 to an int64 key word; keys of more than one word sort as
    records, word 0 first.
    """

    def __init__(self, spec: AncillaSpec, w_cap: int = 4):
        self.spec = spec
        self.w_cap = w_cap
        elems = spec.all_elements()
        sizes = spec.block_sizes
        n_total = spec.total_qubits

        def col_masks(part: str) -> tuple[list[int], int]:
            masks = [0] * n_total
            bit = 0
            for el in elems:
                parts = el.z if part == "z" else el.x
                if not any(parts):
                    continue
                off = 0
                for b in range(spec.m):
                    p = parts[b]
                    while p:
                        q = (p & -p).bit_length() - 1
                        masks[off + q] |= 1 << bit
                        p &= p - 1
                    off += sizes[b]
                bit += 1
            return masks, bit

        self._x = self._build(*col_masks("z"), sizes, w_cap)  # Z parts detect X errors
        self._z = self._build(*col_masks("x"), sizes, w_cap)

    @staticmethod
    def _keys(syn: np.ndarray) -> np.ndarray:
        """(count, words) syndromes as one sortable key per row."""
        if syn.shape[1] == 1:
            return syn[:, 0]
        record = np.dtype([(f"w{i}", np.int64) for i in range(syn.shape[1])])
        return np.ascontiguousarray(syn).view(record)[:, 0]

    @classmethod
    def _build(cls, cols: list[int], bits: int, sizes: tuple[int, ...], w_cap: int):
        """Per-block, per-key-word syndrome byte tables, then the sorted
        syndromes of all errors of weight <= w_cap with their minimum
        weights."""
        words = max(1, -(-bits // 63))
        split = [[(c >> (63 * i)) & ((1 << 63) - 1) for i in range(words)] for c in cols]
        tables = []
        off = 0
        for n in sizes:
            block = split[off: off + n]
            tables.append([gf2.byte_tables([c[i] for c in block]) for i in range(words)])
            off += n
        # Weight-w errors extend weight-(w-1) ones by a qubit above their
        # highest, so every subset is enumerated once, in weight order.
        col_words = np.array(split, dtype=np.int64).reshape(len(cols), words)
        syn, top = np.zeros((1, words), dtype=np.int64), np.full(1, -1)
        syns, weights = [syn], [np.zeros(1, dtype=np.int64)]
        for w in range(1, w_cap + 1):
            grown = [syn[top < q] ^ col for q, col in enumerate(col_words)]
            top = np.repeat(np.arange(len(cols)), [len(g) for g in grown])
            syn = np.concatenate(grown)
            syns.append(syn)
            weights.append(np.full(len(syn), w, dtype=np.int64))
        keys, first = np.unique(cls._keys(np.concatenate(syns)), return_index=True)
        return tables, keys, np.concatenate(weights)[first]

    def weights(self, side: str, frames: np.ndarray) -> np.ndarray:
        """Minimum weights of the X errors (side ``"x"``, e frames) or Z
        errors (side ``"z"``, f frames) in the rows of an (count, m) array
        of per-block words (:func:`gf2.word_array`); -1 where the class is
        beyond the table."""
        tables, keys, values = self._x if side == "x" else self._z
        syn = np.zeros((len(frames), len(tables[0])), dtype=np.int64)
        for b, per_word in enumerate(tables):
            for i, tab in enumerate(per_word):
                syn[:, i] ^= gf2.xor_lookup(tab, frames[:, b])
        syn = self._keys(syn)
        idx = np.minimum(np.searchsorted(keys, syn), len(keys) - 1)
        return np.where(keys[idx] == syn, values[idx], -1)

    def _weight(self, side: str, frame: tuple[int, ...]) -> int | None:
        w = int(self.weights(side, gf2.word_array([frame]))[0])
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
