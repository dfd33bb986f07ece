"""Bit-packed GF(2) vectors, matrices and the linear algebra built on them.

Vectors are stored as Python integers (bit i of ``bits`` is coordinate i),
matrices as a tuple of row integers.  XOR/AND on machine-word-backed ints is
the whole arithmetic, which is what the Monte Carlo hot loop needs.  All
values are immutable after construction and safe to share between workers.
Linear maps applied to whole arrays of packed words go through byte-indexed
lookup tables (:func:`byte_tables`, :func:`xor_lookup`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class BitVec:
    """A length-``n`` binary vector packed into a single int.

    Bits above position ``n - 1`` are always zero.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative length")
        if self.bits >> self.n:
            raise ValueError("bits set beyond vector length")

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def unit(cls, n: int, i: int) -> "BitVec":
        return cls(n, 1 << i)

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVec":
        bits = 0
        n = 0
        for v in values:
            if v & 1:
                bits |= 1 << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        return cls.from_bits(int(c) for c in s.replace(" ", ""))

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def dot(self, other: "BitVec") -> int:
        """Inner product mod 2."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return (self.bits & other.bits).bit_count() & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return BitVec(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return BitVec(self.n, self.bits & other.bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def to01(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    def __iter__(self) -> Iterator[int]:
        return (((self.bits >> i) & 1) for i in range(self.n))


@dataclass(frozen=True)
class BitMatrix:
    """A dense binary matrix; every row is an int of ``cols`` significant bits."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.data:
            if r >> self.cols:
                raise ValueError("row wider than cols")

    @classmethod
    def from_rows(cls, rows: Sequence[int | BitVec], cols: int | None = None) -> "BitMatrix":
        ints = []
        for r in rows:
            if isinstance(r, BitVec):
                if cols is None:
                    cols = r.n
                elif cols != r.n:
                    raise ValueError("row length mismatch")
                ints.append(r.bits)
            else:
                ints.append(int(r))
        if cols is None:
            raise ValueError("cols required for integer rows")
        return cls(len(ints), cols, tuple(ints))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        vecs = [BitVec.from_string(s) for s in rows]
        if not vecs:
            raise ValueError("empty matrix needs explicit dimensions")
        return cls.from_rows(vecs)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.data[i])

    def column(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.data):
            if (r >> j) & 1:
                bits |= 1 << i
        return BitVec(self.rows, bits)

    def get(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, tuple(self.column(j).bits for j in range(self.cols)))

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return BitMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    def permute_columns(self, perm: Sequence[int]) -> "BitMatrix":
        """Column j of the result is column perm[j] of self."""
        if sorted(perm) != list(range(self.cols)):
            raise ValueError("not a permutation")
        new_rows = []
        for r in self.data:
            nr = 0
            for j, pj in enumerate(perm):
                if (r >> pj) & 1:
                    nr |= 1 << j
            new_rows.append(nr)
        return BitMatrix(self.rows, self.cols, tuple(new_rows))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)

    def to_strings(self) -> list[str]:
        return [self.row(i).to01() for i in range(self.rows)]


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...], int]:
    """Reduced row-echelon form over GF(2).

    Returns ``(R, pivots, rank)`` with pivot column indices strictly
    increasing.  Pivot choice is the lowest remaining row with a 1 in the
    current column.
    """
    rows = list(m.data)
    pivots = []
    r = 0
    for c in range(m.cols):
        if r >= m.rows:
            break
        sel = -1
        for i in range(r, m.rows):
            if (rows[i] >> c) & 1:
                sel = i
                break
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(m.rows):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
    return BitMatrix(m.rows, m.cols, tuple(rows)), tuple(pivots), len(pivots)


def rank(m: BitMatrix) -> int:
    return rref(m)[2]


def systematic_form(h: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Bring a full-row-rank parity check to the form ``[I_r | A]``.

    Returns ``(A, col_perm)`` such that permuting H's columns by ``col_perm``
    (column j of the permuted matrix is column ``col_perm[j]`` of H) and row
    reducing yields ``[I_r | A]``.  ``col_perm`` is the identity whenever the
    first r columns already carry the pivots.
    """
    red, pivots, rnk = rref(h)
    if rnk < h.rows:
        raise ValueError("not full rank")
    free = [c for c in range(h.cols) if c not in set(pivots)]
    perm = tuple(pivots) + tuple(free)
    if perm != tuple(range(h.cols)):
        red, pivots2, _ = rref(h.permute_columns(perm))
        assert pivots2 == tuple(range(h.rows))
    a_cols = range(h.rows, h.cols)
    a_rows = []
    for r in red.data:
        bits = 0
        for jo, c in enumerate(a_cols):
            if (r >> c) & 1:
                bits |= 1 << jo
        a_rows.append(bits)
    return BitMatrix(h.rows, h.cols - h.rows, tuple(a_rows)), perm


def mat_vec(m: BitMatrix, v: BitVec) -> BitVec:
    """M v^T over GF(2); bit i of the result is <row_i, v>."""
    if m.cols != v.n:
        raise ValueError("dimension mismatch")
    bits = 0
    for i, r in enumerate(m.data):
        if (r & v.bits).bit_count() & 1:
            bits |= 1 << i
    return BitVec(m.rows, bits)


def mat_mul_t(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """A B^T over GF(2): entry (i, j) is <a_i, b_j>."""
    if a.cols != b.cols:
        raise ValueError("dimension mismatch")
    out = []
    for ra in a.data:
        bits = 0
        for j, rb in enumerate(b.data):
            if (ra & rb).bit_count() & 1:
                bits |= 1 << j
        out.append(bits)
    return BitMatrix(a.rows, b.rows, tuple(out))


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Ordinary product A B over GF(2)."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    return mat_mul_t(a, b.transpose())


def null_space_basis(m: BitMatrix) -> BitMatrix:
    """Rows form a basis of the right null space {v : M v^T = 0}."""
    red, pivots, rnk = rref(m)
    piv_set = set(pivots)
    free = [c for c in range(m.cols) if c not in piv_set]
    basis = []
    for c in free:
        v = 1 << c
        for r_idx, p in enumerate(pivots):
            if (red.data[r_idx] >> c) & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(len(basis), m.cols, tuple(basis))


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse of a nonsingular square matrix over GF(2)."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    aug = [m.data[i] | (1 << (n + i)) for i in range(n)]
    r = 0
    for c in range(n):
        sel = -1
        for i in range(r, n):
            if (aug[i] >> c) & 1:
                sel = i
                break
        if sel < 0:
            raise ValueError("singular matrix")
        aug[r], aug[sel] = aug[sel], aug[r]
        for i in range(n):
            if i != r and (aug[i] >> c) & 1:
                aug[i] ^= aug[r]
        r += 1
    return BitMatrix(n, n, tuple(row >> n for row in aug))


def row_space_equal(a: BitMatrix, b: BitMatrix) -> bool:
    """Equality of row spaces, checked by mutual row reduction."""
    if a.cols != b.cols:
        return False
    ra = rank(a)
    if ra != rank(b):
        return False
    return rank(a.vstack(b)) == ra


def iter_weight_le(n: int, w_max: int) -> Iterator[tuple[int, int]]:
    """Yield (bits, weight) for every n-bit value of weight <= w_max, by
    weight, then in the lexicographic order of the set bits."""
    for images, w in iter_weight_le_images(split_words([1 << i for i in range(n)], n), w_max):
        for bits in join_words(images):
            yield bits, w


def iter_weight_le_images(cols: np.ndarray, w_max: int) -> Iterator[tuple[np.ndarray, int]]:
    """Images of every n-bit value of weight <= w_max under the GF(2)-linear
    map sending bit i to row i of the (n, words) integer array ``cols``, in
    :func:`iter_weight_le`'s order (by weight, then lexicographic by set
    bits), as ``(images, weight)`` chunks of (count, words) arrays.

    The values of weight w whose lowest bit is a are a joined to the last
    C(n - a - 1, w - 1) values of weight w - 1, so each (w, a) chunk is one
    XOR of a slice of the weight below, at most C(n - 1, w - 1) rows.
    """
    n = len(cols)
    top = min(w_max, n)
    prev = np.zeros((1, cols.shape[1]), dtype=cols.dtype)
    yield prev, 0
    for w in range(1, top + 1):
        chunks = []
        for a in range(n - w + 1):
            chunks.append(prev[len(prev) - math.comb(n - a - 1, w - 1):] ^ cols[a])
            yield chunks[-1], w
        prev = np.concatenate(chunks) if w < top else None


def split_words(values: Sequence[int], width: int) -> np.ndarray:
    """Integers of up to ``width`` bits as a (len(values), words) int64
    array of 63-bit words, word 0 lowest, so every word is non-negative."""
    count = max(1, -(-width // 63))
    mask = (1 << 63) - 1
    rows = [[(v >> (63 * i)) & mask for i in range(count)] for v in values]
    return np.array(rows, dtype=np.int64).reshape(len(rows), count)


def join_words(words: np.ndarray) -> list[int]:
    """The rows of a :func:`split_words` array as Python ints."""
    out = words[:, 0].tolist()
    for i in range(1, words.shape[1]):
        out = [v | hi << (63 * i) for v, hi in zip(out, words[:, i].tolist())]
    return out


def row_keys(words: np.ndarray) -> np.ndarray:
    """(count, words) rows as one sortable key per row; keys of several
    words sort as records, word 0 first."""
    if words.shape[1] == 1:
        return words[:, 0]
    record = np.dtype([(f"w{i}", np.int64) for i in range(words.shape[1])])
    return np.ascontiguousarray(words).view(record)[:, 0]


def iter_row_space(m: BitMatrix) -> Iterator[int]:
    """All 2^rank elements of the row space, by Gray-code enumeration."""
    red, _, rnk = rref(m)
    basis = [red.data[i] for i in range(rnk)]
    cur = 0
    yield 0
    for g in range(1, 1 << rnk):
        cur ^= basis[(g & -g).bit_length() - 1]
        yield cur


def byte_tables(cols: Sequence[int]) -> np.ndarray:
    """Lookup tables of the GF(2)-linear map sending bit i to ``cols[i]``.

    Row k holds the image of every value of input byte k, so the image of a
    packed word is the XOR of one entry per byte (:func:`xor_lookup`).
    Images must fit an int64; the tables are int32 when every image fits
    one.
    """
    wide = any(c >> 31 for c in cols)
    tables = np.zeros((max(1, -(-len(cols) // 8)), 256), dtype=np.int64 if wide else np.int32)
    for i in range(8 * len(tables)):
        k, bit = divmod(i, 8)
        # Values with this bit set: the values below it, plus its image.
        tables[k, 1 << bit: 2 << bit] = tables[k, : 1 << bit] ^ (cols[i] if i < len(cols) else 0)
    return tables


def xor_lookup(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Elementwise image of integer ``words`` under a :func:`byte_tables` map.

    ``words`` may also be an object array of Python ints (see
    :func:`word_array`).
    """
    wide = words.dtype == object

    def octet(k: int) -> np.ndarray:
        byte = (words >> (8 * k)) & 0xFF if k else words & 0xFF
        return byte.astype(np.intp) if wide else byte

    # take, not fancy indexing: it gathers by a narrow index several
    # times faster.
    out = tables[0].take(octet(0))
    for k in range(1, len(tables)):
        out ^= tables[k].take(octet(k))
    return out


def word_array(rows) -> np.ndarray:
    """Packed words as an int64 array, or as an object array of Python ints
    when some word needs more than 63 bits."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def nonzero_rows(words: np.ndarray) -> np.ndarray:
    """Indices of the rows of 2-D ``words`` with a bit set, by an OR over
    the columns: numpy reduces along a short last axis several times
    slower."""
    acc = words[:, 0].copy()
    for k in range(1, words.shape[1]):
        acc |= words[:, k]
    return np.flatnonzero(acc)


def parse_matrix(text: str) -> BitMatrix:
    """Parse the shared matrix text format.

    First line ``rows cols``; then ``rows`` lines of ``cols`` characters in
    {0,1}, single spaces between characters allowed.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'rows cols'")
    rows, cols = int(head[0]), int(head[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, got {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        compact = ln.replace(" ", "")
        if len(compact) != cols or set(compact) - {"0", "1"}:
            raise ValueError(f"bad row: {ln!r}")
        data.append(BitVec.from_string(compact).bits)
    return BitMatrix(rows, cols, tuple(data))


def format_matrix(m: BitMatrix) -> str:
    return "\n".join([f"{m.rows} {m.cols}"] + m.to_strings()) + "\n"
