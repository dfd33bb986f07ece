"""GF(2) linear algebra on int vectors and :class:`BitMatrix` matrices.

A vector is a plain Python int, bit i being coordinate i; a matrix holds its
rows as a tuple of such ints.  XOR/AND on machine-word-backed ints is the
whole arithmetic, which is what the Monte Carlo hot loop needs.  All
values are immutable after construction and safe to share between workers.
Linear maps applied to whole arrays of packed words go through byte-indexed
lookup tables (:func:`byte_tables`, :func:`xor_lookup`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


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
    def from_strings(cls, rows: Sequence[str]) -> "BitMatrix":
        if not rows:
            raise ValueError("empty matrix needs explicit dimensions")
        cols = len(rows[0].replace(" ", ""))
        return cls(len(rows), cols, tuple(_parse_row(s, cols) for s in rows))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    def column(self, j: int) -> int:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.data):
            if (r >> j) & 1:
                bits |= 1 << i
        return bits

    def get(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

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
        return ["".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.data]


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


def mat_vec(m: BitMatrix, v: int) -> int:
    """M v^T over GF(2); bit i of the result is <row_i, v>."""
    if v < 0 or v >> m.cols:
        raise ValueError("dimension mismatch")
    bits = 0
    for i, r in enumerate(m.data):
        if (r & v).bit_count() & 1:
            bits |= 1 << i
    return bits


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
    images, counts = weight_le_images(split_words([1 << i for i in range(n)], n), w_max)
    yield from zip(join_words(images), (w for w, count in enumerate(counts) for _ in range(count)))


def weight_le_images(cols: np.ndarray, w_max: int) -> tuple[np.ndarray, list[int]]:
    """Images of every n-bit value of weight <= w_max under the GF(2)-linear
    map sending bit i to row i of the (n, words) integer array ``cols``, as
    one (count, words) array in :func:`iter_weight_le`'s order (by weight,
    then lexicographic by set bits), and the number of values of each
    weight 0..min(w_max, n).

    The values of weight w whose lowest bit is a are a joined to the last
    C(n - a - 1, w - 1) values of weight w - 1, so each (w, a) block of rows
    is one XOR of rows already written.
    """
    n = len(cols)
    counts = [math.comb(n, w) for w in range(min(w_max, n) + 1)]
    out = np.zeros((sum(counts), cols.shape[1]), dtype=cols.dtype)
    end = 1  # rows of weight below w
    for w in range(1, len(counts)):
        lo = end
        for a in range(n - w + 1):
            size = math.comb(n - a - 1, w - 1)
            np.bitwise_xor(out[end - size:end], cols[a], out=out[lo:lo + size])
            lo += size
        end = lo
    return out, counts


def split_words(values: Sequence[int], width: int) -> np.ndarray:
    """Integers of up to ``width`` bits as a (len(values), words) int64
    array of 63-bit words, word 0 lowest, so every word is non-negative."""
    count = max(1, -(-width // 63))
    if count == 1:
        return np.array(values, dtype=np.int64).reshape(len(values), 1)
    mask = (1 << 63) - 1
    rows = [[(v >> (63 * i)) & mask for i in range(count)] for v in values]
    return np.array(rows, dtype=np.int64).reshape(len(rows), count)


def bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """Integers of up to ``width`` bits as a (len(values), width) int64
    array of their bits, bit 0 first."""
    words = split_words(values, width)
    return (words[..., None] >> np.arange(63) & 1).reshape(len(values), -1)[:, :width]


def join_words(words: np.ndarray) -> list[int]:
    """The rows of a :func:`split_words` array as Python ints."""
    out = words[:, 0].tolist()
    for i in range(1, words.shape[1]):
        out = [v | hi << (63 * i) for v, hi in zip(out, words[:, i].tolist())]
    return out


# Widest key that :func:`first_rows` scatters over a table of every key.
_DENSE_KEY_BITS = 16


def first_rows(keys: np.ndarray, bits: int) -> np.ndarray:
    """Index of each distinct key's first row, in key order, as
    ``np.unique(keys, return_index=True)[1]`` gives it.  Keys of up to
    ``_DENSE_KEY_BITS`` bits scatter their row indices over a table of
    every key, which needs no sort; wider ones go through ``np.unique``."""
    if bits > _DENSE_KEY_BITS:
        return np.unique(keys, return_index=True)[1]
    first = np.full(1 << bits, len(keys), dtype=np.intp)
    np.minimum.at(first, keys, np.arange(len(keys)))
    return first[first < len(keys)]


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
    """Elementwise image of a numpy integer array ``words`` under a
    :func:`byte_tables` map, one byte of each word per table."""
    # take, not fancy indexing: it gathers by a narrow index several
    # times faster.
    out = tables[0].take(words & 0xFF)
    for k in range(1, len(tables)):
        out ^= tables[k].take((words >> (8 * k)) & 0xFF)
    return out


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
    return BitMatrix(rows, cols, tuple(_parse_row(ln, cols) for ln in lines[1:]))


def _parse_row(text: str, cols: int) -> int:
    """One matrix row: ``cols`` characters in {0,1}, column 0 first, single
    spaces between characters allowed."""
    compact = text.replace(" ", "")
    if len(compact) != cols or set(compact) - {"0", "1"}:
        raise ValueError(f"bad row: {text!r}")
    return sum(1 << j for j, c in enumerate(compact) if c == "1")


def format_matrix(m: BitMatrix) -> str:
    return "\n".join([f"{m.rows} {m.cols}"] + m.to_strings()) + "\n"
