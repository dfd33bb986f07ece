"""Classical binary codes with complete coset-leader decoding.

A :class:`LinearCode` carries its parity check, generator, systematic part
and, built on first use, a minimum-weight coset leader for every syndrome,
so every syndrome decodes.  The registry holds the small codes used by the
distillation experiments, with their parity checks shipped in the package
data directory.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import gf2
from .gf2 import BitMatrix

REGISTRY_NAMES = ("rep3", "rep5", "hamming7", "bch15_7_5", "golay23", "golay23_dual")

_EXHAUSTIVE_DISTANCE_N = 24
_DISTANCE_SAMPLES = 2000
# Codeword span rows held as one array by the exhaustive distance check.
_SPAN_ROWS = 16
# Most checks and bits of a coset-leader table: its syndromes index a
# dense array, and its leaders are int64 words.
_TABLE_CHECKS = 16
_TABLE_BITS = 62


@dataclass(frozen=True)
class LinearCode:
    """An [n, k, d] binary linear code with a complete coset-leader decoder.

    ``syndrome_table`` holds a minimum-weight coset leader of every one of
    the 2^r syndromes of ``h``, and ``systematic_table`` the same for the
    row-equivalent check [I_r | A] that the distillation rounds measure;
    both are built on first use (see :func:`_leader_table`), so a code
    that only detects never builds one.  ``max_col_weight`` is the largest
    number of 1s in a column of the systematic part A, the quantity that
    bounds error amplification in a distillation round.
    """

    name: str
    n: int
    k: int
    d: int
    t: int
    h: BitMatrix
    g: BitMatrix
    a: BitMatrix
    col_perm: tuple[int, ...]
    max_col_weight: int

    @property
    def r(self) -> int:
        return self.n - self.k

    @functools.cached_property
    def syndrome_table(self) -> np.ndarray:
        return _leader_table(self.h)

    @functools.cached_property
    def systematic_table(self) -> np.ndarray:
        # Check-slot coordinates: slot i is the i-th row of [I_r | A].
        r = self.r
        h_sys = BitMatrix(r, self.n, tuple((1 << i) | (row << r) for i, row in enumerate(self.a.data)))
        return self.syndrome_table if h_sys == self.h else _leader_table(h_sys)

    def syndrome(self, v: int) -> int:
        if v < 0 or v >> self.n:
            raise ValueError("length mismatch")
        return gf2.mat_vec(self.h, v)

    def decode(self, s: int) -> int:
        """The minimum-weight coset leader of syndrome ``s``."""
        if s < 0 or s >> self.r:
            raise ValueError("length mismatch")
        return int(self.syndrome_table[s])

    def codewords(self):
        """All 2^k codewords (packed ints); only sensible for small k."""
        return gf2.iter_row_space(self.g)


def _verify_distance(h: BitMatrix, g: BitMatrix, d: int, t: int) -> None:
    """Raise ``ValueError`` when a nonzero codeword is lighter than d: all of
    them are checked up to ``_EXHAUSTIVE_DISTANCE_N`` bits, a sample past
    that, and then errors of weight <= t must have distinct syndromes."""
    if h.cols <= _EXHAUSTIVE_DISTANCE_N:
        found = _min_weight(g, d)
    else:
        rng = random.Random(0xC0DE)
        masks = (rng.getrandbits(g.rows) for _ in range(_DISTANCE_SAMPLES))
        words = (functools.reduce(operator.xor, (r for i, r in enumerate(g.data) if mask >> i & 1), 0)
                 for mask in masks)
        found = next((w.bit_count() for w in words if w and w.bit_count() < d), d)
    if found < d:
        raise ValueError(f"claimed d={d} inconsistent: codeword of weight {found} found")
    if h.cols > _EXHAUSTIVE_DISTANCE_N:
        syndromes, _ = gf2.weight_le_images(gf2.split_words(h.transpose().data, h.rows), t)
        if len(set(gf2.join_words(syndromes))) < len(syndromes):
            raise ValueError(f"claimed d={d} inconsistent: weight<={t} errors share a syndrome")


def _min_weight(g: BitMatrix, d: int) -> int:
    """The least weight of a nonzero codeword of g's row space, or d if none
    is lighter.  The span of the first ``_SPAN_ROWS`` rows of the rref is
    one int64 array, doubled by XOR with each row; each element of the
    span of the others shifts it, and a byte table counts the bits."""
    red, _, rnk = gf2.rref(g)
    basis = red.data[:rnk]
    span = np.zeros(1, dtype=np.int64)
    for row in basis[:_SPAN_ROWS]:
        span = np.concatenate([span, span ^ row])
    shifts = [0]
    for row in basis[_SPAN_ROWS:]:
        shifts += [s ^ row for s in shifts]
    counts = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.int64)
    best = d
    for shift in shifts:
        words = span ^ shift
        weights = counts.take(words & 0xFF)
        for k in range(1, -(-g.cols // 8)):
            weights += counts.take((words >> (8 * k)) & 0xFF)
        best = int(weights[weights > 0].min(initial=best))
    return best


def _leader_table(h: BitMatrix) -> np.ndarray:
    """A minimum-weight coset leader of every syndrome of a full-row-rank
    ``h``, as an int64 array over all 2^r syndromes.

    Breadth first over syndromes: one first reached at weight w takes
    leader(s ^ h_j) | 1 << j, j being the lowest column whose s ^ h_j was
    first reached at weight w - 1.  That is the syndrome's first error in
    :func:`gf2.iter_weight_le`'s order (by weight, then lexicographic).
    """
    r, n = h.rows, h.cols
    if r > _TABLE_CHECKS or n > _TABLE_BITS:
        raise ValueError(f"a coset-leader table takes at most r={_TABLE_CHECKS} checks and "
                         f"n={_TABLE_BITS} bits; this code has r={r}, n={n}")
    cols = np.array(h.transpose().data, dtype=np.int64)[:, None]
    table = np.full(1 << r, -1, dtype=np.int64)
    table[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        # Rows by column, then by frontier syndrome: a syndrome's first row
        # holds its lowest column.
        reach = (cols ^ frontier).reshape(-1)
        rows = np.flatnonzero(table.take(reach) < 0)
        rows = rows[gf2.first_rows(reach.take(rows), r)]
        j, src = np.divmod(rows, len(frontier))
        new = reach.take(rows)
        table[new] = table.take(frontier.take(src)) | np.left_shift(1, j)
        frontier = new
    return table


def build_code(h: BitMatrix, d: int, name: str = "") -> LinearCode:
    """Construct a LinearCode from a full-row-rank parity check and distance.

    The claimed distance is checked here; the coset-leader tables are built
    on first use.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    n = h.cols
    r = h.rows
    if gf2.rank(h) < r:
        raise ValueError("not full rank")
    t = (d - 1) // 2
    g = gf2.null_space_basis(h)
    k = n - r
    assert g.rows == k
    a, col_perm = gf2.systematic_form(h)
    _verify_distance(h, g, d, t)
    max_col = max((a.column(j).bit_count() for j in range(a.cols)), default=0)
    return LinearCode(
        name=name or f"[{n},{k},{d}]",
        n=n,
        k=k,
        d=d,
        t=t,
        h=h,
        g=g,
        a=a,
        col_perm=col_perm,
        max_col_weight=max_col,
    )


def parse_code_text(text: str, name: str = "") -> LinearCode:
    """Parse the code file format: a ``d=<int>`` header line, then the
    matrix text format."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].strip().startswith("d="):
        raise ValueError("expected 'd=<int>' header line")
    d = int(lines[0].strip()[2:])
    h = gf2.parse_matrix("\n".join(lines[1:]))
    return build_code(h, d, name=name)


def load_code(path: str, name: str = "") -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_text(fh.read(), name=name)


def _data_code(fname: str, name: str) -> LinearCode:
    text = resources.files("cssdistill.data").joinpath(fname).read_text(encoding="utf-8")
    return parse_code_text(text, name=name)


@functools.lru_cache(maxsize=None)
def registry(name: str) -> LinearCode:
    """Return one of the built-in codes by name."""
    if name in ("rep3", "rep5", "hamming7", "bch15_7_5", "golay23"):
        return _data_code(f"{name}.txt", name)
    if name == "golay23_dual":
        golay = registry("golay23")
        return build_code(golay.g, d=8, name="golay23_dual")
    raise KeyError(f"unknown code name {name!r}; known: {', '.join(REGISTRY_NAMES)}")
