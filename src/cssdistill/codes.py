"""Classical binary codes with bounded-distance syndrome decoding.

A :class:`LinearCode` carries its parity check, generator, systematic part
and a syndrome table of minimum-weight coset leaders.  The registry holds
the small codes used by the distillation experiments, with their parity
checks shipped in the package data directory.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import gf2
from .gf2 import BitMatrix

REGISTRY_NAMES = ("rep3", "rep5", "hamming7", "bch15_7_5", "golay23", "golay23_dual")

_EXHAUSTIVE_DISTANCE_N = 24
_DISTANCE_SAMPLES = 2000
# Codeword span rows held as one array by the exhaustive distance check.
_SPAN_ROWS = 16


@dataclass(frozen=True)
class LinearCode:
    """An [n, k, d] binary linear code with a coset-leader decoder.

    ``syndrome_table`` maps the packed r-bit syndrome to a packed
    minimum-weight coset leader; it holds every leader of weight <= t and,
    beyond that, leaders of weight <= w_max for whatever syndromes they
    reach.  ``max_col_weight`` is the largest number of 1s in a column of
    the systematic part A, the quantity that bounds error amplification in
    a distillation round.
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
    syndrome_table: dict[int, int] = field(repr=False)
    systematic_table: dict[int, int] = field(repr=False)
    max_col_weight: int
    w_max: int

    @property
    def r(self) -> int:
        return self.n - self.k

    def syndrome(self, v: int) -> int:
        if v < 0 or v >> self.n:
            raise ValueError("length mismatch")
        return gf2.mat_vec(self.h, v)

    def decode(self, s: int) -> tuple[int, bool]:
        """Coset leader for syndrome ``s``.

        Returns ``(e_hat, in_table)``.  When the syndrome is not reachable by
        any error of weight <= w_max the estimate is zero and ``in_table`` is
        False.
        """
        if s < 0 or s >> self.r:
            raise ValueError("length mismatch")
        leader = self.syndrome_table.get(s)
        return (0, False) if leader is None else (leader, True)

    def codewords(self):
        """All 2^k codewords (packed ints); only sensible for small k."""
        return gf2.iter_row_space(self.g)


def _verify_distance(g: BitMatrix, d: int, n: int) -> None:
    if n <= _EXHAUSTIVE_DISTANCE_N:
        found = _min_weight(g, d)
    else:
        rng = random.Random(0xC0DE)
        masks = (rng.getrandbits(g.rows) for _ in range(_DISTANCE_SAMPLES))
        words = (functools.reduce(operator.xor, (r for i, r in enumerate(g.data) if mask >> i & 1), 0)
                 for mask in masks)
        found = next((w.bit_count() for w in words if w and w.bit_count() < d), d)
    if found < d:
        raise ValueError(f"claimed d={d} inconsistent: codeword of weight {found} found")


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


def _leader_tables(mats: list[BitMatrix], n: int, d: int, t: int, w_max: int) -> list[dict[int, int]]:
    """Per parity check, each syndrome of an error of weight <= w_max keyed
    to its first such error in :func:`gf2.iter_weight_le`'s order, inserted
    in that order.  One enumeration serves all: an error's syndromes and its
    own bits are column blocks of one linear map's image."""
    blocks = [gf2.split_words(m.transpose().data, m.rows) for m in mats]
    blocks.append(gf2.split_words([1 << i for i in range(n)], n))
    images, counts = gf2.weight_le_images(np.concatenate(blocks, axis=1), w_max)
    low = sum(counts[:t + 1])  # errors that must not share a syndrome
    bits = images[:, -blocks[-1].shape[1]:]
    tables, lo = [], 0
    for m, block in zip(mats, blocks[:-1]):
        syn = images[:, lo:lo + block.shape[1]]
        lo += block.shape[1]
        first = gf2.first_rows(gf2.row_keys(syn), m.rows)
        if np.count_nonzero(first < low) < low:
            raise ValueError(f"claimed d={d} inconsistent: weight<={t} errors share a syndrome")
        first.sort()
        tables.append(dict(zip(gf2.join_words(syn[first]), gf2.join_words(bits[first]))))
    return tables


def build_code(h: BitMatrix, d: int, name: str = "", w_max: int | None = None) -> LinearCode:
    """Construct a LinearCode from a full-row-rank parity check and distance.

    The syndrome table is filled in order of increasing error weight, so each
    entry is a true coset leader.  Weights <= t are complete; weights up to
    ``w_max`` (default t+1) fill only syndromes not yet present, which gives
    perfect codes full 2^r coverage and non-perfect codes a bounded
    beyond-t fallback.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    n = h.cols
    r = h.rows
    if gf2.rank(h) < r:
        raise ValueError("not full rank")
    t = (d - 1) // 2
    if w_max is None:
        w_max = t + 1
    g = gf2.null_space_basis(h)
    k = n - r
    assert g.rows == k
    a, col_perm = gf2.systematic_form(h)
    _verify_distance(g, d, n)

    # Check-slot coordinates: the distillation rounds measure syndromes of
    # the row-equivalent [I_r | A] matrix, with slot i the i-th check.
    h_sys = BitMatrix(r, n, tuple((1 << i) | (a.data[i] << r) for i in range(r)))
    tables = _leader_tables([h] if h_sys == h else [h, h_sys], n, d, t, w_max)
    table, sys_table = tables[0], tables[-1]
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
        syndrome_table=table,
        systematic_table=sys_table,
        max_col_weight=max_col,
        w_max=w_max,
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
