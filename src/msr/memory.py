"""Short- and long-term memory with cosine retrieval and attention readout.

Retrieval and readout are functions of an entry table, one row per entry;
`MemoryStore` calls them on its entries in timestamp order. The store is
single-writer. STM is a bounded FIFO; entries evicted at capacity are always
promoted to LTM with their original timestamp. The readout is attention's
softmax over the rows' cosine scores, past a threshold over its top-n rows.
"""

from dataclasses import dataclass
from collections import deque

import numpy as np

from . import mapping
from .attention import relevance_scores, top_k_indices
from .errors import ConfigError, EmptyMemoryError, InvalidEntryError

STM = "stm"
LTM = "ltm"


@dataclass
class MemoryEntry:
    vector: np.ndarray
    label: int
    timestamp: int
    tier: str


def row_dot(a, b) -> np.ndarray:
    """Dot products over the last axis, broadcasting the leading axes.

    Each row pair runs as a stacked (1, d) @ (d, 1) matmul, which numpy hands
    to the same 1-D dot kernel as `np.dot`, so every value equals `np.dot` of
    that pair bit for bit. `@` against a 1-D vector, `einsum` and `(a*b).sum`
    round differently. Rows should be contiguous along the last axis.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scaled_norms(x):
    """`x` and its row norms, with rows whose squared norm falls outside
    [1e-200, 1e200] first scaled by a power of two near their largest entry.

    Squaring such a row underflows into subnormals (losing precision, or
    reaching 0 for a nonzero row) or overflows to inf. Cosine ignores a
    positive per-row scale, and every other row is left as it is, so its
    score stays bit for bit what it was.
    """
    with np.errstate(over="ignore", under="ignore"):
        sq = row_dot(x, x)
    if sq.size and not (1e-200 <= sq.min() and sq.max() <= 1e200):
        off = ~((sq >= 1e-200) & (sq <= 1e200))
        exp = np.frexp(np.max(np.abs(x), axis=-1, initial=0.0))[1]
        x = x * np.where(off, np.ldexp(1.0, -exp), 1.0)[..., None]
        sq = row_dot(x, x)
    return x, np.sqrt(sq)


def cosine_scores(queries, entries) -> np.ndarray:
    """Cosine similarity over the last axis, broadcasting the leading axes
    (for example (N, 1, d) queries against (K, d) entries gives (N, K));
    rejects zero vectors."""
    q, qn = _scaled_norms(np.asarray(queries, dtype=float))
    e, en = _scaled_norms(np.asarray(entries, dtype=float))
    if not (np.all(qn) and np.all(en)):
        raise InvalidEntryError("cosine undefined for a zero vector")
    return row_dot(q, e) / (qn * en)


def cosine_score(query, entry) -> float:
    """Standard cosine similarity in [-1, 1]; rejects zero vectors."""
    return float(cosine_scores(query, entry))


def retrieve_rows(entries, queries) -> np.ndarray:
    """Per row of (N, d) queries, the first row of the (K, d) `entries` with
    maximal cosine score."""
    q = np.asarray(queries, dtype=float)
    return np.argmax(cosine_scores(q[:, None, :], entries), axis=1)


def readout_rows(entries, queries, top_n: int, threshold: int) -> np.ndarray:
    """Per row of (N, d) queries, attention over the rows of the (K, d) array
    `entries`: the `relevance_scores` softmax of their cosine scores weights
    them, or past `threshold` rows only the `top_k_indices` `top_n` of them,
    in row order (equal scores keep the earlier row). Weights are positive
    and sum to 1: each output stays inside the rows' range."""
    q = np.asarray(queries, dtype=float)
    scores = cosine_scores(q[:, None, :], entries)
    if len(entries) > threshold:
        keep = np.sort(top_k_indices(scores, top_n), axis=1)
        scores = np.take_along_axis(scores, keep, axis=1)
        entries = entries[keep]
    return (relevance_scores(scores)[:, None, :] @ entries)[:, 0, :]


class MemoryStore:
    def __init__(self, stm_capacity: int = 32, sparse_readout_top_n: int = 8,
                 sparse_readout_threshold: int = 64):
        mapping.check("stm_capacity", stm_capacity, int, ">= 1")
        mapping.check("sparse_readout_top_n", sparse_readout_top_n, int, ">= 1")
        self.stm_capacity = stm_capacity
        self.sparse_readout_top_n = sparse_readout_top_n
        self.sparse_readout_threshold = sparse_readout_threshold
        self.stm = deque()
        self.ltm = []
        self.clock = 0

    def stm_append(self, vector, label: int) -> None:
        """Append to STM; at capacity the oldest entry moves to LTM."""
        v = np.asarray(vector, dtype=float)
        if not np.any(v):
            raise InvalidEntryError("cannot store an all-zero vector")
        self.stm.append(MemoryEntry(v.copy(), int(label), self.clock, STM))
        self.clock += 1
        if len(self.stm) > self.stm_capacity:
            self.promote_to_ltm(self.stm.popleft())

    def promote_to_ltm(self, entry: MemoryEntry) -> None:
        """Append an entry to LTM, keeping its original timestamp. No dedup."""
        entry.tier = LTM
        self.ltm.append(entry)
        if entry.timestamp >= self.clock:
            self.clock = entry.timestamp + 1

    def ltm_retrieve(self, query) -> MemoryEntry:
        """`retrieve_rows` of the LTM entries: the entry with maximal cosine
        score; ties go to the earliest timestamp."""
        q = np.asarray(query, dtype=float)[None]
        entries = self._gather((LTM,))
        return entries[retrieve_rows(np.stack([e.vector for e in entries]), q)[0]]

    def _gather(self, tiers) -> list:
        """The entries of the given tiers, in timestamp order; there must be one."""
        tier_set = set(tiers)
        unknown = tier_set - {STM, LTM}
        if unknown:
            raise ConfigError(f"unknown memory tiers {sorted(unknown)}")
        entries = []
        if LTM in tier_set:
            entries.extend(self.ltm)
        if STM in tier_set:
            entries.extend(self.stm)
        if not entries:
            raise EmptyMemoryError(f"no entries in tiers {tuple(tiers)}")
        return sorted(entries, key=lambda e: e.timestamp)

    def attention_readout(self, query, tiers=(STM, LTM)) -> np.ndarray:
        """`readout_rows` of the entries in the given tiers."""
        q = np.asarray(query, dtype=float)[None]
        return readout_rows(np.stack([e.vector for e in self._gather(tiers)]), q,
                            self.sparse_readout_top_n, self.sparse_readout_threshold)[0]
