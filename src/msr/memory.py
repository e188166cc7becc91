"""Short- and long-term memory with cosine retrieval and attention readout.

The store is single-writer: appends and promotions mutate it, retrieval and
readout are read-only. STM is a bounded FIFO; entries evicted at capacity are
always promoted to LTM with their original timestamp. When the scored entry
set grows past `sparse_readout_threshold`, the readout keeps only the
`sparse_readout_top_n` best-scoring entries and renormalizes over them.
"""

from dataclasses import dataclass
from collections import deque

import numpy as np

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


class MemoryStore:
    def __init__(self, stm_capacity: int = 32, sparse_readout_top_n: int = 8,
                 sparse_readout_threshold: int = 64):
        if stm_capacity < 1:
            raise ConfigError(f"stm_capacity must be >= 1, got {stm_capacity}")
        if sparse_readout_top_n < 1:
            raise ConfigError("sparse_readout_top_n must be >= 1")
        self.stm_capacity = stm_capacity
        self.sparse_readout_top_n = sparse_readout_top_n
        self.sparse_readout_threshold = sparse_readout_threshold
        self.stm = deque()
        self.ltm = []
        self.clock = 0

    def _next_timestamp(self) -> int:
        t = self.clock
        self.clock += 1
        return t

    def stm_append(self, vector, label: int) -> None:
        """Append to STM; at capacity the oldest entry moves to LTM."""
        v = np.asarray(vector, dtype=float)
        if not np.any(v):
            raise InvalidEntryError("cannot store an all-zero vector")
        self.stm.append(MemoryEntry(v.copy(), int(label), self._next_timestamp(), STM))
        if len(self.stm) > self.stm_capacity:
            self.promote_to_ltm(self.stm.popleft())

    def promote_to_ltm(self, entry: MemoryEntry) -> None:
        """Append an entry to LTM, keeping its original timestamp. No dedup."""
        entry.tier = LTM
        self.ltm.append(entry)
        if entry.timestamp >= self.clock:
            self.clock = entry.timestamp + 1

    def ltm_retrieve(self, query) -> MemoryEntry:
        """The LTM entry with maximal cosine score; ties go to the earliest
        timestamp."""
        return self.ltm_retrieve_rows(np.asarray(query, dtype=float)[None])[0]

    def ltm_retrieve_rows(self, queries) -> list:
        """`ltm_retrieve` for each row of an (N, d) query array."""
        if not self.ltm:
            raise EmptyMemoryError("LTM is empty")
        entries = sorted(self.ltm, key=lambda e: e.timestamp)
        vectors = np.stack([e.vector for e in entries])
        q = np.asarray(queries, dtype=float)
        best = np.argmax(cosine_scores(q[:, None, :], vectors), axis=1)
        return [entries[i] for i in best.tolist()]

    def _gather(self, tiers):
        tier_set = set(tiers)
        unknown = tier_set - {STM, LTM}
        if unknown:
            raise ConfigError(f"unknown memory tiers {sorted(unknown)}")
        entries = []
        if LTM in tier_set:
            entries.extend(self.ltm)
        if STM in tier_set:
            entries.extend(self.stm)
        return entries

    def attention_readout(self, query, tiers=(STM, LTM)) -> np.ndarray:
        """Softmax-over-cosine weighted average of entries in the given tiers.

        Weights are positive and sum to 1, so each output coordinate stays
        inside the range spanned by the entries.
        """
        q = np.asarray(query, dtype=float)[None]
        return self.attention_readout_rows(q, tiers)[0]

    def attention_readout_rows(self, queries, tiers=(STM, LTM)) -> np.ndarray:
        """`attention_readout` for each row of an (N, d) query array."""
        entries = self._gather(tiers)
        if not entries:
            raise EmptyMemoryError(f"no entries in tiers {tuple(tiers)}")
        vectors = np.stack([e.vector for e in entries])
        q = np.asarray(queries, dtype=float)
        scores = cosine_scores(q[:, None, :], vectors)
        if len(entries) > self.sparse_readout_threshold:
            keep = np.argsort(-scores, axis=1, kind="stable")[:, : self.sparse_readout_top_n]
            keep.sort(axis=1)
            scores = np.take_along_axis(scores, keep, axis=1)
            vectors = vectors[keep]
        z = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights = z / z.sum(axis=1, keepdims=True)
        return (weights[:, None, :] @ vectors)[:, 0, :]
