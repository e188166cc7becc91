"""Labeled random streams derived from one master seed.

Every random draw in the package is keyed by (master seed, purpose, *indices).
Record-level draws depend only on their own key, so generation order, chunking
and worker layout cannot change results.

Per-record draws come from `keyed_uniforms`, a counter-based generator: draw j
of a record is the SplitMix64 finaliser (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014) applied to the record's key plus
j + 1 golden-ratio increments, which is output j of a SplitMix64 stream
seeded with the key. The key absorbs seed, purpose, modality and record id
through the same finaliser. Everything is evaluated on uint64 arrays, so one
call draws a whole modality. Alignment's rollout slips and holdout split are
keyed uniforms as well. `substream` and `derived_seed` build numpy streams that
no stream of the package uses; the benchmark's tracer wraps them by name.
"""

import numpy as np

# purpose codes (stable; changing one changes every derived stream)
DATASET_RECORD = 0
SCENARIO_NOISE = 1
BASELINE_NOISE = 2
ENV_RANDOMIZATION = 3
ALIGNMENT = 4
HOLDOUT_SPLIT = 5

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of a uint64 array, in place, with `scratch` (a
    uint64 array of z's shape) for the shifted copies; returns z. Never a
    numpy scalar: scalar uint64 arithmetic warns on the wrap-around this
    relies on."""
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        if mult is not None:
            z *= mult
    return z


def keyed_uniforms(master_seed: int, purpose: int, modality: int, ids, n: int,
                   open_interval: bool = False) -> np.ndarray:
    """(len(ids), n) uniforms; row i holds draws 0..n-1 of record ids[i].

    On [0, 1) from the top 53 bits of each output, or on (0, 1) with
    `open_interval` (top 52 bits plus half a step), for inverse-CDF
    transforms that must not see 0.

    The outputs are mixed in place, and the scratch array of the mixing
    becomes the result: fresh memory costs more here than the arithmetic.
    """
    key = np.full(1, master_seed, dtype=np.uint64)
    for part in (np.full(1, purpose, dtype=np.uint64), np.full(1, modality, dtype=np.uint64),
                 np.asarray(ids, dtype=np.uint64).reshape(-1)):
        key = key ^ (part + _GOLDEN)
        _mix(key, np.empty_like(key))
    step = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    bits = key[:, None] + step
    scratch = np.empty_like(bits)
    _mix(bits, scratch)
    bits >>= np.uint64(12 if open_interval else 11)
    u = scratch.view(np.float64)
    np.copyto(u, bits, casting="unsafe")
    if open_interval:
        u += 0.5
        u *= 2.0 ** -52
    else:
        u *= 2.0 ** -53
    return u


def substream(master_seed: int, *key: int):
    """Independent numpy Generator for the given purpose key. No stream of
    the package uses it; the benchmark's tracer wraps it by name."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derived_seed(master_seed: int, *key: int) -> int:
    """Stable 63-bit integer seed for APIs that take a plain seed. No stream
    of the package uses it; the benchmark's tracer wraps it by name."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)
