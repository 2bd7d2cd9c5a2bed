"""Counter-based random number streams and the draw pool.

Every random draw in the package is addressed by (seed, stream, period,
path index, slot).  Streams are built on the Philox 4x64 counter-based
generator, so the draw for a given address never depends on how many
paths are sampled, in what order, or in which process.  Splitting a
block of paths across workers and concatenating the results is
bit-identical to sampling the block in one call.

Philox advances in ticks of 4 output words, hence per-path strides are
rounded up to a multiple of 4 doubles.

A draw of many rows runs one slab of ``_SLAB_ROWS`` rows at a time, so
its scratch arrays are those of one slab (:mod:`conemv.market`).
Row-independent kernels of a slab (the Philox fill here, the quantile
transforms and the product in :mod:`conemv.market`) and of the path
densities in :mod:`conemv.vssm` split it into chunks of ``_CHUNK_ROWS``
rows over a thread pool, one thread per CPU the process may run on.
Each chunk writes its own rows of one output, and a one-row chunk's
product rounds as in a larger block (:func:`matmul_rows`), so the
result is the same for every worker count.  Each task makes its own
chunk's temporaries, and the pool runs one task per worker at a time,
so the worker count bounds them.  The workers run only numpy and scipy
kernels, which release the interpreter lock.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Stream tags keep logically distinct uses of the same user seed apart.
STREAM_SAA = 1
STREAM_SIM = 2

_TICK = 4  # Philox outputs per counter increment
_CHUNK_ROWS = 32_768  # rows per pool task
# rows a draw holds scratch for at a time: two pool tasks, since a
# slab of one chunk would run inline on one CPU
_SLAB_ROWS = 2 * _CHUNK_ROWS

_pool = None
_pool_lock = threading.Lock()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _drop_pool() -> None:
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def over_row_chunks(n_rows: int, fill) -> None:
    """Call ``fill(lo, hi)`` once for each chunk [lo, hi) of at most
    ``_CHUNK_ROWS`` rows of [0, n_rows).

    A block of at most one chunk, or a process on one CPU, runs the
    chunks in turn in the calling thread.  Otherwise they run on the
    pool, created on first use, and every chunk has finished on return.
    Each call makes its own temporaries, and at most one call per
    worker runs at a time, so they come to one chunk's per worker.
    """
    global _pool
    workers = _cpus()
    bounds = [(lo, min(lo + _CHUNK_ROWS, n_rows))
              for lo in range(0, n_rows, _CHUNK_ROWS)]
    if len(bounds) <= 1 or workers <= 1:
        for lo, hi in bounds:
            fill(lo, hi)
        return
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(workers,
                                       thread_name_prefix="conemv-draw")
        pool = _pool
    futures = [pool.submit(fill, lo, hi) for lo, hi in bounds]
    for future in futures:
        future.result()


def matmul_rows(x: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """``np.matmul(x, m, out=out)`` for a chunk x of a block's rows,
    rounded as in the whole block.  OpenBLAS hands a one-row product to
    gemv, or to a dot for a vector m, which rounds differently from the
    gemm or gemv that more rows take; so one row is multiplied as two."""
    if x.shape[0] == 1:
        out[...] = (np.repeat(x, 2, axis=0) @ m)[:1]
    else:
        np.matmul(x, m, out=out)


def map_rows(kernel, x: np.ndarray) -> np.ndarray:
    """``kernel(x)`` for an elementwise ufunc ``kernel(x, out=...)``,
    computed over row chunks of x into one new array."""
    out = np.empty(x.shape)
    over_row_chunks(x.shape[0],
                    lambda lo, hi: kernel(x[lo:hi], out=out[lo:hi]))
    return out


def path_stride(n_uniforms: int) -> int:
    """Per-path stride in doubles, rounded up to a whole Philox tick."""
    if n_uniforms <= 0:
        raise ValueError(f"n_uniforms must be positive, got {n_uniforms}")
    return _TICK * ((n_uniforms + _TICK - 1) // _TICK)


def _key(seed: int, stream: int, period: int) -> np.ndarray:
    # 128-bit Philox key: user seed in the first word, the stream tag and
    # period packed into the second.
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed out of range [0, 2**64): {seed}")
    if not 0 <= period < 2**32:
        raise ValueError(f"period out of range: {period}")
    return np.array([np.uint64(seed),
                     np.uint64((stream << 32) | period)], dtype=np.uint64)


def uniform_block(seed: int, stream: int, period: int,
                  lo: int, hi: int, n_uniforms: int) -> np.ndarray:
    """Open-interval uniforms for paths [lo, hi) at one period.

    Returns an array of shape (hi - lo, n_uniforms) with entries in
    [2^-54, 1 - 2^-53], a view of rows of ``path_stride(n_uniforms)``
    doubles.  Path p always receives the same numbers regardless of the
    block boundaries used to reach it.
    """
    if hi < lo:
        raise ValueError(f"empty block bounds: [{lo}, {hi})")
    stride = path_stride(n_uniforms)
    key = _key(seed, stream, period)
    out = np.empty((hi - lo, stride))

    def fill(a, b):
        bg = np.random.Philox(key=key)
        bg.advance((lo + a) * (stride // _TICK))
        np.random.Generator(bg).random(out=out[a:b])
        _into_open_interval(out[a:b])

    over_row_chunks(hi - lo, fill)
    return out[:, :n_uniforms]


def _into_open_interval(rows: np.ndarray) -> None:
    """Shift ``random()``'s lattice {k 2^-53} into (0, 1) in place, so
    inverse-CDF transforms never see an exact 0 or 1.  The shift rounds
    the top point up to 1.0, and the clamp moves only that point back."""
    rows += 2.0**-54
    np.minimum(rows, 1.0 - 2.0**-53, out=rows)
