"""Frozen reference oracles for the differential-equivalence tests.

Each module mirrors the ``src/repro`` module whose fast path it pins:
the scalar loops here are the pre-vectorization implementations, kept
verbatim, and the vectorized code must reproduce them bitwise (see
``tests/equivalence.py``).  They live with the tests, not in the
package, so the package ships one implementation per mechanism.  The
columnar-profiler and batched-model benchmark gates
(``benchmarks/bench_profiler.py``, ``benchmarks/bench_model_batch.py``)
time the same oracles.
"""
