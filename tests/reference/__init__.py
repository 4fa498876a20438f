"""Frozen reference oracles for the differential-equivalence tests.

Each module mirrors the ``src/repro`` module whose fast path it pins:
the scalar loops here are the pre-vectorization implementations over
``Instruction`` objects, kept verbatim, and the vectorized code must
reproduce them bitwise (see ``tests/equivalence.py``).
``dependences.py`` also keeps the thesis' sliding-window chain
measurement (Algorithm 3.1), which the tests check against the thesis
worked example and compare with the stepped windows the profiler uses,
plus the chain interpolation that refitted its segment on every call.
``branch.py`` and ``mlp.py`` keep the model helpers' plain loops (the
leaky bucket stepped to the end of the interval, the per-window rescan
of the virtual stream) that the bounded-cost helpers must match, and
``model.py`` keeps the per-configuration walk of the whole model (the
former scalar ``predict``, activity derivation and memory-side
penalties) that the batched kernel must match, and ``simulator.py`` the
former per-uop cycle-level simulator that walked ``Instruction``
objects and accessed its caches and predictor inline, which the
outcome-pass + timing-core simulator must match, and ``generator.py``
the former trace generator that appended one ``Instruction`` per
dynamic instruction and truncated at the end, whose seven columns the
columnar generator must match.
They live with the tests, not in the package, so the package ships
one implementation per mechanism.  The columnar-profiler and
batched-model benchmark gates (``benchmarks/bench_profiler.py``,
``benchmarks/bench_model_batch.py``) time the same oracles.
"""
