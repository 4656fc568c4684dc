"""Leaf microtimings: public functions called directly on seeded inputs.

Each figure is the median of ``REPEATS`` timed loops, divided by the
loop's call count, so loop overhead is included in every per-call time.
"""

from __future__ import annotations

import itertools
import random
import statistics
from time import perf_counter

from qpolar import geometry, gf2, pauli

REPEATS = 5
N = 4


def _per_call(fn, args_list, reset=None) -> float:
    times = []
    for _ in range(REPEATS):
        if reset:
            reset()
        start = perf_counter()
        for args in args_list:
            fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times) / len(args_list)


def leaf_timings(seed: int) -> dict[str, float]:
    """Run every leaf timing; clears the ``pauli_matrix`` cache as it goes."""
    rng = random.Random(seed)
    vectors = [gf2.SymplecticVector(N, key >> N, key & (2**N - 1)) for key in range(1, 4**N)]
    form_pairs = [(rng.choice(vectors), rng.choice(vectors)) for _ in range(5000)]
    rref_inputs = [([rng.choice(vectors) for _ in range(N)],) for _ in range(500)]
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=N)][1:]
    cold_words = [(w,) for w in rng.sample(words, 64)]

    out = {
        "gf2.sp_form.ns_per_call": _per_call(gf2.sp_form, form_pairs) * 1e9,
        "gf2.rref.us_per_call": _per_call(gf2.rref, rref_inputs) * 1e6,
        "pauli.pauli_matrix.us_per_build": _per_call(
            pauli.pauli_matrix, cold_words, reset=pauli.pauli_matrix.cache_clear
        ) * 1e6,
    }
    for n in (3, 4, 5):
        out[f"geometry.desarguesian_spread.n{n}_s"] = _per_call(
            geometry.desarguesian_spread, [(n,)]
        )
    return out
