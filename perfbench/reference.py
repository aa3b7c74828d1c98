"""The reference pass that calibrates every time the benchmark reports.

On a shared virtual machine the same deterministic pass runs up to 1.7x
faster in one process than in the next: the speed is mostly a property of the
process (most likely of where its memory lands on the host), and it holds for
seconds to minutes.  A fixed piece of work timed inside the same process as a
measured pass slows down and speeds up with it, so each benchmark process
times ``reference_pass`` as well, and the run reports

    measured time * REFERENCE_S / reference time in that process,

the time the pass would take in a process where the reference takes exactly
REFERENCE_S.  The reference is the benchmark's own code, so no change to
templikit moves it.
"""

from __future__ import annotations

import random
import time

# about the median reference time on a 2-vCPU Xeon VM with Python 3.11
REFERENCE_S = 0.25


def reference_pass(n=90, p=3, reps=4):
    """Time row reduction over F_p of fixed matrices; returns seconds.

    It mixes small-int arithmetic, list rebuilding and a growing dict of
    tuple keys, as Smith normal form and the library's caches do; a plain
    arithmetic loop does not track the drift.
    """
    rng = random.Random(7)
    memo = {}
    start = time.perf_counter()
    for _ in range(reps):
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = pow(m[r][c], p - 2, p)
            m[r] = [(x * inv) % p for x in m[r]]
            for i in range(n):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
                    memo[tuple(m[i][c:c + 8])] = i
            r += 1
    return time.perf_counter() - start


def scale(reference_s):
    """Factor that turns a time in a process with this reference time into
    reference-machine seconds."""
    return REFERENCE_S / reference_s
