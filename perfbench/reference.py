"""A fixed reference computation that the benchmark's times are divided by.

The benchmark runs on a few virtual CPUs of a shared host.  How fast those
CPUs run changes within seconds with the host's load, and process CPU time
changes with it, so raw times of the same code spread by a quarter or more
between runs.  ``child.py`` therefore runs short slices of ``reference()``
in the same thread, at a fixed interval while the program runs, and
``run.py`` divides each unit's time by the mean slice time of that unit.  A
slowdown of the host stretches both, and the ratio keeps what belongs to the
program.

The mix follows the program's own profile: small numpy calls in a Python
loop (the gamma algebra, ``eps4`` and the RK4 rotator), vector arithmetic
over arrays (the closed-form generators) and float-to-text formatting
(the CSV writer).  It uses no part of ``dirac_disquant``.  Changing this file
changes the unit of every gated metric, so a baseline measured before the
change can no longer be compared with one after it.
"""

import gc

import numpy as np

SMALL_STEPS = 100
VECTOR_LEN = 10_000
VECTOR_PASSES = 10
TEXT_ROWS = 600

# Converts a time measured in reference slices back to seconds, for setup_s,
# which is reported in seconds.  It is about the mean slice time on the
# 2-vCPU KVM Xeon host the benchmark was written on.
NOMINAL_S = 0.01


def reference():
    """Run the fixed mix once and return a number derived from all of it.

    The collector is off while it runs, so the program's heap, which the
    reference shares, does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = np.random.default_rng(20010406)
        cols = rng.standard_normal((4, 4))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        acc = 0.0
        for k in range(SMALL_STEPS):
            e = np.zeros(4)
            e[k % 4] = 1.0
            acc += float(np.linalg.det(np.column_stack([e, cols[1], cols[2], cols[3]])))
            acc += float((g @ g.conj().T).real.trace())

        t = np.linspace(0.0, 100.0, VECTOR_LEN)
        for _ in range(VECTOR_PASSES):
            x = 1.5 * np.cos(t) + np.sin(2.0 * t)
            y = np.sqrt(1.0 + x * x)
            acc += float(y.sum())

        table = np.stack([t[:TEXT_ROWS], x[:TEXT_ROWS], y[:TEXT_ROWS]], axis=1)
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in table)
        return acc + len(text)
    finally:
        if enabled:
            gc.enable()
