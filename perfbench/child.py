"""Run the units of one workload in this interpreter and write a JSON result.

``run.py`` starts this script in a fresh child process with BLAS/OpenMP
pinned to one thread.  It imports ``dirac_disquant`` from ``src/`` of the
checkout, runs one warm-up unit, then runs units back to back (one client,
one thread, closed loop) until ``--seconds`` have passed.  With
``--trace 1`` it alternates untraced and traced units, so the tracing
overhead is measured in the same process.

A unit calls ``cli.main`` once per operation of the workload.  Its wall and
CPU time cover those calls only.  While they run, a timer takes short slices
of ``reference.reference()`` at a fixed interval and records their times
apart, so ``run.py`` can divide by the host's speed over the same stretch of
time (see reference.py); the slices' time is taken out of the unit's.  After
the unit, each output is
hashed in chunks.  The first output with a given sha256 digest is kept as
``out-<digest>`` in ``--tmp`` and later ones are deleted.  ``run.py`` checks
the kept files after this process has exited, so this process's peak RSS
belongs to the program, not to the checker.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time

import reference

MIN_UNITS = 3
MIN_TRACED_UNITS = 2
CHUNK = 1 << 20

# Pinned to one thread in the child.  DIRAC_DISQUANT_THREADS is removed
# instead: the benchmark must not depend on that knob.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def kept_path(tmp, digest):
    return os.path.join(tmp, f"out-{digest}")


def file_digest(path):
    """sha256 of the file at ``path``; of no bytes when it is missing."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            while chunk := f.read(CHUNK):
                h.update(chunk)
    except FileNotFoundError:
        pass
    return h.hexdigest()


class Sampler:
    """Times reference slices from a SIGALRM timer while the program runs.

    ``run_unit`` arms the timer around each ``cli.main`` call.  Every
    INTERVAL_S of program time the handler runs ``reference.reference()``
    once and records its wall and CPU time.  The time spent in the handler
    is added up, so the caller can take it out of the program's time.  The
    handler stays installed for the life of the process and does nothing
    while disarmed, so a signal that arrives late cannot end the process.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        self.armed = False
        self.wall, self.cpu = [], []
        self.spent_wall = self.spent_cpu = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def take(self):
        """Time one reference slice; return its start (wall, CPU) clocks."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        reference.reference()
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(time.process_time() - cpu0)
        return wall0, cpu0

    def _tick(self, signum, frame):
        if not self.armed:
            return
        wall0, cpu0 = self.take()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_unit(cli, workload, tmp, sampler, sample=True):
    """Run every operation once; return the unit record.

    The unit's times cover the ``cli.main`` calls without the reference
    slices taken inside them; the slices' own times are kept beside them.
    Traced units pass ``sample=False``, so no slice lands inside a span.
    """
    unit = {"wall_s": 0.0, "cpu_s": 0.0, "codes": {}, "digests": {}}
    codes = []
    n_ref = len(sampler.wall)
    for op in workload.ops:
        spent_wall, spent_cpu = sampler.spent_wall, sampler.spent_cpu
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        if sample:
            sampler.arm()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the CLI must not raise; count it as a failure
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            sampler.disarm()
        unit["wall_s"] += time.perf_counter() - wall0 - (sampler.spent_wall - spent_wall)
        unit["cpu_s"] += time.process_time() - cpu0 - (sampler.spent_cpu - spent_cpu)
        codes.append(rc)
    if len(sampler.wall) == n_ref:
        sampler.take()  # a unit shorter than INTERVAL_S still gets one slice
    unit["ref_wall_s"] = sampler.wall[n_ref:]
    unit["ref_cpu_s"] = sampler.cpu[n_ref:]

    for op, rc in zip(workload.ops, codes):
        digest = file_digest(op.out_path)
        if os.path.exists(op.out_path):
            keep = kept_path(tmp, digest)
            if os.path.exists(keep):
                os.remove(op.out_path)
            else:
                os.replace(op.out_path, keep)
        unit["codes"][op.name] = rc
        unit["digests"][op.name] = digest
    gc.collect()
    return unit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True, help="directory for program outputs")
    ap.add_argument("--result", required=True, help="path of the JSON result")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    import numpy
    from dirac_disquant import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"imported {cli.__file__}, not the checkout's src/")

    import tracer
    import workloads

    workload = workloads.make(args.workload, args.seed, args.tmp)
    sampler = Sampler()
    gc.collect()
    warmup = run_unit(cli, workload, args.tmp, sampler)

    units, traced_units = [], []
    start = time.perf_counter()
    while True:
        # Stop at the unit boundary nearest to the deadline, so a run lasts
        # about --seconds however long one unit takes.
        elapsed = time.perf_counter() - start + 0.5 * warmup["wall_s"]
        if args.trace:
            if elapsed >= args.seconds and len(traced_units) >= MIN_TRACED_UNITS:
                break
            units.append(run_unit(cli, workload, args.tmp, sampler))
            t = tracer.Tracer()
            t.install()
            try:
                unit = run_unit(cli, workload, args.tmp, sampler, sample=False)
            finally:
                t.remove()
            unit["counts"] = t.counts()
            unit["layers"] = t.metrics()
            traced_units.append(unit)
        else:
            if elapsed >= args.seconds and len(units) >= MIN_UNITS:
                break
            units.append(run_unit(cli, workload, args.tmp, sampler))

    result = {
        "warmup": warmup,
        "units": units,
        "traced_units": traced_units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "threads_env": {k: os.environ.get(k)
                        for k in THREAD_VARS + ("DIRAC_DISQUANT_THREADS",)},
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
