"""Benchmark of the dirac-disquant CLI: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``; no
install is needed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same numbers for people, with the
environment, the sample counts and the output digests.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import child
import reference
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 9
SETUP_REF_SLICES = 10
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env.pop("DIRAC_DISQUANT_THREADS", None)
    env.update({k: "1" for k in child.THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def reference_time():
    """Mean wall time of SETUP_REF_SLICES reference slices run here."""
    t0 = time.perf_counter()
    for _ in range(SETUP_REF_SLICES):
        reference.reference()
    return (time.perf_counter() - t0) / SETUP_REF_SLICES


def measure_setup(env):
    """Times for a fresh interpreter to import dirac_disquant.cli.

    One untimed import first fills the bytecode and file caches, as an
    installed package would have them.  Each timed import is bracketed by
    reference slices; a sample is the import time and the mean slice time
    of the two brackets around it.
    """
    cmd = [sys.executable, "-c", "import dirac_disquant.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    samples = []
    before = reference_time()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        import_s = time.perf_counter() - t0
        after = reference_time()
        samples.append({"import_s": import_s, "ref_s": 0.5 * (before + after)})
        before = after
    return samples


def setup_seconds(setup):
    """Median import time at the reference speed: each sample is scaled by
    reference.NOMINAL_S over its bracketing slice time."""
    return statistics.median(s["import_s"] * reference.NOMINAL_S / s["ref_s"]
                             for s in setup)


def run_child(args, env, tmp, deadline):
    result_path = os.path.join(tmp, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--result", result_path]
    log_path = os.path.join(tmp, "child.log")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=log)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
    if rc != 0:
        with open(log_path, "rb") as f:
            tail = f.read()[-4000:].decode("utf-8", "replace")
        sys.exit(f"workload child failed ({rc}):\n{tail}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def tail_percentile(samples):
    """(percentile, value) of the highest order statistic with ten samples
    above it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def score_units(res, workload, tmp):
    """Check the outputs the child kept and score every unit.

    Each distinct output is parsed once, here in the parent, after the child
    has exited.  Adds ``attempted``, ``failed``, ``rows`` and ``problems`` to
    each unit record.
    """
    checked = {}
    for unit in [res["warmup"]] + res["units"] + res["traced_units"]:
        unit.update(attempted=0, failed=0, rows=0, problems=[])
        for op in workload.ops:
            digest = unit["digests"][op.name]
            if digest not in checked:
                try:
                    with open(child.kept_path(tmp, digest), "rb") as f:
                        data = f.read()
                except FileNotFoundError:
                    data = b""
                checked[digest] = op.check(data)
            attempted, failed, rows, problems = checked[digest]
            rc = unit["codes"][op.name]
            if rc != 0:
                problems = problems + [f"exit status {rc!r}"]
                failed = max(failed, 1)
            unit["attempted"] += attempted
            unit["failed"] += failed
            unit["rows"] += rows
            unit["problems"] += [f"{op.name}: {p}" for p in problems]


def consistency_problems(res, expected_counts):
    """Cross-unit checks: identical outputs, traced = untraced, fixed counts."""
    problems = []
    all_units = [res["warmup"]] + res["units"] + res["traced_units"]
    for unit in all_units:
        problems += unit["problems"]
    if any(u["digests"] != res["warmup"]["digests"] for u in all_units):
        problems.append("outputs differ between units of one run "
                        "(traced against untraced included)")
    traced = res["traced_units"]
    if traced:
        if any(u["counts"] != traced[0]["counts"] for u in traced):
            problems.append("call counts differ between traced units")
        for name, expect in expected_counts.items():
            got = traced[0]["counts"][name]
            if got != expect:
                problems.append(f"{name}: {got} calls, the suite code implies {expect}")
    if res["threads_env"]["DIRAC_DISQUANT_THREADS"] is not None:
        problems.append("DIRAC_DISQUANT_THREADS reached the child")
    return problems


def end_to_end(res, setup):
    """The gated metrics.  Each unit's time is divided by the mean reference
    slice taken while that unit ran (see reference.py); the median over the
    units is reported."""
    units = res["units"]
    return {
        "setup_s": setup_seconds(setup),
        "wall_ref": statistics.median(u["wall_s"] / statistics.fmean(u["ref_wall_s"])
                                      for u in units),
        "cpu_ref": statistics.median(u["cpu_s"] / statistics.fmean(u["ref_cpu_s"])
                                     for u in units),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def raw_times(res):
    """Medians in seconds, for people: they follow the host's speed."""
    units = res["units"]
    return {
        "wall_s": (statistics.median(u["wall_s"] for u in units), "s"),
        "cpu_s": (statistics.median(u["cpu_s"] for u in units), "s"),
        "rows_per_s": (statistics.median(u["rows"] / u["wall_s"] for u in units), "rows/s"),
        "reference_s": (statistics.fmean(t for u in units for t in u["ref_wall_s"]), "s"),
    }


def print_report(args, res, metrics, metric_units, setup, attempted, failed, problems):
    env = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, 1 thread")
    for k, v in env.items():
        print(f"  env {k}: {v}")
    for argv in res["argv"]:
        print("  argv dirac-disquant " + " ".join(argv))
    for name, digest in res["warmup"]["digests"].items():
        print(f"  sha256 {name}: {digest}")
    walls = [u["wall_s"] for u in res["units"]]
    print(f"  units: 1 warm-up, {len(res['units'])} untraced, "
          f"{len(res['traced_units'])} traced")
    if args.trace == 0:
        tail = tail_percentile(walls)
        print(f"  wall_s samples n={len(walls)}: median {statistics.median(walls):.4f} s, "
              + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it (n < 11)")
              + f", min {min(walls):.4f} s, max {max(walls):.4f} s")
        raw = [x["import_s"] for x in setup]
        print(f"  setup import samples n={len(raw)}: median {statistics.median(raw):.4f} s, "
              f"min {min(raw):.4f} s, max {max(raw):.4f} s (raw, not gated)")
    for name, value in metrics.items():
        print(f"  {name:<58} {value:>16.6g} {metric_units[name]}")
    if args.trace == 0:
        for name, (value, unit) in raw_times(res).items():
            print(f"  {name:<58} {value:>16.6g} {unit}  (raw, not gated)")
    print(f"  {'fail_frac':<58} {failed / attempted:>16.6g} failed/attempted "
          f"({failed}/{attempted})")
    for p in problems:
        print(f"  PROBLEM {p}")


def print_delta(previous_path, metrics, metric_units):
    with open(previous_path, encoding="utf-8") as f:
        prev = json.load(f)["metrics"]
    print(f"change against {previous_path}:")
    for name, value in metrics.items():
        if name not in prev:
            print(f"  {name:<58} new")
            continue
        old = prev[name]["value"]
        rel = f"{100.0 * (value - old) / old:+.1f}%" if old else "n/a"
        print(f"  {name:<58} {old:>12.6g} -> {value:<12.6g} {metric_units[name]:<8} {rel}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time after the warm-up unit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the full result as JSON to this path")
    ap.add_argument("--previous", help="a result saved by --save; print the change")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "dirac_disquant", "cli.py")):
        sys.exit(f"no program source at {SRC}; run from the root of a checkout")

    env = child_env()
    setup = measure_setup(env) if args.trace == 0 else []
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        res = run_child(args, env, tmp, deadline)
        workload = workloads.make(args.workload, args.seed, tmp)
        score_units(res, workload, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["argv"] = [op.argv[:-2] for op in workload.ops]

    res["env"] = {
        "nproc": os.cpu_count(),
        "python": res["python"],
        "numpy": res["numpy"],
        "seed": args.seed,
        "DIRAC_DISQUANT_THREADS": res["threads_env"]["DIRAC_DISQUANT_THREADS"] or "unset",
        "blas_threads": ",".join(f"{k}={v}" for k, v in res["threads_env"].items()
                                 if k != "DIRAC_DISQUANT_THREADS"),
    }
    problems = consistency_problems(res, workload.expected_counts)
    all_units = [res["warmup"]] + res["units"] + res["traced_units"]
    attempted = sum(u["attempted"] for u in all_units)
    failed = sum(u["failed"] for u in all_units)
    correct = not problems and failed == 0

    if args.trace:
        metric_units = tracer.per_layer_metrics()
        metrics = tracer.combine([u["layers"] for u in res["traced_units"]],
                                 [u["wall_s"] for u in res["traced_units"]],
                                 [u["wall_s"] for u in res["units"]])
    else:
        metric_units = END_TO_END
        metrics = end_to_end(res, setup)

    print_report(args, res, metrics, metric_units, setup, attempted, failed, problems)
    if args.previous:
        print_delta(args.previous, metrics, metric_units)
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": metric_units[k]}
                       for k, v in metrics.items()}}
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump({**out, "env": res["env"], "argv": res["argv"],
                       "digests": res["warmup"]["digests"], "setup_samples": setup,
                       "warmup": res["warmup"], "units": res["units"],
                       "traced_units": res["traced_units"]},
                      f, indent=1)
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
