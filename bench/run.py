"""pdnx benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload compare10 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pdnx is imported from its `src/`.
The process is single-threaded: BLAS thread pools are pinned to one thread
before numpy loads, and the process is pinned to one CPU. End-to-end times
are rescaled by a reference job timed around each interval (see speed.py).

Each run
  1. times set-up (`import pdnx` + `load_datasets()`) in several fresh
     interpreters and keeps the median;
  2. makes one traced warm-up pass, whose solver residuals and per-VR current
     sums are checked;
  3. repeats the workload for --seconds. With --trace 0 every pass is
     untraced and timed; with --trace 1 untraced and traced passes alternate,
     the traced ones giving the per-layer figures and the difference of the
     two medians the tracing overhead.
Every pass's outputs are checked against reference.json.

The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` count checked outputs, `metrics` holds the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) listed in METRICS.md. The
full record, with the environment and every pass time, goes to
`.bench_out/`, together with the spans of a traced run.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedReference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 60
SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import pdnx
t1 = time.perf_counter()
pdnx.load_datasets()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(speed) -> dict:
    """Set-up time in fresh interpreters, after one untimed warm-up child that
    fills the bytecode cache (users do not pay that on every run)."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC)]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        import_s, load_s = json.loads(done.stdout.strip().splitlines()[-1])
        factor = speed.factor()
        if i:
            raw.append((import_s, load_s))
            scaled.append((import_s * factor, load_s * factor))
    return {
        "setup_s": statistics.median(a + b for a, b in scaled),
        "setup_raw_s": statistics.median(a + b for a, b in raw),
        "import_s": statistics.median(a for a, _ in scaled),
        "load_datasets_s": statistics.median(b for _, b in scaled),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except FileNotFoundError:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pdnx").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def summary(times: list[float]) -> dict | None:
    if not times:
        return None
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median": statistics.median(times), "q1": q1, "q3": q3, "n": len(times)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pdnx" / "__init__.py").is_file():
        print(f"error: no pdnx sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pdnx
    if Path(pdnx.__file__).resolve().parent != (SRC / "pdnx").resolve():
        print(f"error: imported pdnx from {pdnx.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # The reference job and the interval it brackets must share a CPU: the
    # host's CPUs change speed independently of each other.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = SpeedReference()
    work_dir = workloads.make_work_dir(ROOT)
    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = workloads.load_reference()
    setup = measure_setup(speed)

    modules = {name: importlib.import_module(f"pdnx.{name}") for name in
               ("architecture", "calibrate", "datasets", "reporting")}
    work = workloads.Workload(args.workload, inputs, modules, work_dir)
    work.setup()
    tracer = layers.Tracer()
    checked = workloads.Checked()
    times: dict[str, list[float]] = {"plain": [], "plain_raw": [], "traced": [], "traced_raw": []}

    def one_pass(traced: bool, timed: bool = True) -> None:
        gc.collect()
        if traced:
            tracer.pass_id += 1
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = work.run()
        except Exception:     # an unexpected error is a failed output, not a crash
            traceback.print_exc()
            checked.expect(False, f"pass raised {sys.exc_info()[1]!r}")
            return
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            scaled = elapsed * speed.factor()
        if timed:
            kind = "traced" if traced else "plain"
            times[kind].append(scaled)
            times[f"{kind}_raw"].append(elapsed)
        work.check(result, reference, checked)
        if traced:
            workloads.check_spans(tracer.spans, tracer.pass_id, checked)

    one_pass(traced=True, timed=False)     # warm-up; its checks count
    first_traced = tracer.pass_id + 1
    deadline = time.perf_counter() + args.seconds
    while True:
        one_pass(traced=False)
        if args.trace:
            one_pass(traced=True)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain, traced = times["plain"], times["traced"]
    if not plain or (args.trace and not traced):
        print("error: no timed pass completed; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        values = layers.median_metrics([layers.pass_metrics(tracer.spans, i)
                                        for i in range(first_traced, tracer.pass_id + 1)])
        values["datasets.load_datasets.s"] = setup["load_datasets_s"]
        values["setup.import_s"] = setup["import_s"]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    else:
        values = {"setup_s": setup["setup_s"], "wall_s": statistics.median(plain),
                  "peak_rss_mb": peak_rss_mb}
    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}

    failed = len(checked.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "environment": environment(),
        "setup": setup, "peak_rss_mb": peak_rss_mb,
        **{f"{kind}_s": summary(v) for kind, v in times.items()},
        "pass_times_s": times, "reference_job_s": speed.samples,
        "attempted": checked.attempted, "failed": failed,
        "failed_frac": failed / max(checked.attempted, 1), "failures": checked.failures,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(work_dir / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    for line in checked.failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(inputs)}")
    print(f"environment {json.dumps(record['environment'])}")
    for kind in times:
        if record[f"{kind}_s"]:
            st = record[f"{kind}_s"]
            print(f"wall_s {kind:<11} median {st['median']:.6f} s  q1 {st['q1']:.6f}  "
                  f"q3 {st['q3']:.6f}  n {st['n']}")
    print(f"setup_s            {setup['setup_s']:.6f} s  (raw {setup['setup_raw_s']:.6f} s, "
          f"median of {SETUP_RUNS} interpreters)")
    print(f"peak_rss_mb        {peak_rss_mb:.1f} MB")
    print(f"failed_frac        {record['failed_frac']:.6f}  "
          f"({failed} of {checked.attempted} checked outputs)")
    print(json.dumps({"correct": failed == 0 and checked.attempted > 0,
                      "attempted": checked.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
