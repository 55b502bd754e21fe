"""End-to-end and per-layer benchmark of the mmcl toolkit.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `mmcl` from its `src`
directory. One process runs one workload as a closed loop: one library call
after another until `--seconds` have passed, with BLAS and OpenMP pinned to
one thread. `--trace 0` prints the end-to-end metrics of BENCHMARK.json,
with times in reference seconds (see PROBE_REF_S); `--trace 1` alternates
untraced and traced calls and prints the per-layer metrics. Human-readable lines come first; the last line of standard output
is one JSON object. Exit code 0 means every output check passed, 1 that a
check failed or a call raised, 2 that the benchmark could not start.
"""

import os

# pin before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MIN_CALLS = 2  # two calls with one seed, so every run checks reproducibility
# On a shared virtual machine (see README.md) speed drifts by +-20% over tens
# of seconds, which no run length averages out. A fixed probe, independent of mmcl, reads the current speed;
# end-to-end times are reported in reference seconds, scaled by
# PROBE_REF_S / (median probe time of the same phase). Probing takes about a
# tenth of each phase.
PROBE_LOOPS = 5000
PROBE_REF_S = 0.04
PROBE_SHARE = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def probe():
    """Seconds for a fixed loop of small numpy ops and Python glue, the same
    instruction mix as the library's autodiff, on unchanging inputs."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w, b = rng.standard_normal((32, 16)), rng.standard_normal((16, 16)), np.zeros(16)
    acc = 0.0
    t = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        h = np.tanh(x @ w + b)
        acc += float(((1.0 - h * h) @ w.T)[0, 0])
    return time.perf_counter() - t


def probe_for(seconds):
    """Probe times filling PROBE_SHARE of `seconds`; at least one."""
    times = [probe()]
    while sum(times) < PROBE_SHARE * seconds:
        times.append(probe())
    return times


class Prober:
    """Each call probes for PROBE_SHARE of the time since the previous call,
    and keeps count of the time it spent, so that callers can exclude it."""

    def __init__(self):
        self.times = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def __call__(self):
        start = time.perf_counter()
        self.times += probe_for(start - self.last)
        self.last = time.perf_counter()
        self.spent += self.last - start


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(wl, snaps, traced_walls, untraced_walls, setup_phases):
    """Per-layer metrics from the traced calls' snapshots. Times are medians
    over traced calls; counts are per call and must repeat exactly."""
    from tracing import OP_COUNTS

    def med_self(predicate):
        return statistics.median(
            sum(v for k, v in s["self_s"].items() if predicate(k)) for s in snaps)

    def key_is(name):
        return lambda k: k == name

    def layer(name):
        return lambda k: k.split(".")[0] == name

    first = snaps[0]
    calls = first["calls"]
    steps = calls.get("optim.step", 0) or wl.work()
    useful = sum(u for u, _ in first["grad_by_call"])
    written = sum(w for _, w in first["grad_by_call"])
    keys = first["pretrain_keys"]
    gaps = [g for s in snaps for g in s["step_gaps_ms"]]
    values = {
        "autodiff.backward.self_s": med_self(key_is("autodiff.backward")),
        "autodiff.ops": first["outer_ops"],
        **{f"autodiff.ops.{op}": first["ops"].get(op, 0) for op in OP_COUNTS},
        "autodiff.ops_per_step": first["outer_ops"] / steps,
        "autodiff.grad_ops": first["grad_ops"],
        "autodiff.grad_useful_frac": useful / written if written else 1.0,
        "autodiff.grad_useful_frac.worst": min(
            (u / w for u, w in first["grad_by_call"] if w), default=1.0),
        "encoders.self_s": med_self(layer("encoders")),
        "encoders.mlp.self_s": med_self(key_is("encoders.mlp")),
        "encoders.lstm.self_s": med_self(key_is("encoders.lstm")),
        "encoders.calls": calls.get("encoders.mlp", 0) + calls.get("encoders.lstm", 0),
        "losses.self_s": med_self(layer("losses")),
        "losses.weighted_ovo.self_s": med_self(key_is("losses.weighted_ovo")),
        "losses.infonce_pair.self_s": med_self(key_is("losses.infonce_pair")),
        "fusion.self_s": med_self(layer("fusion")),
        "fusion.mlstm.self_s": med_self(key_is("fusion.mlstm")),
        "fusion.head.self_s": med_self(key_is("fusion.head")),
        "fusion.concat.self_s": med_self(key_is("fusion.concat")),
        "fusion.loss.self_s": med_self(key_is("fusion.loss")),
        "optim.step.self_s": med_self(key_is("optim.step")),
        "optim.steps": calls.get("optim.step", 0),
        "metrics.self_s": med_self(layer("metrics")),
        "metrics.auroc.self_s": med_self(key_is("metrics.auroc")),
        "metrics.auroc.calls": calls.get("metrics.auroc", 0),
        "metrics.top5.self_s": med_self(key_is("metrics.top5")),
        "metrics.top5.calls": calls.get("metrics.top5", 0),
        "kernels.self_s": med_self(layer("kernels")),
        "kernels.calls": calls.get("kernels", 0),
        "kernels.bytes_computed": first["kernel_bytes"],
        "attribution.ig.self_s": med_self(key_is("attribution.ig")),
        "cohort.generate_s": statistics.median(p["generate_s"] for p in setup_phases),
        "cohort.save_s": statistics.median(p["save_s"] for p in setup_phases),
        "cohort.load_s": statistics.median(p["load_s"] for p in setup_phases),
        "harness.pretrain.calls": len(keys),
        "harness.pretrain_unique_frac": len(set(keys)) / len(keys) if keys else 1.0,
        "harness.step_ms.p50": percentile(gaps, 50),
        "harness.step_ms.p95": percentile(gaps, 95),
        "harness.glue_s": statistics.median(
            wall - sum(v for k, v in s["self_s"].items() if not k.startswith("harness"))
            for wall, s in zip(traced_walls, snaps)),
        "trace.wall_s": statistics.median(traced_walls),
        "trace.overhead_frac": (statistics.median(traced_walls)
                                / statistics.median(untraced_walls) - 1.0),
    }
    problems = []
    for field in ("calls", "ops", "outer_ops", "grad_ops", "kernel_bytes", "grad_by_call",
                  "pretrain_keys"):
        if any(s[field] != first[field] for s in snaps[1:]):
            problems.append(f"trace count {field} differs between identical calls")
    return values, problems


def set_up(cls, seed, sizes, reference):
    """Build the workload SETUP_REPEATS times in a temporary directory inside
    the checkout, probing after each; the last build is the one timed."""
    times, phases, probes = [], [], probe_for(0.0)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        for _ in range(SETUP_REPEATS):
            wl = cls(seed, sizes, reference)
            t = time.perf_counter()
            phases.append(wl.setup(workdir))
            times.append(time.perf_counter() - t)
            probes += probe_for(times[-1])
    return wl, statistics.median(times), phases, statistics.median(probes)


class Loop:
    """Closed loop over `wl.run()`. With a tracer, every second call is
    traced; without one, the speed probe runs between and inside calls."""

    def __init__(self, wl, seconds, tracer):
        self.walls, self.traced_walls, self.snaps = [], [], []
        self.prober = None if tracer else Prober()
        self.attempted = self.failed = 0
        self.problems = []
        self.first_output = self.first_digest = None
        start = time.perf_counter()
        min_calls = 2 * MIN_CALLS if tracer else MIN_CALLS
        calls = 0
        while calls < min_calls or time.perf_counter() - start < seconds:
            calls += 1
            if not self.call(wl, tracer if calls % 2 == 0 else None, calls):
                break

    def call(self, wl, tracer, n):
        if tracer:
            tracer.reset()
            tracer.install()
        spent = self.prober.spent if self.prober else 0.0
        t = time.perf_counter()
        try:
            output = wl.run(self.prober)
        except Exception:  # the library failed: count it, report it, stop
            traceback.print_exc()
            self.problems.append(f"call {n} raised")
            self.attempted += 1
            self.failed += 1
            return False
        finally:
            elapsed = time.perf_counter() - t
            if tracer:
                tracer.uninstall()
        if self.prober:
            elapsed -= self.prober.spent - spent
            self.prober()
        if tracer:
            self.traced_walls.append(elapsed)
            self.snaps.append(tracer.snapshot())
        else:
            self.walls.append(elapsed)
        units, bad = wl.units(output)
        self.attempted += units
        self.failed += bad
        d = wl.digest(output)
        if self.first_output is None:
            self.first_output, self.first_digest = output, d
        elif d != self.first_digest:
            self.problems.append(f"call {n} output differs bitwise from call 1 (same seed)")
        return True


def main(argv=None, tiny=False):
    """`tiny` swaps in the smoke-test sizes, which have no recorded reference."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mmcl", "__init__.py")):
        print(f"error: no mmcl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)

    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0

    if tiny:
        sizes, reference = workloads.TINY, None
    else:
        sizes, reference = workloads.FULL, load_json(os.path.join(HERE, "reference.json"))
    wl, setup_median, phases, setup_probe = set_up(workloads.WORKLOADS[args.workload],
                                                   args.seed, sizes, reference)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    loop = Loop(wl, args.seconds, tracer)

    problems = list(loop.problems)
    if loop.first_output is not None:
        problems += wl.check(loop.first_output)
    metrics = {}
    if loop.snaps:
        metrics, trace_problems = layer_metrics(wl, loop.snaps, loop.traced_walls, loop.walls,
                                                phases)
        problems += trace_problems
    attempted = loop.attempted
    failed = attempted if problems else loop.failed
    if loop.walls and tracer is None:
        raw_setup_s, raw_wall_s = import_s + setup_median, statistics.median(loop.walls)
        call_probe = statistics.median(loop.prober.times)
        wall_s = raw_wall_s * PROBE_REF_S / call_probe
        metrics = {
            "setup_s": raw_setup_s * PROBE_REF_S / setup_probe,
            "wall_s": wall_s,
            "throughput": wl.work() / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    specs = bench["per_layer"] if tracer else bench["end_to_end"]

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(loop.walls)} untraced and "
          f"{len(loop.traced_walls)} traced calls; output sha256 {loop.first_digest}")
    if "throughput" in metrics:
        print(f"  {wl.throughput_name} = {metrics['throughput']:.6g} {wl.unit}/s")
        print(f"  measured: setup {raw_setup_s:.6g} s, call {raw_wall_s:.6g} s; probe "
              f"{setup_probe:.6g} s in set-up, {call_probe:.6g} s between calls "
              f"(reference {PROBE_REF_S} s)")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted} units)")
    result = {}
    for spec in specs:
        if spec["name"] in metrics:
            value = metrics[spec["name"]]
            print(f"  {spec['name']} = {value:.6g} {spec['unit']}")
            result[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = not problems and len(result) == len(specs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
