"""arithdyn benchmark: one workload, one result line.

    python3 perfbench/run.py --workload conjugates --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; arithdyn is imported from ./src.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end metrics; with
--trace 1 they are the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_speed
from bench_spans import MODULES

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3          # the worker's own set-up and two probes
WORKER_TIMEOUT = 170

END_TO_END = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]


def op_key(label):
    """The operation a timed call belongs to: calls labelled `op@pass` are
    passes of one operation within a round."""
    return label.partition("@")[0]


def _layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    calls_s = ["polyforms.nullstellensatz_cofactors", "polyforms.resultant",
               "polyforms.certified_roots_mp", "numutil.factorize",
               "dynamics.escape_rate_exact_pair", "dynamics.padic_gcd_valuations",
               "dynamics.iterate", "algebraic.mahler_measure",
               "torus.monomial_pushforward", "green.escape_vec",
               "green.filled_julia_membership"]
    out = []
    for name in calls_s:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out += [(f"{name}.s", "s") for name in (
        "dynamics.canonical_height_global", "dynamics.canonical_height_local",
        "dynamics.orbit_gcds", "projective.enumerate_points",
        "projective.count_points", "algebraic.is_root_of_unity",
        "algebraic.local_height_breakdown", "green.annulus_mass_bound",
        "green.transfinite_diameter", "green.baker_mean_pairing",
        "green.discrete_energy")]
    out += [("dynamics.canonical_height_global.self_s", "s"),
            ("dynamics.canonical_height_local.self_s", "s"),
            ("polyforms.certified_roots_mp.degree_sum", "count"),
            ("polyforms.roots_per_poly", "ratio"),
            ("dynamics.err_to_tol_mean", "ratio"),
            ("algebraic.err_to_tol_mean", "ratio"),
            ("algebraic.is_root_of_unity.first_call_s", "s"),
            ("green.escape_vec.points", "count"),
            ("green.escape_vec.points_per_s", "1/s"),
            ("green.minimize.calls", "count"), ("green.minimize.nfev", "count"),
            ("green.polish_gain_ratio", "ratio"),
            ("green.fekete_log_delta_sum", "nats"),
            ("cli.import_s", "s")]
    from bench_workloads import cli_commands
    for label, _, _ in cli_commands("."):
        out += [(f"cli.{label}.process_s", "s"), (f"cli.{label}.main_s", "s")]
    out += [(f"{m}.self_s", "s") for m in MODULES]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("heights", "conjugates", "fekete", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "worker", "probe"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# coordinator: set-up samples and the worker
# ---------------------------------------------------------------------------

def _spawn(args, role):
    """Start a worker or probe; return (process, start, seconds until it is
    ready)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} did not finish its set-up")
    return proc, t0, ready


def _finish(proc, timeout):
    """Wait for a started process; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def coordinate(args):
    if args.trace:
        worker, _, _ = _spawn(args, "worker")
        print(_finish(worker, WORKER_TIMEOUT).strip().splitlines()[-1])
        return 0
    # a reference process before each set-up, none while the worker is timed
    pacer = _pacer(True)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe, t0, ready = _spawn(args, "probe")
        _finish(probe, 60)
        pacer.sample()
        setups.append((t0, ready))
    worker, t0, ready = _spawn(args, "worker")
    setups.append((t0, ready))
    result = json.loads(_finish(worker, WORKER_TIMEOUT).strip().splitlines()[-1])
    print("set-up wall clock: " + ", ".join(f"{dt:.4f} s" for _, dt in setups),
          file=sys.stderr)
    result["metrics"]["setup_s"] = {
        "value": statistics.median(pacer.scaled(t0, dt) for t0, dt in setups),
        "unit": "s"}
    result["metrics"] = {name: result["metrics"][name] for name, _ in END_TO_END}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# worker: set-up, timed rounds, checks
# ---------------------------------------------------------------------------

def _pacer(processes):
    """The reference for operations that start processes, or for ones that
    run in this process (bench_speed.py)."""
    if processes:
        return bench_speed.Pacer(bench_speed.process_seconds,
                                 bench_speed.PROCESS_NOMINAL_S)
    return bench_speed.Pacer()


def run_round(wl, inp, pacer=None):
    """Run one round; returns (results by label, [(label, seconds, start)],
    errors, wall seconds).  A pacer times its reference between the
    operations."""
    ops = wl.ordered(wl.ops(inp))
    results, lat, errors = {}, [], []
    t_round = time.perf_counter()
    for label, call in ops:
        t0 = time.perf_counter()
        try:
            results[label] = call()
        except Exception as exc:     # a failed operation is counted, not fatal
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        lat.append((label, time.perf_counter() - t0, t0))
        if pacer is not None:
            pacer.tick()
    if pacer is not None:
        pacer.sample()
    return results, lat, errors, time.perf_counter() - t_round


def _import_seconds(samples=3):
    """Fresh-interpreter `import arithdyn.cli`, median of a few processes."""
    from bench_workloads import child_env
    code = ("import time; t = time.perf_counter(); import arithdyn.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              check=True, capture_output=True, text=True,
                              timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


class Layers:
    """Per-layer sums over the traced rounds of one run."""

    def __init__(self):
        self.rounds = 0
        self.names = {}
        self.modules = {}
        self.counts = {}
        self.samples = {}
        self.distinct = 0
        self.quality = {}
        self.process = {}
        self.main = {}
        self.traced_s = 0.0
        self.untraced_s = 0.0

    def add(self, rec, quality):
        per_name, per_module = rec.aggregate()
        self.rounds += 1
        for name, row in per_name.items():
            acc = self.names.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for d, src in ((self.modules, per_module), (self.counts, rec.counts),
                       (self.quality, quality)):
            for k, v in src.items():
                d[k] = d.get(k, 0.0) + v
        for k, v in rec.samples.items():
            self.samples.setdefault(k, []).extend(v)
        self.distinct += len(rec.distinct["polyforms.certified_roots_mp"])
        rec.reset()

    def add_times(self, bucket, times):
        for k, v in times.items():
            bucket[k] = bucket.get(k, 0.0) + v

    def metrics(self, first_call, import_s):
        n = max(self.rounds, 1)

        def name(key, i):
            return self.names.get(key, [0, 0.0, 0.0])[i] / n

        def mean(key):
            vals = self.samples.get(key, [])
            return sum(vals) / len(vals) if vals else 0.0

        roots = self.names.get("polyforms.certified_roots_mp", [0])[0]
        minimize = self.names.get("green.minimize", [0])[0]
        escape = self.names.get("green.escape_vec", [0, 0.0])
        values = {
            "polyforms.certified_roots_mp.degree_sum":
                self.counts.get("polyforms.certified_roots_mp.degree_sum", 0) / n,
            "polyforms.roots_per_poly": roots / self.distinct if self.distinct else 0.0,
            "dynamics.err_to_tol_mean": mean("dynamics.err_to_tol"),
            "algebraic.err_to_tol_mean": mean("algebraic.err_to_tol"),
            "algebraic.is_root_of_unity.first_call_s":
                first_call.get("algebraic.is_root_of_unity", 0.0),
            "green.escape_vec.points": self.counts.get("green.escape_vec.points", 0) / n,
            "green.escape_vec.points_per_s":
                self.counts.get("green.escape_vec.points", 0) / escape[1]
                if escape[1] else 0.0,
            "green.minimize.calls": minimize / n,
            "green.minimize.nfev": self.counts.get("green.minimize.nfev", 0) / n,
            "green.polish_gain_ratio":
                self.counts.get("green.minimize.gains", 0) / minimize if minimize else 0.0,
            "green.fekete_log_delta_sum":
                self.quality.get("green.fekete_log_delta_sum", 0.0) / n,
            "cli.import_s": import_s,
            "trace.overhead_ratio": self.traced_s / self.untraced_s,
        }
        out = {}
        for key, unit in _layer_metrics():
            base, _, field = key.rpartition(".")
            if key in values:
                v = values[key]
            elif key.startswith("cli.") and field in ("process_s", "main_s"):
                bucket = self.process if field == "process_s" else self.main
                v = bucket.get(key[4:].rpartition(".")[0], 0.0) / n
            elif field == "self_s" and base in MODULES:
                v = self.modules.get(base, 0.0) / n
            elif field == "self_s":
                v = name(base, 2)
            elif field == "calls":
                v = name(base, 0)
            else:
                v = name(base, 1)
            out[key] = {"value": v, "unit": unit}
        return out


def work(args):
    sys.path.insert(0, str(Path.cwd() / "src"))
    import bench_workloads as bw
    classes = {c.name: c for c in (bw.Heights, bw.Conjugates, bw.Fekete, bw.Cli)}
    (HERE / "_run").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_run")
    try:
        return _work(args, classes[args.workload](args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _latency_metrics(timed):
    """(operations per second, median latency) from each operation's median
    latency over the run; `timed` holds (operation, seconds) pairs."""
    by_op = {}
    for key, dt in timed:
        by_op.setdefault(key, []).append(dt)
    per_op = [statistics.median(v) for v in by_op.values()]
    return len(per_op) / sum(per_op), statistics.median(per_op)


def _work(args, wl):
    is_cli = wl.name == "cli"
    rec = None
    if args.trace:
        import bench_spans
        rec = bench_spans.Recorder()
        bench_spans.install(rec)
    inp = wl.inputs()
    # warm-up on inputs that are not timed; fills lazy one-time state
    if rec is not None:
        rec.on = True
    run_round(wl, wl.warmup_inputs())
    if rec is not None and is_cli:
        wl.in_process(rec, True)
    if rec is not None:
        rec.on = False
        first_call = dict(rec.first_call)
        rec.reset()
    print("READY", flush=True)
    if args.role == "probe":
        return 0

    layers = Layers()
    rounds, in_process, errors = [], [], []
    timed = []         # (operation, seconds, start) of the untraced rounds
    pacer = None if rec is not None else _pacer(is_cli)
    attempted = 0
    t_begin = time.perf_counter()
    round_index = 0
    while True:
        res, l, err, w = run_round(wl, inp, pacer)
        if err:
            errors += err
        else:
            rounds.append(res)
        timed += [(op_key(label), dt, t0) for label, dt, t0 in l]
        attempted += len(l)
        print(f"round {round_index}: {len(l)} operations in {w:.3f} s",
              file=sys.stderr)
        if rec is not None and is_cli:
            layers.add_times(layers.process, {label: dt for label, dt, _ in l})
            t, out = wl.in_process(rec, False)
            layers.untraced_s += sum(t.values())
            layers.add_times(layers.main, t)
            in_process.append(out)
            t, out = wl.in_process(rec, True)
            layers.traced_s += sum(t.values())
            layers.add(rec, {})
            in_process.append(out)
        elif rec is not None:
            rec.on = True
            res_t, l_t, err_t, w_t = run_round(wl, inp)
            rec.on = False
            attempted += len(l_t)
            layers.untraced_s += w
            layers.traced_s += w_t
            layers.add(rec, {} if err_t else wl.quality(inp, res_t))
            if err_t:
                errors += err_t
            else:
                rounds.append(res_t)
        round_index += 1
        if time.perf_counter() - t_begin + w / 2 >= args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024

    # checks, outside the timed section
    msgs, failed = [], len(errors)
    for res in rounds:
        m, f = wl.check(inp, res)
        msgs += m
        failed += f
    for out in in_process:
        msgs += wl.check_in_process(inp, out)
    for label, how in getattr(wl, "modes", {}).items():
        print(f"{label}: {how}", file=sys.stderr)
    for m in errors:
        print(f"FAILED: {m}", file=sys.stderr)
    for m in msgs[:20]:
        print(f"CHECK FAILED: {m}", file=sys.stderr)

    if args.trace:
        metrics = layers.metrics(first_call, _import_seconds())
    else:
        # each operation's median latency over the run, scaled to the
        # reference's nominal speed (bench_speed.py); the wall-clock figures
        # go to stderr
        ops_per_s, p50 = _latency_metrics(
            [(key, pacer.scaled(t0, dt)) for key, dt, t0 in timed])
        wall_ops_per_s, wall_p50 = _latency_metrics(
            [(key, dt) for key, dt, _ in timed])
        print(f"wall clock: {wall_ops_per_s:.4f} operations/s, median "
              f"{1e3 * wall_p50:.4f} ms; reference median "
              f"{1e3 * statistics.median(pacer.samples):.4f} ms (nominal "
              f"{1e3 * pacer.nominal} ms)", file=sys.stderr)
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not msgs, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (Path.cwd() / "src" / "arithdyn" / "__init__.py").is_file():
        print("run from the root of an arithdyn checkout (no src/arithdyn here)",
              file=sys.stderr)
        return 2
    if args.role == "main":
        try:
            return coordinate(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
