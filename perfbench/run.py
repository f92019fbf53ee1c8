#!/usr/bin/env python3
"""Live-path benchmark: builds pb_sut and pb_gen from source, runs one
workload and prints one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--reps 10] [--seed N]

Run from the repository root. Build output, prepared state and run scratch
live under .bench_build/perfbench. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".bench_build", "perfbench")
BUILD = os.path.join(WORK, "build")
WORKLOADS = ("firehose", "live_tiered", "history_query")
# Wall-clock budget for everything after the build (the contract allows 180 s).
RUN_BUDGET_S = 170
# Prepared states kept in the cache (live_tiered ~10 MB, history_query ~40 MB).
CACHE_ENTRIES = 8

# Set-up-only SUT launches per run, made before and again after the timed
# phase (plus the real launch). On a shared VM restore time alternates
# between two levels about 1.4x apart, often within seconds; launches spread
# over the whole run sample both levels when they alternate within it.
SETUP_LAUNCHES = 10

class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build.

def build():
    os.makedirs(BUILD, exist_ok=True)
    out = open(os.path.join(WORK, "build.log"), "a")
    if subprocess.call(["cmake", "-S", BENCH_DIR, "-B", BUILD],
                       stdout=out, stderr=out) != 0:
        raise BenchError("cmake configure failed (see %s/build.log)" % WORK)
    if subprocess.call(["cmake", "--build", BUILD, "--target", "pb_sut", "pb_gen",
                        "-j", "4"], stdout=out, stderr=out) != 0:
        raise BenchError("build failed (see %s/build.log)" % WORK)
    return os.path.join(BUILD, "pb_sut"), os.path.join(BUILD, "pb_gen")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def copy_state(src, dest):
    """Copies a prepared state and makes it durable, so that writing back the
    copy's dirty pages does not fall into a later timed phase."""
    shutil.copytree(src, dest)
    for d, _, files in os.walk(dest):
        for name in files + ["."]:
            fd = os.open(os.path.join(d, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def manifest(root):
    out = {}
    for d, _, files in os.walk(root):
        for name in files:
            p = os.path.join(d, name)
            out[os.path.relpath(p, root)] = file_digest(p)
    return out


# --------------------------------------------------------------------------
# Prepared state: built from the seed by pb_gen, untimed. A cached copy is
# used only once a second, independent build has proven byte-identical.

def prepared_state(gen, workload, seed, dest):
    key = "%s-%d-%s" % (workload, seed, file_digest(gen)[:16])
    cache = os.path.join(WORK, "prep", key)
    mf = os.path.join(cache, "manifest.json")
    if os.path.exists(mf):
        with open(mf) as f:
            want = json.load(f)
        if manifest(os.path.join(cache, "state")) == want:
            copy_state(os.path.join(cache, "state"), dest)
            return "cached"
    shutil.rmtree(cache, ignore_errors=True)  # Absent, stale or half-written.
    tmp = cache + ".tmp%d" % os.getpid()
    shutil.rmtree(tmp, ignore_errors=True)
    builds = []
    for name in ("a", "b"):
        d = os.path.join(tmp, name)
        os.makedirs(tmp, exist_ok=True)
        if subprocess.call([gen, "prepare", "--workload=" + workload,
                            "--seed=%d" % seed, "--out=" + d],
                           stdout=subprocess.DEVNULL) != 0:
            raise BenchError("prepare failed")
        builds.append(manifest(d))
    copy_state(os.path.join(tmp, "a"), dest)
    if builds[0] == builds[1]:
        evict_cache()
        os.makedirs(cache, exist_ok=True)
        os.replace(os.path.join(tmp, "a"), os.path.join(cache, "state"))
        with open(mf, "w") as f:
            json.dump(builds[0], f)
        result = "built, cached"
    else:
        result = "built, not cached (two builds differ)"
    shutil.rmtree(tmp, ignore_errors=True)
    return result


def evict_cache():
    """Drops the oldest prepared states beyond CACHE_ENTRIES - 1."""
    root = os.path.join(WORK, "prep")
    if not os.path.isdir(root):
        return
    entries = sorted((os.path.getmtime(os.path.join(root, e)), e) for e in os.listdir(root))
    for _, e in entries[:max(0, len(entries) - CACHE_ENTRIES + 1)]:
        shutil.rmtree(os.path.join(root, e), ignore_errors=True)


# --------------------------------------------------------------------------
# Processes.

class Proc:
    def __init__(self, argv, err_path):
        self.err = open(err_path, "w")
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=self.err, text=True, bufsize=1)

    def read_line(self, deadline):
        while True:
            left = deadline - time.time()
            if left <= 0:
                raise BenchError("timed out waiting for %s" % self.p.args[0])
            ready, _, _ = select.select([self.p.stdout], [], [], min(left, 1.0))
            if ready:
                line = self.p.stdout.readline()
                if not line:
                    raise BenchError("%s exited early" % self.p.args[0])
                return line.strip()

    def send(self, text):
        self.p.stdin.write(text + "\n")
        self.p.stdin.flush()

    def wait(self, deadline):
        try:
            return self.p.wait(timeout=max(0.1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            raise BenchError("%s did not finish in time" % self.p.args[0])

    def kill(self):
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGKILL)
        self.p.wait()
        self.err.close()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(sut, gen, workload, seed, seconds, trace, deadline):
    """One SUT + generator run; returns (gen results, sut results, run dir)."""
    run_dir = os.path.join(WORK, "runs", "%s-%d-%d" % (workload, os.getpid(), trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    state = os.path.join(run_dir, "state")
    # Set-up-only launches restore a pristine copy: the timed run writes to
    # its state (checkpoints, spilled segments).
    probe_state = os.path.join(run_dir, "probe_state")
    sut_argv = [sut, "--workload=" + workload, "--trace=%d" % trace]
    probe_argv = sut_argv + ["--setup_only=1"]
    if workload != "firehose":
        log("prepared state: " + prepared_state(gen, workload, seed, state))
        copy_state(state, probe_state)
        sut_argv.append("--state=" + state)
        probe_argv.append("--state=" + probe_state)
    setup_times = [time_setup(probe_argv, deadline) for _ in range(SETUP_LAUNCHES)]
    procs = []
    ok = False
    try:
        g = Proc([gen, "run", "--workload=" + workload, "--seed=%d" % seed,
                  "--seconds=%d" % seconds, "--trace=%d" % trace, "--out=" + run_dir],
                 os.path.join(run_dir, "gen.err"))
        procs.append(g)
        port = int(g.read_line(deadline).split()[1])
        argv = sut_argv + ["--out=" + run_dir]
        if workload != "history_query":
            argv.append("--connect=%d" % port)
        t0 = time.perf_counter()
        s = Proc(argv, os.path.join(run_dir, "sut.err"))
        procs.append(s)
        qport = int(s.read_line(deadline).split()[1])
        setup_times.append(time.perf_counter() - t0)
        if workload != "firehose":
            g.send("QUERY_PORT %d" % qport)
        if g.wait(deadline) != 0:
            raise BenchError("generator failed (see %s/gen.err)" % run_dir)
        if workload == "history_query":
            s.send("STOP")
        if s.wait(deadline) != 0:
            raise BenchError("SUT failed (see %s/sut.err)" % run_dir)
        setup_times += [time_setup(probe_argv, deadline) for _ in range(SETUP_LAUNCHES)]
        ok = True
    finally:
        for p in procs:
            p.kill()
        shutil.rmtree(state, ignore_errors=True)
        shutil.rmtree(probe_state, ignore_errors=True)
        if not ok:
            keep_logs(run_dir)
    sut_results = load_json(os.path.join(run_dir, "sut.json"))
    sut_results["setup_s"] = statistics.median(setup_times)
    return load_json(os.path.join(run_dir, "gen.json")), sut_results, run_dir


def keep_logs(run_dir):
    """Keeps only the process logs of a failed run, under runs/failed."""
    dest = os.path.join(WORK, "runs", "failed")
    os.makedirs(dest, exist_ok=True)
    for name in ("gen.err", "sut.err"):
        src = os.path.join(run_dir, name)
        if os.path.exists(src):
            shutil.copy(src, os.path.join(dest, os.path.basename(run_dir) + "." + name))
    shutil.rmtree(run_dir, ignore_errors=True)


def time_setup(argv, deadline):
    """Seconds from launching the SUT to its READY line (set-up only)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        ready, _, _ = select.select([p.stdout], [], [], max(0.1, deadline - time.time()))
        line = p.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if not line.startswith("READY") or p.wait(timeout=30) != 0:
            raise BenchError("SUT set-up failed")
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    return elapsed


def percentile(values, q):
    """Nearest-rank percentile, as the C++ side computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, int(-(-q * len(v) // 1)))
    return v[min(rank, len(v)) - 1]


# Leading firehose passes that warm the allocator and page cache; they are
# checked for correctness but not measured.
WARMUP_PASSES = 2
# Tail percentile of firehose pass times. A 20 s run makes about 150 passes,
# so p90 would still have ten beyond it, but a host-noise episode covering a
# tenth of a run moves p90 (IQR/median 0.55 over one set of 10 runs, against
# 0.07 for the median); the upper quartile moves only with the median.
FIREHOSE_TAIL = 0.75


def firehose_passes(run_dir):
    """{workers: [(pass seconds, records, SUT CPU seconds)]} over measured
    passes. A pass runs from the generator's first byte to the SUT's Finish()
    returning, i.e. to the last session insert."""
    def rows(name):
        with open(os.path.join(run_dir, name)) as f:
            return [line.rstrip("\n").split("\t") for line in f if line.strip()]

    first_byte = {int(r[0]): int(r[1]) for r in rows("passes.tsv")}
    out = {}
    for r in rows("sut_passes.tsv"):
        p, workers, records, t_end, cpu = int(r[0]), int(r[1]), int(r[2]), int(r[3]), float(r[4])
        if p >= WARMUP_PASSES:
            out.setdefault(workers, []).append(((t_end - first_byte[p]) / 1e9, records, cpu))
    return out


# --------------------------------------------------------------------------
# Assembling one workload's result.

def evaluate(workload, gen, sut, run_dir):
    """Returns (end-to-end metrics, checks, attempted, failed, extras)."""
    m = {"setup_s": sut["setup_s"], "rss_peak_mb": sut["rss_peak_mb"]}
    checks = {}
    extras = {}
    if workload == "firehose":
        passes = firehose_passes(run_dir)
        two = passes.get(2, [])
        times = [t for t, _, _ in two]
        m["ops_per_s"] = statistics.median(r / t for t, r, _ in two)
        m["latency_p50_ms"] = percentile(times, 0.5) * 1e3
        m["latency_tail_ms"] = percentile(times, FIREHOSE_TAIL) * 1e3
        m["cpu_us_per_op"] = sum(c for _, _, c in two) * 1e6 / sum(r for _, r, _ in two)
        if passes.get(1):
            extras["core.speedup_vs_1w"] = m["ops_per_s"] / \
                statistics.median(r / t for t, r, _ in passes[1])
        enough_samples = len(times) * (1 - FIREHOSE_TAIL) >= 10
        passes = int(gen["passes"])
        checks["xor_digest"] = sut["xor_digest"] == gen["ref_xor_digest"]
        checks["chained_digest"] = sut["chained_digest"] == gen["ref_chained_digest"]
        checks["sessions"] = sut["sessions"] == gen["ref_sessions"]
        checks["records"] = sut["records"] == passes * gen["ref_records"]
        attempted = passes * int(gen["trace_records"])
        failed = int(sut["failed"] + gen["failed"]) * int(gen["trace_records"])
    else:
        for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
            m[k] = gen[k]
        m["cpu_us_per_op"] = sut["cpu_us_per_op"]
        enough_samples = gen["latency_n"] >= 10_000
        if workload == "live_tiered":
            checks["tiered_digest"] = sut["tiered_digest"] == gen["ref_tiered_digest"]
            checks["closes"] = gen["closes_missing"] == 0 and gen["closes_duplicate"] == 0
            checks["subscriber_dropped"] = gen["query.subscriber_dropped"] == 0
        else:
            checks["server_errors"] = sut["query_errors"] == 0
        checks["queries"] = gen["queries_failed"] == 0
        attempted = int(gen["attempted"])
        failed = int(gen["failed"] + sut["failed"]) + \
            sum(1 for ok in checks.values() if not ok)
    checks["metrics_nonzero"] = all(v > 0 for v in m.values())
    if not enough_samples:
        log("warning: fewer than ten samples beyond latency_tail_ms (run too short)")
    return m, checks, attempted, failed, extras


def run_workload(args):
    sut, gen = build()
    deadline = time.time() + RUN_BUDGET_S
    g, s, run_dir = run_once(sut, gen, args.workload, args.seed, args.seconds, 0, deadline)
    m, checks, attempted, failed, _ = evaluate(args.workload, g, s, run_dir)
    units = {x["name"]: x["unit"] for x in bench_spec()["end_to_end"]}
    if args.trace:
        # Per-layer numbers come from a second, traced run of the same seed;
        # the untraced run above is the baseline for the tracing overhead.
        tg, ts_, trace_dir = run_once(sut, gen, args.workload, args.seed, args.seconds, 1,
                                      deadline)
        tm, tchecks, t_attempted, t_failed, extras = evaluate(args.workload, tg, ts_, trace_dir)
        attempted += t_attempted
        failed += t_failed
        # The traced run must produce correct output; its timings are not
        # end-to-end numbers, so they need not be nonzero.
        checks.update({"traced_" + k: v for k, v in tchecks.items() if k != "metrics_nonzero"})
        layer = {}
        for src in (tg, ts_):
            for k, v in src.items():
                if isinstance(v, (int, float)):
                    layer[k] = v
        layer.update(extras)
        layer["query.us_p50"] = tg.get("query_p50_us", 0)
        layer["query.us_p99"] = tg.get("query_p99_us", 0)
        if args.workload == "live_tiered":
            layer["trace.overhead_share"] = tm["latency_p50_ms"] / m["latency_p50_ms"] - 1
        else:
            layer["trace.overhead_share"] = 1 - tm["ops_per_s"] / m["ops_per_s"]
        spans = os.path.join(trace_dir, "spans.tsv")
        if os.path.exists(spans):
            os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
            os.replace(spans, os.path.join(WORK, "trace", args.workload + ".spans.tsv"))
        shutil.rmtree(trace_dir, ignore_errors=True)
        units = {x["name"]: x["unit"] for x in bench_spec()["per_layer"]}
        metrics = {k: {"value": float(layer.get(k, 0.0)), "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": float(m[k]), "unit": units[k]} for k in units}
    bad = [k for k, ok in checks.items() if not ok]
    if bad:
        log("correctness checks failed: " + ", ".join(bad))
        keep_logs(run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": not bad and failed == 0, "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics}


def bench_spec():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Steadiness report.

def steadiness(args):
    spec = bench_spec()
    bounds = {x["name"]: x["bound"] for x in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    verdict_ok = True
    medians = {}
    for label, base in (("seeds", args.seed), ("held-out seeds", args.seed + 1000)):
        print("== %s %d..%d, %d s per run ==" % (label, base, base + args.reps - 1, seconds))
        for w in WORKLOADS:
            values = {k: [] for k in bounds}
            for i in range(args.reps):
                out = subprocess.run(
                    [sys.executable, __file__, "--workload", w, "--seed", str(base + i),
                     "--seconds", str(seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True)
                last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
                if out.returncode != 0 or not last.startswith("{"):
                    print("  %s seed %d: run failed" % (w, base + i))
                    verdict_ok = False
                    continue
                res = json.loads(last)
                if not res["correct"]:
                    print("  %s seed %d: INCORRECT" % (w, base + i))
                    verdict_ok = False
                for k in bounds:
                    values[k].append(res["metrics"][k]["value"])
            for k, bound in bounds.items():
                v = values[k]
                if len(v) < 4:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if spread > bound:
                    flag = "  OUTSIDE BOUND"
                    verdict_ok = False
                elif spread > bound / 3:
                    flag = "  above bound/3"
                prev = medians.get((w, k))
                drift = ""
                if prev is not None:
                    better = next(x["better"] for x in spec["end_to_end"] if x["name"] == k)
                    worse = (prev - med) / prev if better == "higher" else (med - prev) / prev
                    drift = "  median drift %+.3f" % worse
                    if worse > bound:
                        drift += " WORSE THAN BOUND"
                        verdict_ok = False
                medians[(w, k)] = med
                print("  %-14s %-15s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f "
                      "(%.2f of bound %.2f)%s%s" % (w, k, med, q1, q3, spread, spread / bound,
                                                     bound, flag, drift))
                print("      runs: " + " ".join("%.4g" % x for x in v))
    print("verdict: %s" % ("steady" if verdict_ok else "NOT steady"))
    return 0 if verdict_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="repeat each workload and report spread against the bounds")
    ap.add_argument("--reps", type=int, default=10)
    args = ap.parse_args()
    try:
        if args.steadiness:
            return steadiness(args)
        if args.workload is None:
            ap.error("--workload is required")
        if args.seconds <= 0:
            args.seconds = bench_spec()["run_seconds"]
        result = run_workload(args)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log("benchmark failed: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
