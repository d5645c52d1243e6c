#!/usr/bin/env python3
"""End-to-end benchmark of dmt's two user paths.

  mining:  basket containers on disk -> FP-growth -> rules -> rule file
  serving: client socket write -> dmtd -> response read back

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload mine_dense --seed 1 --seconds 10 \\
      --trace 0
  python3 perfbench/run.py --workload all     (every workload in turn)
  python3 perfbench/run.py --self-test

The first run in a checkout builds the program from source into
.bench_build/ (perfbench/CMakeLists.txt). Inputs are generated from the
seed and cached there by seed. Human-readable tables go to stdout first;
the last stdout line is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. perfbench/README.md documents workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import pblib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"

# The workload's store: Quest T10.I4 over 1,000 items and 2,000 patterns,
# generated once from a fixed seed. --seed draws the run's baskets from it.
STORE = {"tlen": 10, "ilen": 4, "items": 1000, "patterns": 2000,
         "base-seed": 1996}

# Mining runs on one thread: on a few shared vCPUs, whether a 4-worker
# pool is spread over the CPUs or stacked on one changes from one process
# to the next, so a multi-threaded op time measures the guest scheduler
# (README.md, "Sandbox caveats").
MINE_THREADS = 1

WORKLOADS = {
    "mine_dense": {
        "path": "mine", "base_transactions": 200_000,
        "transactions": 100_000, "support": 0.0025, "confidence": 0.5,
        "partitions": 0, "warmup_ops": 2, "min_ops": 5, "setup_reps": 9,
    },
    "mine_ooc": {
        "path": "mine", "base_transactions": 2_000_000,
        "transactions": 1_000_000, "support": 0.0075, "confidence": 0.5,
        "partitions": 8, "warmup_ops": 1, "min_ops": 3, "setup_reps": 3,
    },
    "serve_hot": {
        "path": "serve", "mix": "hot", "light_rate": 2000,
        "heavy_rate": 50000, "setup_reps": 9,
    },
    "serve_cold": {
        "path": "serve", "mix": "cold", "light_rate": 2000,
        "heavy_rate": 3000, "setup_reps": 9,
    },
}

# One fixed daemon configuration for both serving workloads. With four or
# more CPUs, dmtd is pinned to the first two and the load generator to the
# next two, so the generator never competes with the daemon for a core.
DMTD_FLAGS = ["--threads", "2", "--cache", "512"]
# The model bundle dmtd serves: part of the serving workloads' definition,
# like the store, so it is built once from a fixed seed; --seed draws the
# traffic. Rules come from a 100K draw of the dense store.
BUNDLE_SEED = 1996
BUNDLE = {"base_transactions": 200_000, "transactions": 100_000,
          "support": 0.0045, "confidence": 0.5, "agrawal-function": 2,
          "train-rows": 10000, "clusters": 9, "cluster-points": 60}
# Open-loop client: connections (one thread each), request shape, mix.
LOADGEN = {"conns": 4, "top-k": 5, "hot-set": 32, "p-recommend": 0.5,
           "p-tree": 0.1, "p-knn": 0.2, "p-nb": 0.1, "warmup-s": 1.0,
           "cycles": 4, "settle-s": 0.2, "drain-s": 3.0,
           "oracle-threads": 4}

END_TO_END = [("setup_s", "s"), ("latency_ms", "ms"), ("cpu_ms", "ms"),
              ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """A failure of the benchmark itself (not of the program's outputs)."""


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / target).resolve()
    if ROOT.resolve() not in path.parents:
        path = ROOT / ".bench_build"
    return path


def check_source_tree():
    needed = [ROOT / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt",
              ROOT / "tools" / "dmtd.cc", BENCH_DIR / "CMakeLists.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError("not a dmt source checkout (missing %s)"
                         % ", ".join(missing))


def build(build_root, targets=("pbtool", "dmtd", "dmt_pack")):
    check_source_tree()
    cmake_dir = build_root / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(cmake_dir), "-j", "4", "--target"]
              + list(targets))
    return {"pbtool": cmake_dir / "pbtool",
            "dmtd": cmake_dir / "dmt" / "tools" / "dmtd",
            "dmt_pack": cmake_dir / "dmt" / "tools" / "dmt_pack",
            "selftest": cmake_dir / "pbtool_selftest"}


def run_quiet(cmd):
    """Runs a build or set-up step; its output goes to stderr."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("%s exited with %d" % (cmd[0], done.returncode))


def json_lines(cmd, timeout, cpus=None):
    """Runs a pbtool subcommand and parses its JSON-lines stdout."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout, text=True,
                              preexec_fn=pin(cpus))
    except subprocess.TimeoutExpired as e:
        raise BenchError("%s timed out" % " ".join(cmd[:2])) from e
    if done.returncode != 0:
        raise BenchError("%s exited with %d"
                         % (" ".join(cmd[:2]), done.returncode))
    return [json.loads(line) for line in done.stdout.splitlines() if line]


def flag_args(mapping):
    out = []
    for key, value in mapping.items():
        out += ["--" + key, str(value)]
    return out


def store_args(data, base_transactions):
    store = dict(STORE, **{"base-transactions": base_transactions})
    name = "store-T%(tlen)s-I%(ilen)s-N%(items)s-L%(patterns)s-" % store
    name += "D%d-s%d.dmtb" % (base_transactions, store["base-seed"])
    return flag_args(dict(store, base=data / name))


def config_key(*configs):
    """Short digest of the settings a cached input was generated with."""
    text = json.dumps(configs, sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()[:10]


def seed_dir(data, workload, cfg, seed, keep=4):
    """Per-(workload settings, seed) cache directory; the oldest beyond
    `keep` are removed so the cache stays bounded."""
    root = data / ("%s-%s" % (workload, config_key(cfg, STORE)))
    root.mkdir(parents=True, exist_ok=True)
    old = sorted((p for p in root.iterdir() if p.name.startswith("seed-")),
                 key=lambda p: p.stat().st_mtime)
    target = root / ("seed-%d" % seed)
    for stale in [p for p in old if p != target][:max(0, len(old) - keep)]:
        shutil.rmtree(stale, ignore_errors=True)
    target.mkdir(exist_ok=True)
    os.utime(target)
    return target


def cached(meta_path, make, *outputs):
    """Returns the JSON record at meta_path, creating it (and `outputs`)
    with make() unless the record and every output already exist."""
    if meta_path.exists() and all(p.exists() for p in outputs):
        return json.loads(meta_path.read_text())
    record = make()
    tmp = meta_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    tmp.replace(meta_path)
    return record


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- mining


def run_mining(name, cfg, args, tools, data):
    work = seed_dir(data, name, cfg, args.seed)
    baskets = work / "baskets.txt"
    common = store_args(data, cfg["base_transactions"]) + flag_args({
        "transactions": cfg["transactions"], "support": cfg["support"],
        "confidence": cfg["confidence"]})
    reference = cached(work / "reference.json", lambda: json_lines(
        [str(tools["pbtool"]), "gen-mine", "--seed", str(args.seed),
         "--out", str(baskets)] + common, timeout=150)[0], baskets)

    # Set-up: the program packs (or partitions) the generated baskets.
    stage = work / "containers"
    setup = []
    for _ in range(cfg["setup_reps"]):
        shutil.rmtree(stage, ignore_errors=True)
        stage.mkdir()
        if cfg["partitions"]:
            cmd = [str(tools["dmt_pack"]), "partition", str(baskets),
                   str(stage / "db"), str(cfg["partitions"])]
        else:
            cmd = [str(tools["dmt_pack"]), "pack", str(baskets),
                   str(stage / "db.dmtb")]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       stderr=sys.stderr)
        setup.append(time.perf_counter() - t0)
    inputs = sorted(str(p) for p in stage.iterdir())

    cmd = [str(tools["pbtool"]), "mine",
           "--mode", "ooc" if cfg["partitions"] else "memory",
           "--inputs", ",".join(inputs), "--out", str(work / "rules.dmtr"),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--warmup", str(cfg["warmup_ops"]),
           "--min-ops", str(cfg["min_ops"] * (2 if args.trace else 1)),
           "--trace-out", str(work / "program_trace.json"),
           "--spans-out", str(work / "spans.json")] + flag_args({
               "transactions": cfg["transactions"],
               "support": cfg["support"], "confidence": cfg["confidence"],
               "threads": MINE_THREADS})
    host0 = pblib.read_proc_stat()
    records = json_lines(cmd, timeout=150)
    steal = pblib.steal_share(host0, pblib.read_proc_stat())
    ops = [r for r in records if "op" in r]
    peak_kb = [r for r in records if "peak_rss_kb" in r][0]["peak_rss_kb"]

    # Oracle: every op's reloaded rule file equals the reference.
    failed = sum(1 for r in ops if r["digest"] != reference["digest"]
                 or r["rules"] != reference["rules"]
                 or r["reloaded_rules"] != reference["rules"]
                 or r["itemsets"] != reference["itemsets"])
    measured = [r for r in ops if not r["warm"] and not r["traced"]]
    print("# %s: %s, %d itemsets, %d rules per op; %d ops (%d warm-up)"
          % (name, reference["workload"], reference["itemsets"],
             reference["rules"], len(ops), cfg["warmup_ops"]))
    result = {
        "attempted": len(ops), "failed": failed, "steal": steal,
        "samples": {"setup_s": len(setup), "latency_ms": len(measured),
                    "cpu_ms": len(measured), "peak_rss_mb": 1},
        "e2e": {
            "setup_s": median(setup),
            "latency_ms": 1e3 * median([r["wall_s"] for r in measured]),
            "cpu_ms": 1e3 * median([r["cpu_s"] for r in measured]),
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "diag": {"setup_samples_s": setup,
                 "op_wall_s": [r["wall_s"] for r in measured]},
    }
    if args.trace:
        result["layers"] = mining_layers(work, ops, measured)
    return result


def mining_layers(work, ops, untraced):
    traced = [r for r in ops if r["traced"]]
    spans = json.loads((work / "spans.json").read_text())
    nodes = [{"id": s["id"], "name": s["name"], "start": s["start_us"],
              "end": s["end_us"], "tid": spans["tid"], "parent": s["parent"]}
             for s in spans["spans"]]
    events = json.loads((work / "program_trace.json").read_text())
    for i, e in enumerate(events["traceEvents"]):
        if e.get("ph") != "X":
            continue
        nodes.append({"id": "p%d" % i, "name": e["name"], "start": e["ts"],
                      "end": e["ts"] + e["dur"], "tid": e["tid"],
                      "parent": None})
    pblib.infer_parents(nodes)
    rows, roots = pblib.self_time_table(nodes)
    print("# self time per op, %d traced ops (benchmark spans: op, io.*, "
          "assoc.*; program spans: <module>/...)" % roots)
    print(pblib.render_table(rows, roots))

    def per_op(names):
        return pblib.sum_named(rows, names) / roots * 1e-3 if roots else 0.0

    def med(key):
        return median([r[key] for r in traced])

    loads = {"io/serialize/load/transactions",
             "io/serialize/load/transactions_mmap"}
    untraced_wall = median([r["wall_s"] for r in untraced])
    traced_wall = median([r["wall_s"] for r in traced])
    root_self = sum(r["self"] for r in rows if r["depth"] == 0)
    return {
        "io.load_ms": per_op(loads),
        "io.write_ms": per_op({"io.write"}),
        "io.bytes_written": med("bytes_written"),
        "io.bytes_mapped": med("bytes_mapped"),
        "assoc.build_ms": per_op({"assoc/fp_growth/build_tree"}),
        "assoc.grow_ms": per_op({"assoc/fp_growth/grow"}),
        "assoc.mine_ms": per_op({"assoc.mine"}),
        "assoc.ooc_count_ms": per_op({"assoc/out_of_core/count"}),
        "assoc.rules_ms": per_op({"assoc.rules"}),
        "assoc.itemsets": med("itemsets"),
        "assoc.rules": med("rules"),
        "assoc.cond_trees": med("cond_trees"),
        "assoc.fp_nodes": med("fp_nodes"),
        "mine.unattributed_ms": root_self / roots * 1e-3 if roots else 0.0,
        "trace_overhead": traced_wall / untraced_wall - 1.0
        if untraced_wall else 0.0,
    }


# --------------------------------------------------------------- serving


def wait_connectable(path, proc, deadline):
    """Polls until the daemon's socket accepts a connection."""
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(str(path))
            return sock
        except OSError:
            sock.close()
            if proc.poll() is not None:
                raise BenchError("dmtd exited during start-up")
            if time.perf_counter() > deadline:
                raise BenchError("dmtd did not start listening")
            time.sleep(0.0005)


def stop(proc, timeout):
    """Waits for a daemon to exit; kills it if it does not."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("dmtd did not exit after its last connection")


def cpu_split():
    """(daemon CPUs, load generator CPUs), or (None, None) when fewer than
    four CPUs are available."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    return set(cpus[:2]), set(cpus[2:4])


def pin(cpus):
    """preexec_fn that pins the child to `cpus` (no-op when None)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def start_dmtd(tools, bundle, sock, conns, metrics=None):
    sock.unlink(missing_ok=True)
    cmd = [str(tools["dmtd"]), "--dir", str(bundle), "--socket", str(sock),
           "--max-conns", str(conns)] + DMTD_FLAGS
    if metrics is not None:
        cmd += ["--metrics-path", str(metrics),
                "--metrics-interval-ms", "3600000"]
    return subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            preexec_fn=pin(cpu_split()[0]))


def run_serving(name, cfg, args, tools, data):
    work = seed_dir(data, name, cfg, args.seed)
    store = store_args(data, BUNDLE["base_transactions"])
    bundle = data / ("bundle-" + config_key(BUNDLE, BUNDLE_SEED, STORE))

    def make_bundle():
        bundle.mkdir(exist_ok=True)
        return json_lines([str(tools["pbtool"]), "gen-serve",
                           "--seed", str(BUNDLE_SEED), "--out", str(bundle),
                           "--threads", "4"] + store + flag_args(
                               {k: v for k, v in BUNDLE.items()
                                if k != "base_transactions"}),
                          timeout=150)[0]

    info = cached(bundle / "bundle.json", make_bundle)
    # A short relative path keeps the socket under the sun_path limit.
    sock = Path(os.path.relpath(work / "dmtd.sock"))

    # Set-up: dmtd start until its socket accepts (bundle load + staging).
    setup = []
    for _ in range(cfg["setup_reps"]):
        t0 = time.perf_counter()
        proc = start_dmtd(tools, bundle, sock, 1)
        try:
            conn = wait_connectable(sock, proc, t0 + 30)
            setup.append(time.perf_counter() - t0)
            conn.close()
            stop(proc, 10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    window_s = max(LOADGEN["settle-s"] + 0.3,
                   (args.seconds - LOADGEN["warmup-s"])
                   / (2 * LOADGEN["cycles"]))
    sessions = [False, True] if args.trace else [False]
    out = {}
    for traced in sessions:
        metrics = work / "metrics.prom" if traced else None
        if metrics is not None:
            metrics.unlink(missing_ok=True)
        proc = start_dmtd(tools, bundle, sock, LOADGEN["conns"], metrics)
        try:
            cmd = [str(tools["pbtool"]), "load", "--socket", str(sock),
                   "--bundle", str(bundle), "--seed", str(args.seed),
                   "--mix", cfg["mix"], "--daemon-pid", str(proc.pid),
                   "--light-rate", str(cfg["light_rate"]),
                   "--heavy-rate", str(cfg["heavy_rate"]),
                   "--window-s", str(window_s),
                   "--trace", "1" if traced else "0",
                   "--spans-out", str(work / "spans.json")] + store + \
                flag_args({k: v for k, v in BUNDLE.items()
                           if k in ("agrawal-function", "clusters",
                                    "cluster-points")}) + \
                flag_args(LOADGEN)
            host0 = pblib.read_proc_stat()
            records = json_lines(cmd, timeout=150, cpus=cpu_split()[1])
            steal = pblib.steal_share(host0, pblib.read_proc_stat())
            code = stop(proc, 20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out[traced] = (records, steal, code)

    # Oracle verdicts of every session count; metrics come from the
    # untraced one.
    attempted = failed = 0
    clean_exit = True
    for records, _, code in out.values():
        summary = [r for r in records if "requests" in r][0]
        attempted += summary["requests"]
        failed += (summary["mismatched"] + summary["missing"]
                   + summary["unexpected"])
        clean_exit &= code == 0 and summary["failures"] == ""
    records, steal, code = out[False]
    view = load_view(records)
    light, heavy = view["light"], view["heavy"]
    summary = [r for r in records if "requests" in r][0]
    print("# %s: bundle of %d rules, %d-node tree, %d training rows, "
          "k=%d; %d requests (%d recommend, %d tree, %d knn, %d nb, "
          "%d cluster); dmtd exit %d"
          % (name, info["rules"], info["tree_nodes"], info["train_rows"],
             info["clusters"], summary["requests"], summary["recommend"],
             summary["tree"], summary["knn"], summary["nb"],
             summary["cluster"], code))
    result = {
        "attempted": attempted, "failed": failed,
        "correct_extra": clean_exit,
        "steal": steal,
        "samples": {"setup_s": len(setup),
                    "latency_ms": len(light["latency_us"]),
                    "cpu_ms": heavy["answered"], "peak_rss_mb": 1},
        "e2e": {
            "setup_s": median(setup),
            "latency_ms": light["p50_us"] / 1e3,
            "cpu_ms": heavy["cpu_us_per_req"] / 1e3,
            "peak_rss_mb": summary["daemon_hwm_kb"] / 1024.0,
        },
        "diag": {"setup_samples_s": setup, "load": {
            k: {"rate": v["rate"], "windows": len(v["window_p50"]),
                "p50_us": v["p50_us"], "cpu_us_per_req": v["cpu_us_per_req"],
                "p50_us_by_window": v["window_p50"],
                "cpu_us_per_req_by_window": v["window_cpu"],
                "latency_us": pblib.readout(v["latency_us"]),
                "late_us": pblib.readout(v["late_us"])}
            for k, v in view.items()}},
    }
    if args.trace:
        result["layers"] = serving_layers(work, out, result)
    return result


def load_view(records):
    """Per rate ("light", "heavy", "all"): samples pooled over its windows,
    and the median over windows of each window's p50 and daemon CPU per
    request -- the reported figures, so a burst of host noise that spoils
    one window does not move them."""
    view = {}
    for r in records:
        if "phase" not in r:
            continue
        v = view.setdefault(r["phase"], {
            "rate": r["rate"], "latency_us": [], "late_us": [],
            "window_p50": [], "window_cpu": [], "answered": 0, "cpu_ns": 0})
        v["latency_us"] += r["latency_us"]
        v["late_us"] += r["late_us"]
        v["window_p50"].append(pblib.nearest_rank(r["latency_us"], 50))
        v["window_cpu"].append(r["daemon_cpu_ns"] / 1e3
                               / max(1, r["answered_in_window"]))
        v["answered"] += r["answered_in_window"]
        v["cpu_ns"] += r["daemon_cpu_ns"]
    for v in view.values():
        v["p50_us"] = median(v["window_p50"])
        v["cpu_us_per_req"] = median(v["window_cpu"])
    return view


def serving_layers(work, out, untraced):
    records = out[True][0]
    view = load_view(records)
    dump = pblib.parse_prometheus((work / "metrics.prom").read_text())
    values, hists = dump["values"], dump["histograms"]

    def counter(name):
        return values.get("dmt_serve_" + name, 0.0)

    def hist(name):
        return hists.get("dmt_serve_latency_" + name + "_us")

    requests = counter("requests")
    lookups = counter("cache_lookups")
    daemon_cpu_us = view["all"]["cpu_ns"] / 1e3
    everything = pblib.readout(view["all"]["latency_us"])
    light = pblib.readout(view["light"]["latency_us"])
    heavy = pblib.readout(view["heavy"]["latency_us"])
    late = pblib.readout(view["all"]["late_us"])

    # Self-time table: the benchmark's request spans (means per request),
    # with the daemon's round trip split by its own dumped histograms.
    spans = json.loads((work / "spans.json").read_text())["spans"]
    nodes = [{"id": s["id"], "name": s["name"], "start": s["start_us"],
              "end": s["end_us"], "tid": 0, "parent": s["parent"]}
             for s in spans]
    rows, roots = pblib.self_time_table(nodes)
    print("# self time per request, %d sampled requests (benchmark spans)"
          % roots)
    print(pblib.render_table(rows, roots, unit="us", scale=1.0))
    round_trip = pblib.sum_named(rows, {"dmtd.round_trip"}) / max(1, roots)
    total = pblib.hist_mean(hist("total"))
    parts = {k: pblib.hist_mean(hist(k))
             for k in ("queue", "prepare")}
    # eval_us is recorded once per batch: spread over the batch's requests.
    parts["eval"] = hist("eval")["sum"] / requests if requests else 0.0
    print("# dmtd.round_trip split by dmtd's own histograms (means, us):")
    print("#   round trip %.1f = daemon total %.1f [queue %.1f + prepare "
          "%.1f + eval %.1f + unattributed %.1f] + socket/framing %.1f"
          % (round_trip, total, parts["queue"], parts["prepare"],
             parts["eval"], total - sum(parts.values()),
             round_trip - total))
    base_p50 = untraced["diag"]["load"]["light"]["p50_us"]
    return {
        "serve.queue_us.p50": pblib.hist_percentile(hist("queue"), 50),
        "serve.mean_batch": requests / max(1.0, counter("batches")),
        "serve.prepare_us.p50": pblib.hist_percentile(hist("prepare"), 50),
        "serve.eval_us.p50": pblib.hist_percentile(hist("eval"), 50),
        "serve.eval_share": hist("eval")["sum"] / daemon_cpu_us
        if daemon_cpu_us else 0.0,
        "serve.recommend_us.p50": pblib.hist_percentile(hist("recommend"),
                                                        50),
        "serve.classify_us.p50": pblib.hist_percentile(hist("classify"), 50),
        "serve.cluster_us.p50": pblib.hist_percentile(hist("cluster"), 50),
        "serve.rules_scanned_per_basket": counter("rules_scanned")
        / max(1.0, counter("cache_lookups")),
        "serve.cache_hit_rate": counter("cache_hits") / lookups
        if lookups else 0.0,
        "serve.cache_evictions_per_req": counter("cache_evictions")
        / max(1.0, requests),
        "serve.transport_us.p50": everything["p50"]
        - pblib.hist_percentile(hist("total"), 50),
        "serve.unattributed_us": total - sum(parts.values()),
        "serve.errors": counter("errors"),
        "load.p50_us.heavy": view["heavy"]["p50_us"],
        "load.cpu_us_per_req.light": view["light"]["cpu_us_per_req"],
        "tail.p99_us.light": light["p99"] or 0.0,
        "tail.p99_us.heavy": heavy["p99"] or 0.0,
        "loadgen.late_us.p50": late["p50"],
        "loadgen.late_us.p99": late["p99"] or 0.0,
        "trace_overhead": view["light"]["p50_us"] / base_p50 - 1.0
        if base_p50 else 0.0,
    }


# ---------------------------------------------------------------- output

PER_LAYER = [
    ("io.load_ms", "ms"), ("io.write_ms", "ms"), ("io.bytes_written", "B"),
    ("io.bytes_mapped", "B"), ("assoc.build_ms", "ms"),
    ("assoc.grow_ms", "ms"), ("assoc.mine_ms", "ms"),
    ("assoc.ooc_count_ms", "ms"), ("assoc.rules_ms", "ms"),
    ("assoc.itemsets", "count"), ("assoc.rules", "count"),
    ("assoc.cond_trees", "count"), ("assoc.fp_nodes", "count"),
    ("mine.unattributed_ms", "ms"),
    ("serve.queue_us.p50", "us"), ("serve.mean_batch", "count"),
    ("serve.prepare_us.p50", "us"), ("serve.eval_us.p50", "us"),
    ("serve.eval_share", "ratio"), ("serve.recommend_us.p50", "us"),
    ("serve.classify_us.p50", "us"), ("serve.cluster_us.p50", "us"),
    ("serve.rules_scanned_per_basket", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_evictions_per_req", "ratio"),
    ("serve.transport_us.p50", "us"), ("serve.unattributed_us", "us"),
    ("serve.errors", "count"), ("load.p50_us.heavy", "us"),
    ("load.cpu_us_per_req.light", "us"), ("tail.p99_us.light", "us"),
    ("tail.p99_us.heavy", "us"), ("loadgen.late_us.p50", "us"),
    ("loadgen.late_us.p99", "us"), ("host.steal_share", "ratio"),
    ("host.ref_ms", "ms"), ("trace_overhead", "ratio"),
]


def stamp(tools):
    info = json_lines([str(tools["pbtool"]), "stamp"], timeout=30)[0]
    del info["ref_state"]  # printed only so the loop is not optimized away
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def report(name, args, tools, data):
    """Runs one workload and prints its block; the block's last line is
    the JSON result."""
    cfg = WORKLOADS[name]
    runner = run_mining if cfg["path"] == "mine" else run_serving
    result = runner(name, cfg, args, tools, data)
    info = stamp(tools)
    info["host_steal_share"] = round(result["steal"], 4)
    if "load" in result["diag"]:
        late = result["diag"]["load"]["light"]["late_us"]
        info["loadgen_late_us"] = {"p50": late["p50"], "p99": late["p99"],
                                   "n": late["n"]}
    print("# stamp %s" % json.dumps(info, sort_keys=True))
    if args.trace:
        layers = result["layers"]
        layers["host.steal_share"] = result["steal"]
        layers["host.ref_ms"] = info["host_ref_ms"]
        metrics = {n: {"value": float(layers.get(n, 0.0)), "unit": u}
                   for n, u in PER_LAYER}
        for n, u in PER_LAYER:
            print("%-34s %14.4f %s" % (n, metrics[n]["value"], u))
    else:
        metrics = {n: {"value": float(result["e2e"][n]), "unit": u}
                   for n, u in END_TO_END}
        for n, u in END_TO_END:
            print("%-12s %14.6f %-3s (n=%d)"
                  % (n, metrics[n]["value"], u, result["samples"][n]))
        for key, value in sorted(result["diag"].items()):
            print("# %s %s" % (key, json.dumps(value)))
    correct = result["failed"] == 0 and result.get("correct_extra", True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.self_test:
            return self_test()
        root = build_dir()
        tools = build(root)
        data = root / "data"
        data.mkdir(parents=True, exist_ok=True)
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload]
        for name in names:
            report(name, args, tools, data)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


def self_test():
    """Runs the Python self-tests and the C++ oracle self-test."""
    import unittest
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR / "tests"))
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    tools = build(build_dir(), targets=("pbtool_selftest",))
    done = subprocess.run([str(tools["selftest"])])
    return 0 if ok and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
