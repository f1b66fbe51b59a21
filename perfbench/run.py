#!/usr/bin/env python3
"""Grapple benchmark: one command for every workload, metric and check.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0

It builds perfbench/driver.exe with dune, generates the workload's subject
(untimed), then runs one timed run after another, each in a fresh driver
process: at least three, and more while the next one is expected to end
within --seconds.  Every run's reports are scored
against the generator's planted bugs.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (medians over the runs); with
--trace 1 they are the per-layer ones, read from traced runs, plus the
tracing overhead measured against untraced runs of the same session.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("closure", "frontend", "ooc-shards")
BUILD_DIR = os.path.join(".bench_build", "dune")
DRIVER = os.path.join(BUILD_DIR, "default", "perfbench", "driver.exe")
# Every invocation must end within 180 s; leave room for the last run.
DEADLINE_S = 170.0
RSS_POLL_S = 0.05
# Medians need at least three runs: with two, one slow run moves the median
# (single ooc-shards runs ranged from 12.4 s to 18.9 s on a 2-core box).
MIN_RUNS = 3

# Counters that depend only on the input and the configuration.  They must
# repeat exactly across the runs of one session; a mismatch is reported as
# benchmark instability, not as a failed run.
DETERMINISTIC = (
    "vertices", "edges_before", "edges_after", "partitions", "pairs",
    "constraints_solved", "cache_lookups", "cache_hits", "bytes_read",
    "bytes_written", "edges_added", "prefiltered", "summary_pruned",
    "alias_pruned", "edges_presliced", "edges_sliced", "smt_budget_hits",
)

# Per-layer seconds read from the trace: metric -> span names summed.  The
# benchmark's own spans (jir.parse, checkers.resolve, core.prepare,
# scheduler.check, core.render) wrap the public calls; the rest are spans
# the program emits.
SPAN_SECONDS = {
    "jir.parse_s": ["jir.parse"],
    "checkers.resolve_s": ["checkers.resolve"],
    "core.prepare_s": ["core.prepare"],
    "scheduler.check_s": ["scheduler.check"],
    "core.render_s": ["core.render"],
    "jir.unroll_s": ["phase0.unroll"],
    "jir.callgraph_s": ["phase0.callgraph"],
    "symexec.icfet_s": ["phase0.icfet"],
    "graphgen.clones_s": ["phase0.clones"],
    "graphgen.alias_graph_s": ["phase0.alias_graph", "phase0.alias_slice"],
    "graphgen.collect_flows_s": ["phase1.collect_flows"],
    "graphgen.dataflow_graph_s": ["phase2.dataflow_graph"],
    "analysis.escape_s": ["phase0.escape_prefilter"],
    "analysis.summaries_s": ["phase0.summary_prefilter"],
    "analysis.pointsto_s": ["phase0.alias_prefilter"],
    "engine.alias_seed_s": ["phase1.seed"],
    "engine.alias_closure_s": ["phase1.alias_closure"],
    "engine.dataflow_closure_s": ["phase2.dataflow_closure"],
    "engine.load_s": ["engine.load"],
    "engine.flush_s": ["engine.flush"],
    "engine.checkpoint_s": ["engine.checkpoint"],
    "smt.solve_s": ["smt.solve_batch"],
    "checkers.fsm_check_s": ["phase3.fsm_check"],
    "checkers.prefiltered_s": ["phase3.prefiltered"],
    "checkers.exception_walk_s": ["checker.exception_walk"],
    "supervisor.shard_s": ["scheduler.shard"],
}
# Spans whose time not covered by any other span is reported on its own.
UNATTRIBUTED = {
    "core.prepare.unattributed_s": "core.prepare",
    "scheduler.check.unattributed_s": "scheduler.check",
}
# A per-layer value that could not be measured: its span or counter is
# absent from this workload's run.  Never a measured value.
MISSING = -1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "driver.ml"))):
        fail("run from the root of a Grapple checkout "
             "(dune-project, lib/ and perfbench/ are needed)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".",
         "--build-dir", os.path.abspath(BUILD_DIR),
         "./perfbench/driver.exe"],
        stdout=sys.stderr, stderr=sys.stderr,
        # the shared dune cache lives outside the checkout
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0 or not os.path.isfile(DRIVER):
        fail("building the driver failed")


def tree_rss_kb(root):
    """Summed VmRSS of [root] and every live descendant."""
    total, stack, seen = 0, [root], set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        try:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir("/proc/%d/task" % pid):
                with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
                    stack.extend(int(c) for c in f.read().split())
        except (OSError, ValueError):
            pass
    return total


def driver(args, timeout, sample_rss=False):
    """Run the driver; return (exit code, last stdout line, peak tree RSS)."""
    proc = subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    peak = [0]
    done = threading.Event()

    def poll():
        while not done.wait(RSS_POLL_S):
            peak[0] = max(peak[0], tree_rss_kb(proc.pid))

    poller = threading.Thread(target=poll, daemon=True)
    if sample_rss:
        poller.start()
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\ntimed out"
    finally:
        done.set()
        if sample_rss:
            poller.join()
    # shard workers share the driver's process group; none may outlive it
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 and err.strip():
        print("driver %s: %s" % (args[0], err.strip().splitlines()[-1]))
    return proc.returncode, (lines[-1] if lines else ""), peak[0]


def sample(workload, run_dir, deadline, trace_path=None, weaken=None):
    """One timed run in a fresh process; returns its record or None."""
    args = ["run", workload, run_dir]
    if trace_path:
        args += ["--trace", trace_path]
    if weaken:
        args += ["--weaken", weaken]
    t0 = time.monotonic()
    code, line, tree_peak = driver(args, deadline - t0, sample_rss=True)
    shutil.rmtree(os.path.join(run_dir, "work"), ignore_errors=True)
    if code != 0:
        return None
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    rec["peak_rss_mb"] = max(rec["hwm_kb"], tree_peak) / 1024.0
    rec["elapsed_s"] = time.monotonic() - t0
    if trace_path:
        rec["spans"] = span_table(trace_path)
    return rec


def failure(rec, digest):
    """Why a run failed, or None."""
    if rec is None:
        return "raised or exited abnormally"
    if rec["inconclusive"] > 0:
        return "%d instance(s) inconclusive" % rec["inconclusive"]
    if rec["missed"] > 0:
        return "missed %d planted bug(s)" % rec["missed"]
    if rec["report_digest"] != digest:
        return "report text differs from the session's other runs"
    return None


# ---------------- trace analysis ----------------

def span_table(path):
    """name -> {"total", "self", "unattributed"} seconds over a trace."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    table = {}
    # self time: a span's duration minus its direct children on its domain
    by_lane = {}
    for e in events:
        by_lane.setdefault((e["pid"], e["tid"]), []).append(e)
    for lane in by_lane.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in lane:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            e["child_us"] = 0.0
            if stack:
                stack[-1]["child_us"] += e["dur"]
            stack.append(e)
    for e in events:
        t = table.setdefault(e["name"], {"total": 0.0, "self": 0.0})
        t["total"] += e["dur"] / 1e6
        t["self"] += (e["dur"] - e["child_us"]) / 1e6
    # unattributed: a span's time covered by no other span of its process,
    # on any domain
    for name in UNATTRIBUTED.values():
        for e in (x for x in events if x["name"] == name):
            lo, hi = e["ts"], e["ts"] + e["dur"]
            ivs = sorted((max(lo, x["ts"]), min(hi, x["ts"] + x["dur"]))
                         for x in events
                         if x is not e and x["pid"] == e["pid"]
                         and x["ts"] < hi and x["ts"] + x["dur"] > lo)
            covered, end = 0.0, lo
            for a, b in ivs:
                if b > end:
                    covered += b - max(a, end)
                    end = b
            t = table[name]
            t["unattributed"] = (t.get("unattributed", 0.0)
                                 + (e["dur"] - covered) / 1e6)
    return table


def ratio(num, den):
    return num / den if den else MISSING


def layer_metrics(rec):
    """Per-layer metrics of one traced run."""
    spans, c = rec["spans"], rec["counters"]
    reg = rec["registry"]
    counters = reg.get("counters", {})
    m = {}
    for metric, names in SPAN_SECONDS.items():
        hit = [spans[n]["total"] for n in names if n in spans]
        m[metric] = sum(hit) if hit else MISSING
    m["engine.pair_self_s"] = (spans["engine.pair"]["self"]
                               if "engine.pair" in spans else MISSING)
    for metric, name in UNATTRIBUTED.items():
        m[metric] = spans.get(name, {}).get("unattributed", MISSING)
    top = sum(spans[n]["total"] for n in
              ("jir.parse", "checkers.resolve", "core.prepare",
               "scheduler.check", "core.render") if n in spans)
    m["bench.unattributed_s"] = rec["wall_s"] - top

    m["graphgen.alias_edges"] = c["edges_presliced"]
    m["graphgen.edges_sliced"] = c["edges_sliced"]
    m["graphgen.vertices"] = c["vertices"]
    pruned = c["prefiltered"] + c["summary_pruned"] + c["alias_pruned"]
    m["analysis.pruned"] = pruned
    m["analysis.tracked_allocs"] = rec["tracked_allocs"]
    m["analysis.prune_ratio"] = ratio(pruned, rec["tracked_allocs"])

    closure = [m[k] for k in ("engine.alias_closure_s",
                              "engine.dataflow_closure_s") if m[k] != MISSING]
    m["engine.edges_per_s"] = ratio(c["edges_added"], sum(closure))
    m["engine.edges_added"] = c["edges_added"]
    considered = counters.get("engine.edges_considered", MISSING)
    m["engine.edges_considered"] = considered
    m["engine.join_yield"] = (ratio(c["edges_added"], considered)
                              if considered != MISSING else MISSING)
    m["engine.cache_lookups"] = c["cache_lookups"]
    m["engine.cache_hit_rate"] = ratio(c["cache_hits"], c["cache_lookups"])
    m["engine.cache_evictions"] = counters.get("engine.cache_evictions",
                                               MISSING)
    m["engine.pairs"] = c["pairs"]
    m["engine.partitions"] = c["partitions"]
    m["engine.repartitions"] = counters.get("engine.repartitions", MISSING)
    m["engine.bytes_read"] = c["bytes_read"]
    m["engine.bytes_written"] = c["bytes_written"]
    m["engine.reload_factor"] = ratio(c["bytes_read"], c["bytes_written"])
    m["engine.retries"] = counters.get("engine.retries", MISSING)
    m["engine.corrupt_reads"] = c["corrupt_reads"]

    m["smt.constraints_solved"] = c["constraints_solved"]
    m["smt.budget_hits"] = c["smt_budget_hits"]
    m["checkers.warnings"] = rec["reports"]

    m["scheduler.instances"] = rec["instances"]
    m["scheduler.longest_instance_s"] = rec["instance_max_s"]
    lanes = max(rec["workers"], rec["shard_procs"])
    m["scheduler.efficiency"] = ratio(rec["instance_sum_s"],
                                      lanes * rec["check_s"])

    for name in ("spawns", "redispatches", "stale_frames"):
        m["supervisor." + name] = counters.get("supervisor." + name, MISSING)
    hb = reg.get("histograms", {}).get("supervisor.heartbeat_ms")
    m["supervisor.heartbeat_ms"] = (ratio(hb["sum"], hb["count"])
                                    if hb else MISSING)
    return m


# ---------------- the session ----------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    run_dir = os.path.join(".bench_build", "runs",
                           "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = session(a, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


def generate(workload, seed, run_dir, deadline):
    os.makedirs(run_dir, exist_ok=True)
    code, line, _ = driver(["gen", workload, str(seed), run_dir],
                           deadline - time.monotonic())
    if code != 0:
        fail("generating the %s subject failed" % workload)
    return json.loads(line)


def session(a, run_dir, deadline):
    inp = generate(a.workload, a.seed, run_dir, deadline)
    print("input: workload=%s seed=%d digest=%s loc=%d methods=%d "
          "planted=%d" % (a.workload, a.seed, inp["digest"], inp["loc"],
                          inp["methods"], inp["planted"]))

    # The correctness check must have teeth: a run whose summary tier
    # wrongly prunes every tracked allocation loses reports, and must be
    # counted as failed.
    sc_dir = os.path.join(run_dir, "selfcheck")
    generate("selfcheck", a.seed, sc_dir, deadline)
    weak = sample("selfcheck", sc_dir, deadline, weaken="summary")
    teeth = (weak is not None
             and failure(weak, weak["report_digest"]) is not None)
    print("self-check: weakened summary tier %s" %
          ("counted as failed" if teeth else "NOT counted as failed"))

    runs = []  # (traced, record)
    t0 = time.monotonic()
    while True:
        traced = a.trace == 1 and len(runs) % 2 == 1
        trace_path = (os.path.abspath(os.path.join(run_dir, "trace.json"))
                      if traced else None)
        rec = sample(a.workload, run_dir, deadline, trace_path=trace_path)
        runs.append((traced, rec))
        if rec is None:
            break
        elapsed = time.monotonic() - t0
        next_s = statistics.median(r["elapsed_s"] for _, r in runs)
        enough = elapsed + next_s > a.seconds and len(runs) >= MIN_RUNS
        if enough or time.monotonic() + 1.5 * next_s > deadline:
            break

    ok = [r for _, r in runs if r is not None]
    digests = [r["report_digest"] for r in ok]
    digest = max(set(digests), key=digests.count) if digests else None
    failed = 0
    for i, (traced, rec) in enumerate(runs):
        why = failure(rec, digest)
        failed += why is not None
        if rec is not None:
            print("run %d%s: wall=%.3fs setup=%.6fs cpu=%.2fs rss=%.0fMB "
                  "reports=%d tp=%d false=%d%s" %
                  (i + 1, " (traced)" if traced else "", rec["wall_s"],
                   rec["setup_s"], rec["cpu_s"], rec["peak_rss_mb"],
                   rec["reports"], rec["tp"], rec["false_warnings"],
                   "" if why is None else " FAILED: " + why))
        else:
            print("run %d: FAILED: %s" % (i + 1, why))

    unstable = 0
    for key in DETERMINISTIC:
        values = sorted({r["counters"][key] for r in ok})
        if len(values) > 1:
            unstable += 1
            print("instability: counter %s differs across runs: %s" %
                  (key, values))

    untraced = [r for traced, r in runs if r is not None and not traced]
    correct = teeth and failed == 0 and bool(untraced)
    result = {"correct": correct, "attempted": len(runs), "failed": failed}
    if not untraced:
        result["metrics"] = {}
        return result

    def med(key, rs=untraced):
        return statistics.median(r[key] for r in rs)

    if a.trace == 0:
        tp = med("tp")
        metrics = {
            "wall_s": (med("wall_s"), "s"),
            "setup_s": (med("setup_s"), "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            "precision": (ratio(tp, tp + med("false_warnings")), "ratio"),
        }
        print("wall_s median of %d run(s); false_warnings=%d of %d reports; "
              "failed_runs=%d/%d" % (len(untraced), med("false_warnings"),
                                     med("reports"), failed, len(runs)))
    else:
        traced = [r for t, r in runs if r is not None and t]
        layers = [layer_metrics(r) for r in traced]
        metrics = {k: (statistics.median(l[k] for l in layers), unit_of(k))
                   for k in layers[0]} if layers else {}
        metrics["trace.overhead_s"] = (
            (med("wall_s", traced) - med("wall_s")) if traced else MISSING,
            "s")
        metrics["bench.unstable_counters"] = (unstable, "count")
        missing = sorted(k for k, (v, _) in metrics.items() if v == MISSING)
        if missing:
            print("missing (span or counter absent, reported as -1): " +
                  " ".join(missing))
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in sorted(metrics.items())}
    return result


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_rate", "_ratio", "_factor", "_yield",
                        "efficiency")):
        return "ratio"
    if metric.startswith("engine.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    main()
