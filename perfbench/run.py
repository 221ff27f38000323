#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload all [--seconds S]
  python3 perfbench/run.py --pin        # re-pin pins.json at the default seed

Builds perfbench/ (the simulator library from src/ plus bench.cpp) into
.bench_build/, then repeats the workload, one process per repetition,
for about --seconds seconds. Every repetition gets a fresh scratch
directory under .bench_work/ (result store, CSVs, trace exports), removed
when it ends.

--trace 0 (default) reports the end-to-end metrics: medians of wall_s,
cpu_s, setup_s and peak_rss_mb over the repetitions. The times of a paced
workload (meanfield_n10k) are scaled by a calibration kernel that runs
next to each repetition; see README.md. --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics, a
per-layer self-time table, the tracing overhead (traced / untraced wall),
and writes the traced repetitions' spans as Perfetto JSON to
.bench_out/<workload>.spans.json.

Outputs are checked on every repetition: invariants on any seed (routing
errors, gateway-queue conservation, sink/sender counter order, per-LP
event sums, trace ring not overrun), and at the default seed the pinned
deterministic outputs in pins.json (event counts, deliveries, drops, the
campaign CSV digests, trace record count and JSONL digest; the lp2
mean-field run must execute exactly the lp1 run's events). A mismatch is
named on stderr, reported as "correct": false, and the exit code is 1.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count simulations (failed_frac = failed/attempted).
See README.md for the workloads, metrics and the layer mapping.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
NPROC = len(os.sched_getaffinity(0))

# Workload parameters. Every workload runs in one process with at most
# min(4, nproc) threads; see README.md for why each was chosen.
WORKLOADS = {
    "paper_campaign": {
        "kind": "campaign", "duration": 20.0, "threads": min(4, NPROC),
    },
    "meanfield_n10k": {
        "kind": "single", "clients": 10000, "meanfield_base": 60,
        "duration": 2.25, "lp": 1, "pacer": True,
    },
    "meanfield_n10k_lp2": {
        "kind": "single", "clients": 10000, "meanfield_base": 60,
        "duration": 2.25, "lp": 2,
    },
    "fig02_n60_traced": {
        "kind": "single", "clients": 60, "duration": 20.0, "lp": 2,
        "trace_sink": True,
    },
}

# The pacer's ns per iteration on the 4-vCPU 2.1 GHz Xeon VM the benchmark
# was tuned on. A paced workload's times are scaled by
# PACER_REF_NS / (the pacer's ns per iteration during the repetition).
PACER_REF_NS = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "run.executor.busy_frac": "ratio", "run.store.bytes": "bytes",
    "run.store.load_s": "s", "run.campaign.warm_s": "s",
    "core.experiment.p50_s": "s", "core.experiment.p90_s": "s",
    "sim.events": "count", "sim.scheduled": "count",
    "sim.peak_pending": "count", "sim.ns_per_event": "ns",
    "net.gw_arrivals": "count", "net.gw_drops": "count",
    "net.drop_frac": "ratio", "transport.data_pkts_sent": "count",
    "transport.retransmits": "count", "transport.timeouts": "count",
    "transport.goodput_ratio": "ratio",
    "transport.arena_bytes_per_flow": "bytes", "topo.build_s": "s",
    "profile.dispatch_share": "ratio", "profile.transport_share": "ratio",
    "profile.queue_share": "ratio", "parallel.windows": "count",
    "parallel.msgs": "count", "parallel.wait_share": "ratio",
    "parallel.event_imbalance": "ratio", "parallel.merge_high_water": "count",
    "obs.trace_records": "count", "obs.trace_reserved_mb": "MB",
    "obs.trace_export_s": "s", "obs.trace_export_mb": "MB",
    "bench.trace_overhead": "ratio",
}

# Deterministic outputs pinned at the default seed.
PINNED = ["sim.events", "delivered", "net.gw_drops", "obs.trace_records",
          "csv_digest", "trace_jsonl_digest"]
FIGURE_CSVS = ["fig02_cov.csv", "fig03_throughput.csv", "fig04_loss.csv",
               "fig13_timeout_dupack.csv"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the repetition driver and the pacer."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no simulator sources at", ROOT / "src")
        return None
    bdir = ROOT / ".bench_build" / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(bdir), "-j", str(NPROC)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return bdir / "perfbench_rep"


def start_pacer(binary):
    """Starts the pacer on the last CPU and returns the CPUs left for the
    repetition; (None, None) where there is no CPU to spare."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    pacer = subprocess.Popen(
        [str(binary.parent / "perfbench_pacer")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, preexec_fn=lambda: os.sched_setaffinity(0, cpus[-1:]))
    return pacer, set(cpus[:-1])


def stop_pacer(pacer):
    """Closes the pacer's stdin, waits for it, returns its ns per iteration."""
    out, _ = pacer.communicate(timeout=60)
    if pacer.returncode != 0:
        raise RuntimeError(f"pacer exited {pacer.returncode}")
    return json.loads(out)["ns_per_iter"]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def csv_digest(out_dir):
    h = hashlib.sha256()
    for name in FIGURE_CSVS:
        h.update(name.encode())
        h.update(sha256_file(out_dir / name).encode())
    return h.hexdigest()


def run_rep(binary, wl, seed, layers, work):
    """One repetition in its own process; returns its parsed record."""
    p = WORKLOADS[wl]
    args = [str(binary), f"--kind={p['kind']}", f"--seed={seed}",
            f"--duration={p['duration']}", f"--work-dir={work}",
            f"--layers={int(layers)}"]
    if p["kind"] == "campaign":
        args.append(f"--threads={p['threads']}")
    else:
        args += [f"--clients={p['clients']}", f"--lp={p['lp']}",
                 f"--meanfield-base={p.get('meanfield_base', 0)}",
                 f"--trace-sink={int(p.get('trace_sink', False))}"]
    work.mkdir(parents=True)
    pacer, cpus = start_pacer(binary) if p.get("pacer") else (None, None)
    proc = None
    try:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            args, stdout=subprocess.PIPE,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.monotonic() - t0
        pacer_ns = stop_pacer(pacer) if pacer else None
        pacer = None
        if proc.returncode != 0:
            raise RuntimeError(f"{wl}: repetition exited {proc.returncode}")
        rec = json.loads(out)
        rec["elapsed_s"] = elapsed
        rec["pacer_ns"] = pacer_ns
        rec["scale"] = PACER_REF_NS / pacer_ns if pacer_ns else 1.0
        rec["cpu_s"] = ru.ru_utime + ru.ru_stime
        rec["peak_rss_mb"] = ru.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB
        if p["kind"] == "campaign":
            rec["counts"]["csv_digest"] = csv_digest(work / "out")
            if layers and csv_digest(work / "out_warm") != rec["counts"]["csv_digest"]:
                rec["failures"].append("warm campaign CSVs differ from cold ones")
        if p.get("trace_sink"):
            rec["counts"]["trace_jsonl_digest"] = sha256_file(work / "trace.jsonl")
        return rec
    finally:
        if proc and proc.returncode is None:
            proc.kill()
            proc.wait()
        if pacer:
            pacer.kill()
            pacer.communicate()
        shutil.rmtree(work, ignore_errors=True)


def check_pins(wl, counts, pins):
    """Names every pinned output of @p wl that differs from pins.json."""
    want = dict(pins.get(wl, {}))
    if wl == "meanfield_n10k_lp2":
        # The parallel engine must execute exactly the sequential events.
        want["sim.events"] = pins["meanfield_n10k"]["sim.events"]
    if not want:
        return [f"{wl}: no pins in {PINS.name}"]
    return [f"{wl}: {k} = {counts.get(k)}, pinned {v}"
            for k, v in sorted(want.items()) if counts.get(k) != v]


def source_digest():
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(sha256_file(path).encode())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def stamp(wl, seed, seconds, trace, build_info, params):
    return {
        "workload": wl, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": NPROC, "hw_threads": os.cpu_count(),
        "machine": platform.machine(), "compiler": build_info["compiler"],
        "build_type": build_info["build_type"], "git_sha": git_sha(),
        "source_digest": source_digest(), "params": params,
    }


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    by_layer = {}
    for i, s in enumerate(spans):
        layer = s["name"].split(".")[0]
        own = s["end_s"] - s["start_s"] - child[i]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    return by_layer


def write_spans(wl, reps):
    """All traced repetitions' spans as one Perfetto-readable JSON file."""
    events = []
    for pid, rep in enumerate(reps, start=1):
        for i, s in enumerate(rep["spans"]):
            events.append({
                "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
                "ts": s["start_s"] * 1e6, "dur": (s["end_s"] - s["start_s"]) * 1e6,
                "pid": pid, "tid": 1,
                "args": {"id": i, "parent": s["parent"], "synthesized": s["synth"]},
            })
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{wl}.spans.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


def run_workload(binary, wl, seed, seconds, trace):
    """Repeats @p wl for about @p seconds; returns (result, stamp)."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    work_root = ROOT / ".bench_work" / f"{wl}-{os.getpid()}"
    reps, traced = [], []
    failures = []
    attempted = failed = 0
    t0 = time.monotonic()
    k = 0
    # At least two repetitions, then repeat while the next one is expected
    # to fit in the budget. The traced run alternates untraced and traced
    # repetitions.
    while True:
        layers = bool(trace) and k % 2 == 1
        rec = run_rep(binary, wl, seed, layers, work_root / f"rep{k}")
        k += 1
        build_info = rec["build"]
        problems = list(rec["failures"])
        if seed == DEFAULT_SEED:
            problems += check_pins(wl, rec["counts"], pins)
        attempted += rec["attempted"]
        # A workload-level mismatch fails every simulation of the repetition.
        failed += rec["attempted"] if problems else rec["failed"]
        failures += problems
        (traced if layers else reps).append(rec)
        elapsed = time.monotonic() - t0
        typical = statistics.median(r["elapsed_s"] for r in reps + traced)
        if k >= 2 and elapsed + typical > seconds:
            break
    shutil.rmtree(work_root, ignore_errors=True)

    def med(key, rs):
        return statistics.median(r[key] for r in rs)

    result = {"correct": not failures, "attempted": attempted, "failed": failed}
    if trace:
        # A layer the workload does not exercise reports nothing: 0.
        layer = {name: statistics.median(r["layer"].get(name, 0.0) for r in traced)
                 for name in PER_LAYER if name != "bench.trace_overhead"}
        layer["bench.trace_overhead"] = med("wall_s", traced) / med("wall_s", reps)
        result["metrics"] = {n: {"value": v, "unit": PER_LAYER[n]}
                             for n, v in layer.items()}
        layers_self = {}
        for r in traced:
            for name, s in self_times(r["spans"]).items():
                layers_self[name] = layers_self.get(name, 0.0) + s / len(traced)
        result["self_time_s"] = layers_self
        result["spans_file"] = str(write_spans(wl, traced).relative_to(ROOT))
    else:
        # Times of a paced workload are scaled to the pacer's reference
        # speed, repetition by repetition; raw_metrics keeps them unscaled.
        times = ("wall_s", "cpu_s", "setup_s")
        values = {n: statistics.median(r[n] * r["scale"] for r in reps)
                  for n in times}
        values["peak_rss_mb"] = med("peak_rss_mb", reps)
        result["metrics"] = {n: {"value": v, "unit": END_TO_END[n]}
                             for n, v in values.items()}
        if WORKLOADS[wl].get("pacer"):
            result["raw_metrics"] = {n: med(n, reps) for n in times}
            result["pacer_ns"] = med("pacer_ns", reps)
    result["reps"] = len(reps) + len(traced)
    result["failures"] = failures
    result["counts"] = reps[0]["counts"] if reps else traced[0]["counts"]
    info = stamp(wl, seed, seconds, trace, build_info, rec["params"])
    return result, info


def report(wl, result, info):
    """Human-readable lines (stdout) ahead of the JSON line."""
    print(f"# {wl}: {json.dumps(info, sort_keys=True)}")
    for f in result["failures"][:20]:
        log(f"perfbench: MISMATCH {f}")
    frac = result["failed"] / result["attempted"]
    print(f"{wl:20s} {'failed_frac':28s} {frac:12.6g} share "
          f"({result['failed']}/{result['attempted']} simulations, "
          f"{result['reps']} repetitions)")
    for name, m in result["metrics"].items():
        print(f"{wl:20s} {name:28s} {m['value']:12.6g} {m['unit']}")
    if "raw_metrics" in result:
        raw = ", ".join(f"{n} {v:.6g}" for n, v in result["raw_metrics"].items())
        print(f"{wl:20s} times above are paced (pacer {result['pacer_ns']:.1f} ns/iter, "
              f"reference {PACER_REF_NS:g}); unscaled: {raw}")
    if "self_time_s" in result:
        total = sum(result["self_time_s"].values()) or 1.0
        print(f"{wl:20s} self time per layer (mean over traced repetitions):")
        for name, s in sorted(result["self_time_s"].items(), key=lambda x: -x[1]):
            print(f"{'':20s}   {name:12s} {s:10.4f} s {100 * s / total:6.1f}%")
        print(f"{wl:20s} tracing overhead {result['metrics']['bench.trace_overhead']['value']:.3f}x"
              f" (traced / untraced wall_s); spans in {result['spans_file']}")


def pin(binary):
    """Records every workload's deterministic outputs at the default seed."""
    pins = {}
    for wl, p in WORKLOADS.items():
        rec = run_rep(binary, wl, DEFAULT_SEED, False,
                      ROOT / ".bench_work" / f"pin-{wl}-{os.getpid()}")
        if rec["failures"] or rec["failed"]:
            log("perfbench: not pinning, invariants fail:", rec["failures"])
            return 1
        pins[wl] = {k: rec["counts"][k] for k in PINNED if k in rec["counts"]}
    if pins["meanfield_n10k_lp2"]["sim.events"] != pins["meanfield_n10k"]["sim.events"]:
        log("perfbench: not pinning, the lp2 run's events differ from lp1's")
        return 1
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    log("perfbench: wrote", PINS)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    a = ap.parse_args()
    if not a.pin and a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    # On SIGTERM, unwind so that run_rep stops its processes and removes
    # its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    if a.pin:
        return pin(binary)

    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    results = {}
    for wl in names:
        try:
            result, info = run_workload(binary, wl, a.seed, a.seconds, a.trace)
        except (RuntimeError, OSError, ValueError, KeyError) as e:
            log(f"perfbench: {wl}: {e}")
            return 1
        report(wl, result, info)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"{wl}.seed{a.seed}.trace{a.trace}.json").write_text(
            json.dumps({"stamp": info, "result": result}, indent=1) + "\n")
        results[wl] = result

    correct = all(r["correct"] for r in results.values())
    if a.workload == "all":
        summary = {wl: {"correct": r["correct"], "attempted": r["attempted"],
                        "failed": r["failed"], "metrics": r["metrics"]}
                   for wl, r in results.items()}
        print(json.dumps(summary))
    else:
        r = results[a.workload]
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": r["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
