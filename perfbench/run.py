#!/usr/bin/env python3
"""Served-request benchmark for hstream_serve (see README.md here).

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

Builds the server and the benchmark's binaries from source, builds the
workload's base checkpoint from the seed, then repeats fixed-work rounds
until --seconds have passed. Each round spawns `hstream_serve --restore`,
drives the seeded load from a separate load-generator process over
loopback, checks every answer, SIGKILLs the server and restarts it to
time recovery. Per-round figures are reduced to one per run by
`reduce_rounds`.

With --trace 1 rounds alternate between the real server (counters read
through stats/health) and an in-process traced server that records a span
per handler call and replays the recorded stream down the layer ladder.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics of the chosen mode. A correctness violation exits 1.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120

WORKLOADS = ("ingest", "query", "coldtier")
# What each mode prints, with units; BENCHMARK.json lists the same.
E2E_UNITS = {"qps": "1/s", "p50_us": "us", "p99_us": "us", "cpu_us_per_req": "us",
             "rss_mb": "MiB", "disk_mb": "MiB", "setup_s": "s", "recover_s": "s",
             "rel_err": "ratio"}
PER_LAYER_UNITS = {
    "net.self_us": "us", "net.partial_writes": "count",
    "wire.decode_ns": "ns", "wire.encode_ns": "ns",
    "protocol.parse_ns": "ns", "protocol.format_ns": "ns",
    "session.handle_ns": "ns", "session.handle_p99_ns": "ns",
    "session.unexplained_ns": "ns",
    "service.add_ns": "ns", "service.paper_ns": "ns", "service.get_ns": "ns",
    "service.top_ns": "ns", "service.heavy_ns": "ns",
    "admission.shed": "count", "admission.deadline_exceeded": "count",
    "registry.resident_mb": "MiB", "registry.over_budget": "ratio",
    "registry.promotions": "count", "registry.demotions": "count",
    "registry.topk_cache_hit_ratio": "ratio",
    "heavy.add_paper_ns": "ns", "heavy.report_cache_hit_ratio": "ratio",
    "core.eh_add_ns": "ns",
    "wal.append_ns": "ns", "wal.bytes_per_record": "B", "wal.flushes": "count",
    "wal.fsyncs": "count", "wal.acked_lost": "count",
    "checkpoint.save_ms": "ms", "checkpoint.bytes_per_save": "B",
    "checkpoint.deferred": "count",
    "recover.restore_ms": "ms", "recover.replay_us_per_record": "us",
    "storage.page_ins": "count", "storage.page_in_cache_hit_ratio": "ratio",
    "storage.page_in_failures": "count", "storage.segment_mb": "MiB",
    "storage.dead_mb": "MiB", "storage.seals": "count",
    "engine.collapse_jobs": "count", "engine.tier_flush_jobs": "count",
    "engine.stolen": "count",
    "gen.cpu_us_per_req": "us", "gen.window_full_share": "ratio",
    "gen.busy_share": "ratio",
    "trace.qps": "1/s", "trace.overhead": "ratio",
}


def pinned(flags):
    """preexec_fn that puts a workload's processes on one core, or None."""
    if not flags["one_core"]:
        return None
    core = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {core})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: the repository sources are missing")
    jobs = str(min(4, os.cpu_count() or 1))
    cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        cfg += ["-G", "Ninja"]
    for cmd in (cfg, ["cmake", "--build", str(BUILD), "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=850)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            raise SystemExit("perfbench: build failed")


def tool(*args):
    out = subprocess.run([str(BUILD / "perfbench_tool"), *args], check=True,
                         stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


class Server:
    """One server process; `ready_s` is spawn -> first answered request."""

    def __init__(self, argv, preexec_fn=None):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, preexec_fn=preexec_fn)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("LISTENING "):
            self.kill()
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(line.split()[1])
        self.stats = json.loads(self.call("stats")[len("STATS "):])
        self.ready_s = time.perf_counter() - t0

    def call(self, line):
        with socket.create_connection(("127.0.0.1", self.port)) as s:
            s.sendall((line + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return buf.decode().strip()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=ROUND_TIMEOUT_S)
        finally:
            self.kill()


def dir_mb(path):
    total = 0
    for p in Path(path).rglob("*"):
        if p.is_file():
            total += p.stat().st_size
    return total / (1 << 20)


def run_round(args, flags, base, base_seg, rdir, traced):
    """One fixed-work round; returns a dict of figures and checks."""
    rdir.mkdir(parents=True)
    ck, wal, seg = rdir / "ck", rdir / "wal", rdir / "seg"
    dirs = []
    if flags["auto_checkpoint"]:
        dirs += ["--checkpoint", str(ck)]
    if flags["wal"]:
        wal.mkdir()
        dirs += ["--wal-dir", str(wal)]
    if flags["segment_dir"]:
        # Paged users live in the base's segment files, not in the
        # checkpoint, so every server gets its own copy of them.
        shutil.copytree(base_seg, seg, copy_function=os.link)
        dirs += ["--segment-dir", str(seg)]
    spans = rdir / "spans.json"
    if traced:
        argv = [str(BUILD / "perfbench_tool"), "serve-traced", "--workload",
                args.workload, "--restore", str(base), "--spans-out", str(spans)] + dirs
        if flags["segment_dir"]:
            shutil.copytree(base_seg, rdir / "seg-ladder", copy_function=os.link)
            argv += ["--ladder-segment-dir", str(rdir / "seg-ladder")]
    else:
        argv = ([str(BUILD / "hstream_serve"), "--listen", "0", "--restore", str(base)]
                + flags["server_flags"] + dirs)
    server = Server(argv, pinned(flags))
    try:
        gen = subprocess.run(
            [str(BUILD / "perfbench_loadgen"), "--workload", args.workload,
             "--seed", str(args.seed), "--port", str(server.port),
             "--server-pid", str(server.proc.pid)],
            stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, check=True,
            preexec_fn=pinned(flags))
        res = json.loads(gen.stdout.decode().strip().splitlines()[-1])
        res["setup_s"] = server.ready_s
        # What a restart needs on disk: the round's checkpoint chain, WAL
        # and segment files, plus the base checkpoint when the server
        # writes no checkpoint of its own.
        res["disk_mb"] = dir_mb(rdir) + (0 if ck.exists() else sum(
            p.stat().st_size for p in base.parent.glob(base.name + "*")
            if p.is_file()) / (1 << 20))
        res["checks"] = []
        if traced:
            server.stop()
            res["spans"] = json.loads(spans.read_text())
            return res
    finally:
        server.kill()

    # Crash recovery: restart on what the killed server left on disk.
    restore = ck if ck.exists() else base
    floor = tool("events", "--workload", args.workload, "--restore", str(restore))["events"]
    if flags["segment_dir"]:
        seg2 = rdir / "seg-recover"
        shutil.copytree(base_seg, seg2, copy_function=os.link)
        dirs[dirs.index(str(seg))] = str(seg2)
    argv = ([str(BUILD / "hstream_serve"), "--listen", "0", "--restore", str(restore)]
            + flags["server_flags"] + dirs)
    again = Server(argv, pinned(flags))
    again.kill()
    recovered = again.stats["events"]
    acked = res["events_end"]
    res["recover_s"] = again.ready_s
    # Acknowledged events a restart lost. Only a WAL promises them; a
    # server without one restarts from its checkpoint by design.
    res["wal_acked_lost"] = acked - recovered if flags["wal"] else 0
    if not floor <= recovered <= acked:
        res["checks"].append("recovered events %d outside [checkpoint %d, acked %d]"
                             % (recovered, floor, acked))
    return res


def reduce_rounds(name, values):
    """One figure per run from its rounds.

    Host interference only ever slows a round down, and on the reference
    VM it comes in spells of several seconds, so the request-path timings
    take the fast quartile of the rounds (the lower quartile of a cost,
    the upper of qps): a spell covering up to three quarters of a run no
    longer moves the figure. Set-up, recovery, sizes and accuracy take the
    median.
    """
    if name in ("qps", "p50_us", "p99_us", "cpu_us_per_req"):
        q = statistics.quantiles(values, n=4, method="inclusive")
        return q[2] if name == "qps" else q[0]
    return statistics.median(values)


def delta(res, block, key, sub=None):
    end, start = res[block + "_end"], res[block + "_start"]
    if sub:
        end, start = end.get(sub, {}), start.get(sub, {})
    return end.get(key, 0) - start.get(key, 0)


def ratio(hits, misses):
    return hits / (hits + misses) if hits + misses > 0 else 0.0


def counters(res):
    """Per-layer counters of an untraced round (stats/health at run end)."""
    se, he = res["stats_end"], res["health_end"]
    wal = he.get("wal", {})
    jobs_end = he["task_runtime"]["completed"]
    jobs_start = res["health_start"]["task_runtime"]["completed"]
    done = lambda job: jobs_end.get(job, 0) - jobs_start.get(job, 0)
    hits = delta(res, "health", "page_in_cache_hits")
    page_ins = delta(res, "health", "page_ins")
    return {
        "net.partial_writes": delta(res, "health", "partial_writes", "net"),
        "admission.shed": delta(res, "health", "shed"),
        "admission.deadline_exceeded": delta(res, "health", "deadline_exceeded"),
        "registry.resident_mb": se["resident_bytes"] / (1 << 20),
        "registry.over_budget": se["resident_bytes"] / max(1, se["budget_bytes"]),
        "registry.promotions": delta(res, "stats", "promotions"),
        "registry.demotions": delta(res, "stats", "demotions"),
        "registry.topk_cache_hit_ratio": ratio(delta(res, "stats", "topk_cache_hits"),
                                               delta(res, "stats", "topk_cache_misses")),
        "heavy.report_cache_hit_ratio": ratio(delta(res, "stats", "hh_report_cache_hits"),
                                              delta(res, "stats", "hh_report_cache_misses")),
        "wal.bytes_per_record": wal.get("bytes", 0) / max(1, wal.get("records", 0)),
        "wal.flushes": delta(res, "health", "flushes", "wal"),
        "wal.fsyncs": delta(res, "health", "fsyncs", "wal"),
        "wal.acked_lost": res.get("wal_acked_lost", 0),
        "checkpoint.deferred": delta(res, "health", "checkpoints_deferred"),
        "storage.page_ins": page_ins,
        "storage.page_in_cache_hit_ratio": ratio(hits, page_ins),
        "storage.segment_mb": he["storage"]["live_bytes"] / (1 << 20),
        "storage.dead_mb": he["storage"]["dead_bytes"] / (1 << 20),
        "storage.seals": delta(res, "health", "segment_seals"),
        "storage.page_in_failures": delta(res, "health", "page_in_failures"),
        "engine.collapse_jobs": done("delta_collapse"),
        "engine.tier_flush_jobs": done("tier_demotion"),
        "engine.stolen": delta(res, "health", "stolen", "task_runtime"),
        "gen.cpu_us_per_req": res["gen_cpu_s"] * 1e6 / max(1, res["completed"]),
        "gen.window_full_share": res["window_full_share"],
        "gen.busy_share": res["gen_busy_share"],
    }


def spans_metrics(res, binary):
    s = res["spans"]
    return {
        "net.self_us": res["mean_us"] - s["handle_mean_ns"] / 1000.0,
        "wire.decode_ns": s["decode_ns"] if binary else 0.0,
        "wire.encode_ns": s["encode_ns"] if binary else 0.0,
        "protocol.parse_ns": 0.0 if binary else s["decode_ns"],
        "protocol.format_ns": 0.0 if binary else s["encode_ns"],
        "session.handle_ns": s["handle_mean_ns"],
        "session.handle_p99_ns": s["handle_p99_ns"],
        "session.unexplained_ns": s["unexplained_ns"],
        "service.add_ns": s["add_ns"],
        "service.paper_ns": s["paper_ns"],
        "service.get_ns": s["get_ns"],
        "service.top_ns": s["top_ns"],
        "service.heavy_ns": s["heavy_ns"],
        "heavy.add_paper_ns": s["heavy_add_paper_ns"],
        "core.eh_add_ns": s["eh_add_ns"],
        "wal.append_ns": s["wal_append_ns"],
        "checkpoint.save_ms": s["checkpoint_save_ms"],
        "checkpoint.bytes_per_save": s["checkpoint_bytes_per_save"],
        "recover.restore_ms": s["restore_ms"],
        "recover.replay_us_per_record": s["replay_us_per_record"],
        "trace.qps": res["qps"],
    }


def host_stamp():
    flags = ""
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("flags"):
                flags = line
                break
    except OSError:
        pass
    build_type = ""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {"nproc": os.cpu_count(), "isa": platform.machine(),
            "avx2": " avx2" in flags, "build_type": build_type}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    flags = tool("flags", "--workload", args.workload)
    work = WORK / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        base, base_seg = work / "base", work / "base-seg"
        base_seg.mkdir(parents=True)
        extra = ["--segment-dir", str(base_seg)] if flags["segment_dir"] else []
        t0 = time.perf_counter()
        tool("base", "--workload", args.workload, "--seed", str(args.seed),
             "--out", str(base), *extra)
        log("base checkpoint built in %.2fs" % (time.perf_counter() - t0))

        rounds, traced_rounds = [], []
        start = time.perf_counter()
        while (len(rounds) < (1 if args.trace else MIN_ROUNDS)
               or time.perf_counter() - start < args.seconds):
            # Each round's files go before the next round starts, within
            # --seconds: on a filesystem mounted with `discard` unlinking a
            # file the server fsynced takes ~50-80 ms (~2 s per coldtier
            # round), and deferred to the end it doubled a run's length.
            rdir = work / ("r%d" % len(rounds))
            rounds.append(run_round(args, flags, base, base_seg, rdir, False))
            shutil.rmtree(rdir)
            if args.trace:
                rdir = work / ("t%d" % len(traced_rounds))
                traced_rounds.append(run_round(args, flags, base, base_seg, rdir, True))
                shutil.rmtree(rdir)
            r = rounds[-1]
            log("round %d (%.1fs): qps %.0f p50 %.1fus p99 %.1fus cpu %.2fus/req "
                "setup %.3fs recover %.3fs failed %d"
                % (len(rounds), time.perf_counter() - start, r["qps"], r["p50_us"],
                   r["p99_us"], r["cpu_us_per_req"], r["setup_s"], r["recover_s"],
                   r["failed"]))
    finally:
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        log("scratch files removed in %.1fs" % (time.perf_counter() - t0))

    every = rounds + traced_rounds
    attempted = sum(r["attempted"] + r["sample_attempted"] for r in every)
    failed = sum(r["failed"] + r["sample_failed"] for r in every)
    violations = [v for r in every for v in r["violations"] + r["checks"]]
    correct = failed == 0 and not violations and all(r["correct"] for r in every)
    med = lambda rs, key: statistics.median(r[key] for r in rs)

    if args.trace:
        per = [counters(r) for r in rounds]
        metrics = {k: statistics.median(p[k] for p in per) for k in per[0]}
        sp = [spans_metrics(r, flags["binary"]) for r in traced_rounds]
        metrics.update({k: statistics.median(p[k] for p in sp) for k in sp[0]})
        metrics["trace.overhead"] = med(rounds, "qps") / metrics["trace.qps"] - 1.0
        out = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        out = {k: {"value": reduce_rounds(k, [r[k] for r in rounds]), "unit": u}
               for k, u in E2E_UNITS.items()}

    print("# host " + json.dumps(host_stamp()))
    print("# workload %s: %d rounds of %d timed requests over %d connection(s), "
          "window %d, %s protocol; latency samples per round %d; server flags %s"
          % (args.workload, len(rounds), flags["timed_requests"], flags["connections"],
             flags["window"], "binary" if flags["binary"] else "text",
             rounds[0]["samples"], " ".join(flags["server_flags"])))
    for v in violations[:20]:
        print("# violation: " + v)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
