#!/usr/bin/env python3
"""CI gates over the bench reports and the live observability dump.

    python3 .github/bench_gate.py <check> FILE...

`<check>` is one of the names in CHECKS. A report check runs on every
report path it is given, fresh (`fmml bench <suite> --out DIR`,
`fmml fault-run --bench-out DIR`) or committed (`bench/`); `obs-dump`
takes the live `fmml obs --json` dump and its `--folded` stacks. Any
failed assertion exits non-zero with its message.

Latency and speedup figures depend on the machine. Floors that need
real cores apply only where the report's "cores" field says they exist;
every correctness field holds everywhere.
"""

import json
import sys


def cem_parallel(path):
    rep = json.load(open(path))
    assert rep["identical"] is True, (
        "parallel/cached output diverged from the sequential "
        f"reference: {rep['sequential_hash']} vs {rep['parallel_hash']} "
        f"vs {rep['steady_hash']}")
    assert rep["parallel_hash"] == rep["sequential_hash"]
    assert rep["cache_hits"] > 0, "cold pass never hit the cache"
    # Cold-start floor on the 4-core runner: parallel + memoized
    # must at least double over sequential/uncached. (On 1-core
    # boxes this regime only reaches ~1.4x — see DESIGN.md §8.)
    assert rep["speedup"] >= 2.0, f"cold speedup {rep['speedup']:.2f}x < 2.0x"
    assert rep["steady_speedup"] >= rep["speedup"], (
        f"warm cache slower than cold: {rep['steady_speedup']:.2f}x")
    print(f"cold {rep['speedup']:.2f}x, steady {rep['steady_speedup']:.2f}x, "
          f"hit_rate {rep['cache_hit_rate']:.1%}, identical")


def train(path):
    rep = json.load(open(path))
    assert rep["identical"] is True, (
        "kernel passes diverged from the scalar reference: "
        f"{rep['reference_hash']} vs {rep['blocked_hash']} "
        f"vs {rep['parallel_hash']}")
    assert rep["blocked_hash"] == rep["reference_hash"]
    assert rep["parallel_hash"] == rep["reference_hash"]
    assert rep["rollbacks"] == 0, (
        f"clean run rolled back {rep['rollbacks']} epoch(s)")
    # Single-thread floor: the blocked kernels + pooled tape must
    # at least double over the scalar reference substrate — this
    # holds even on 1-core boxes (the committed JSON was produced
    # on one). The parallel pass adds rayon batch fan-out, which
    # only pays on the multi-core runners; on 1 core it merely
    # must not fall below the same 2x floor (see DESIGN.md §10).
    assert rep["blocked_speedup"] >= 2.0, (
        f"blocked speedup {rep['blocked_speedup']:.2f}x < 2.0x")
    assert rep["parallel_speedup"] >= 2.0, (
        f"parallel speedup {rep['parallel_speedup']:.2f}x < 2.0x")
    assert rep["pool_hit_rate"] >= 0.9, (
        f"tape pool hit rate {rep['pool_hit_rate']:.1%} < 90%")
    print(f"blocked {rep['blocked_speedup']:.2f}x, "
          f"parallel {rep['parallel_speedup']:.2f}x, "
          f"pool {rep['pool_hit_rate']:.1%}, identical, 0 rollbacks")


def recovery(path):
    # Latency percentiles are machine-dependent; every correctness
    # field must hold in both the fresh report and the committed
    # bench/BENCH_recovery.json (which documents the claimed
    # recovery numbers).
    rep = json.load(open(path))
    assert rep["fingerprint_match"] == 1, (
        f"{path}: crashed run diverged: {rep['clean_fingerprint']} "
        f"vs {rep['crash_fingerprint']}")
    assert rep["availability"] == 1.0, (
        f"{path}: exactly-once broken: {rep['availability']}")
    assert rep["worker_panics"] >= 1, f"{path}: no panics injected"
    assert rep["worker_restarts"] >= 1, f"{path}: supervisor never restarted"
    assert rep["resumes"] >= 1, f"{path}: mid-stream resume never happened"
    assert rep["crash_violations"] == 0, f"{path}: crash pass shipped violations"
    assert rep["chaos_violations"] == 0, f"{path}: chaos pass shipped violations"
    assert rep["chaos_lost"] == 0, f"{path}: chaos lost {rep['chaos_lost']}"
    assert rep["chaos_unsent"] == 0, f"{path}: chaos unsent {rep['chaos_unsent']}"
    assert rep["chaos_client_failures"] == 0, (
        f"{path}: {rep['chaos_client_failures']} loadgen client(s) died")
    assert rep["recovery_p99_us"] < 50_000, (
        f"{path}: recovery p99 {rep['recovery_p99_us']} us >= 50 ms")
    print(f"{path}: {rep['worker_restarts']} restarts, "
          f"p99 {rep['recovery_p99_us']} us, fingerprints identical")


def obs_dump(dump_path, folded_path):
    # The still-running server's dump must carry live per-stage
    # latency histograms, SLO gauges, and trace state.
    dump = json.load(open(dump_path))
    hists = dump["metrics"]["histograms"]
    for stage in ("decode", "queue", "batch", "enforce", "encode", "write"):
        h = hists[f"serve.stage.{stage}_us"]
        assert h["count"] > 0, f"stage {stage} never recorded"
    assert dump["metrics"]["counters"].get("obs.trace.dropped", 0) == 0, \
        "trace rings evicted records during the smoke run"
    assert dump["trace"]["enabled"] is True
    assert dump["trace"]["spans"] > 0, "no spans in the journals"
    assert dump["trace"]["dropped"] == 0
    assert dump["trace"]["summaries"], "no trace summaries exposed"
    gauges = {**dump["metrics"]["gauges"], **dump["metrics"]["float_gauges"]}
    for g in ("slo.deadline_miss_rate", "slo.degraded_rate",
              "slo.queue_depth", "slo.window_replies"):
        assert g in gauges, f"missing SLO gauge {g}"
    folded = open(folded_path).read()
    assert "serve.interval" in folded, "folded stacks miss the serve root"
    print(f"{dump['trace']['spans']} spans, 0 dropped, "
          f"{len(dump['trace']['summaries'])} summaries, SLO gauges live")


def obs(path):
    rep = json.load(open(path))
    assert rep["identical"] is True, (
        f"{path}: tracing perturbed outputs: "
        f"{rep['serve_hash_off']} vs {rep['serve_hash_on']}, "
        f"{rep['train_hash_off']} vs {rep['train_hash_on']}")
    assert rep["dropped"] == 0, f"{path}: dropped {rep['dropped']} spans"
    assert rep["spans"] > 0, f"{path}: traced pass recorded nothing"
    assert rep["max_overhead"] <= 1.05, (
        f"{path}: tracing overhead {rep['max_overhead']:.3f}x > 1.05x")
    print(f"{path}: serve {rep['serve_overhead']:.3f}x, "
          f"train {rep['train_overhead']:.3f}x, identical")


def cluster(path):
    # Correctness fields must hold everywhere; the capacity floor
    # only applies where the cores exist to meet it. The committed
    # bench/BENCH_cluster.json was produced on a 1-core box (see
    # its "cores" field), where a 3-backend cluster cannot beat
    # one direct node — the gate documents, not hides, that.
    rep = json.load(open(path))
    assert rep["direct_lost"] == 0, f"{path}: direct pass lost intervals"
    assert rep["cluster_lost"] == 0, f"{path}: cluster pass lost intervals"
    assert rep["kill_lost"] == 0, (
        f"{path}: kill pass lost {rep['kill_lost']} interval(s)")
    assert rep["kill_migrations"] >= 1, f"{path}: kill never migrated"
    assert rep["recovery_ms"] < 500, (
        f"{path}: recovery took {rep['recovery_ms']:.1f} ms")
    if rep["cores"] >= 4:
        assert rep["speedup"] >= 1.8, (
            f"{path}: cluster speedup {rep['speedup']:.2f}x < 1.8x "
            f"on {rep['cores']} cores")
    print(f"{path}: {rep['cores']} cores, speedup {rep['speedup']:.2f}x, "
          f"kill lost {rep['kill_lost']}, recovery {rep['recovery_ms']:.1f} ms")


def wire(path):
    # Correctness fields hold everywhere; the encode+decode
    # throughput floor only applies where the cores exist to run
    # the bench without scheduler noise (same convention as
    # cluster-smoke). The committed bench/BENCH_wire.json is an
    # honest 1-core run — see its "cores" field.
    rep = json.load(open(path))
    assert rep["fingerprint_match"] == 1, (
        f"{path}: lockstep fingerprints diverge across codecs")
    for codec in ("json", "bin1"):
        assert rep[f"e2e_{codec}_violations"] == 0, (
            f"{path}: {codec} end-to-end pass shipped violations")
        assert rep[f"e2e_{codec}_answered"] > 0, (
            f"{path}: {codec} end-to-end pass answered nothing")
    assert rep["imputed_bin1_bytes"] <= rep["imputed_json_bytes"], (
        f"{path}: bin1 frames larger than JSON")
    if rep["cores"] >= 4:
        s = rep["imputed_encdec_speedup"]
        assert s >= 1.5, (
            f"{path}: imputed enc+dec speedup {s:.2f}x < 1.5x "
            f"on {rep['cores']} cores")
    print(f"{path}: {rep['cores']} cores, "
          f"interval {rep['interval_encdec_speedup']:.1f}x, "
          f"imputed {rep['imputed_encdec_speedup']:.1f}x, "
          f"fingerprints match")


# Report checks run once per path; obs-dump takes its two files at once.
CHECKS = {
    "cem_parallel": cem_parallel,
    "train": train,
    "recovery": recovery,
    "obs": obs,
    "cluster": cluster,
    "wire": wire,
}


def main(argv):
    check, paths = (argv[0], argv[1:]) if argv else (None, [])
    if check == "obs-dump" and len(paths) == 2:
        obs_dump(*paths)
    elif check in CHECKS and paths:
        for path in paths:
            CHECKS[check](path)
    else:
        names = "|".join([*CHECKS, "obs-dump"])
        print(f"usage: bench_gate.py <{names}> FILE...", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
