"""Benchmark of the LTE pipeline: offline fit, interactive exploration, and
open-loop serving with ingest, measured end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload offline_fit --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with the library unmodified;
``--trace 1`` runs the workload once untraced and once with every layer
boundary wrapped, and reports per-layer metrics, span coverage and the
tracing overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before it
are a readable report.  Spans and the full result are written under
``.perfbench/`` in the repository root.  Metric definitions and the
layer-to-end-to-end map are in ``perfbench/README.md``.
"""

import argparse
import json
import os
import resource
import sys
import time

import machine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("offline_fit", "explore_closed",
                                 "serve_ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def coverage(recorder, segments):
    """Share of the traced wall-clock covered by root spans."""
    wall = sum(end - start for start, end in segments)
    covered = sum(recorder.root_seconds(start) - recorder.root_seconds(end)
                  for start, end in segments)
    return covered / wall


def layer_metrics(recorder, untraced, traced, ceilings, segments):
    s, calls, n = recorder.self_seconds, recorder.calls, recorder.counts
    adam_gbps = n["nn.adam_step.bytes"] / s["nn.adam_step"] / 1e9 \
        if s["nn.adam_step"] else 0.0
    hits = misses = enc_hits = enc_misses = 0
    for manager in recorder.managers.values():
        hits += manager.cache.stats["hits"]
        misses += manager.cache.stats["misses"]
        enc_hits += manager.metrics.value("serve.manager.encode_cache.hits")
        enc_misses += manager.metrics.value(
            "serve.manager.encode_cache.misses")
    busy_flushes = n["serve.flush.busy_calls"]
    metrics = {name + ".s": s[name] for name in (
        "data.table", "core.prepare", "core.taskgen", "train.offline",
        "train.encode", "train.step_epoch", "train.pretrain_epoch",
        "train.meta_epoch", "train.meta.build", "train.meta.compute",
        "train.meta.apply", "nn.adam_step", "nn.backward", "core.adapt",
        "core.encode", "core.classify", "core.refine", "core.optimizer_fit",
        "serve.submit", "serve.flush", "serve.adapt_requests",
        "serve.predict_many", "store.append", "store.scan")}
    metrics.update({name + ".calls": calls[name] for name in (
        "train.pretrain_epoch", "train.meta_epoch", "train.meta.build",
        "train.meta.compute", "train.meta.apply", "nn.adam_step",
        "nn.backward", "core.adapt")})
    metrics.update({key: n[key] for key in (
        "train.encode.rows", "nn.adam_step.bytes", "core.encode.rows",
        "core.classify.rows", "core.refine.rows", "serve.queue_wait.s",
        "store.append.rows", "store.chunk_evals", "store.chunks_pruned",
        "store.chunks_watermarked")})
    metrics.update({
        "nn.adam_step.gbps": adam_gbps,
        "nn.adam_step.stream_frac": adam_gbps / ceilings["stream_gbps"],
        "serve.flush.calls": busy_flushes,
        "serve.batch_adaptations":
            n["serve.flush.adaptations"] / busy_flushes
            if busy_flushes else 0.0,
        "serve.prediction_cache.hit_ratio": hits / max(1, hits + misses),
        "serve.encode_cache.hit_ratio":
            enc_hits / max(1, enc_hits + enc_misses),
        "ceiling.stream_gbps": ceilings["stream_gbps"],
        "ceiling.gemm_gflops": ceilings["gemm_gflops"],
        "obs.trace_overhead_frac":
            traced["busy_s"] / untraced["busy_s"] - 1.0,
        "bench.generator_lag_ms": 1e3 * max(traced["lag"]),
        "bench.glue.s": sum(seconds for name, seconds in s.items()
                            if name.startswith("bench.")
                            and name != "bench.idle"),
        "bench.span_coverage": coverage(recorder, segments),
    })
    return metrics


def run_untraced(workload, run, args):
    from workloads import setup
    ctx = setup(run, args.seed, workload.fits_in_setup)
    result = workload.measure(ctx, run, workload.plan(args.seconds, False))
    values = workload.metrics(ctx, run, result, args.seed)
    run.report["generator_lag_ms"] = 1e3 * max(result["lag"])
    values.update(setup_s=ctx.setup_s, peak_rss_mb=peak_rss_mb())
    return values


def run_traced(workload, run, args):
    from tracing import instrument
    from workloads import setup, clock
    ceilings = {"stream_gbps": machine.stream_add_gbps(),
                "gemm_gflops": machine.gemm_gflops()}
    segments = []

    def traced_segment(function, *fargs):
        with instrument(run.recorder):
            run.tracing = True
            start = clock()
            try:
                return function(*fargs)
            finally:
                segments.append((start, clock()))
                run.tracing = False

    ctx = traced_segment(setup, run, args.seed, workload.fits_in_setup)
    untraced = workload.measure(ctx, run, workload.plan(args.seconds, True))
    traced = traced_segment(workload.measure, ctx, run, untraced["plan"])
    run.gate("traced_equals_untraced",
             traced["outputs"] == untraced["outputs"])
    values = layer_metrics(run.recorder, untraced, traced, ceilings,
                           segments)
    run.gate("span_coverage", values["bench.span_coverage"] >= 0.95)
    return values


def main(argv=None):
    args = parse_args(argv)
    refused = machine.refused_env()
    if refused:
        print("refusing to run: {} set; each switches the measured code "
              "path".format(", ".join(refused)), file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("no library sources at {}".format(src), file=sys.stderr)
        return 3
    sys.path.insert(0, src)
    from tracing import Recorder
    from workloads import WORKLOADS, Run

    declared = declared_metrics(args.trace)
    workload = WORKLOADS[args.workload]
    run = Run(args.seed, Recorder() if args.trace else None)
    started = time.time()
    values = run_traced(workload, run, args) if args.trace \
        else run_untraced(workload, run, args)

    correct = run.failed == 0 and all(run.gates.values())
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "{}-seed{}-trace{}".format(
        args.workload, args.seed, args.trace))
    if run.recorder is not None:
        run.recorder.write(stem + ".spans.jsonl")
    result = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "started": started,
        "provenance": machine.provenance(ROOT, args.seed),
        "correct": correct, "gates": run.gates,
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / max(1, run.attempted),
        "report": run.report, "values": values,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    # Every run also appends to one trajectory, so no result overwrites
    # an earlier one.
    with open(os.path.join(out_dir, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(result, sort_keys=True, default=str) + "\n")

    for key, value in sorted(result["provenance"].items()):
        print("# {:<34} {}".format(key, value))
    for key, value in sorted(run.gates.items()):
        print("# gate {:<29} {}".format(key, "pass" if value else "FAIL"))
    print("# {:<34} {} of {}".format("failed_frac", run.failed,
                                      run.attempted))
    for key, value in sorted(run.report.items()):
        print("# {:<34} {}".format(key, value))
    for key in sorted(declared):
        print("{:<36} {:>16.6g} {}".format(key, values[key], declared[key]))
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError("metrics not measured: {}".format(sorted(missing)))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
