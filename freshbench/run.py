#!/usr/bin/env python3
"""Fresh-page end-to-end benchmark of the wrapper stack.

Usage, from the repository root::

    python3 freshbench/run.py --workload apply-xpath --seed 1 --seconds 10 --trace 0
    python3 freshbench/run.py --selftest

Workloads (see ``BENCHMARK.json`` for why each exists): ``apply-xpath``,
``apply-lr``, ``learn`` and ``serve``.  Inputs are generated from
``--seed``; every timed input is page HTML the process has never parsed
(see ``fresh.py``).  Set-up — generation, model fitting, learning the
applied artifacts, and for ``serve`` starting the daemon — is repeated
``setup_repeats`` times and its median reported as ``setup_s``.

``--trace 0`` measures with the program's production defaults
(telemetry on, no trace log) and prints the end-to-end metrics, their
timings scaled to a nominal interpreter speed measured just before each
pass (``stats.reference_seconds``; raw figures are printed too).
``--trace 1`` makes a traced run instead: spans around every call into
a layer, kept in memory and written to ``.bench_out/`` at the end, from
which the per-layer metrics are derived.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every output is
checked; a wrong, refused or repeated-input operation counts as failed
and makes ``correct`` false.  A detailed report (environment, per-step
figures, failure reasons) is written next to the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apply-xpath", "apply-lr", "learn", "serve")
#: Traced in-process runs fail when their spans cover less of the
#: timed window than this.
MIN_COVERAGE = 0.9


def environment(seed: int) -> dict:
    from repro.telemetry import get_registry

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "seed": seed,
        "repro_telemetry": os.environ.get("REPRO_TELEMETRY", ""),
        "telemetry_enabled": get_registry().enabled,
        "platform": platform.platform(),
    }


def git_sha(root: str) -> str:
    """HEAD commit read from ``.git`` without running git (``unknown``
    in a checkout that is not a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setups(repeats: int, build, dispose) -> tuple[object, list, list]:
    """Run ``build`` ``repeats`` times, disposing each result before the
    next build starts; returns the last one, every duration and the
    speed scale measured before each."""
    from stats import speed_scale

    durations, scales, kept = [], [], None
    for index in range(repeats):
        if kept is not None:
            dispose(kept)
            kept = None
        gc.collect()
        scales.append(speed_scale())
        start = time.perf_counter()
        kept = build(index)
        durations.append(time.perf_counter() - start)
    # The harness's own set-up heap is frozen out of the collector, so
    # collections during the run scan what the program allocates, not
    # the generated dataset kept alive for checking.
    gc.collect()
    gc.freeze()
    return kept, durations, scales


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(main_root, main_spans, main_counts, apply_spans, apply_counts,
                  learn_spans, learn_counts, extra) -> dict:
    """Per-layer metrics from spans (per root name and child name) and
    the work counts recorded beside them."""
    from spans import by_root

    main = by_root(main_spans)
    applied = by_root(apply_spans)
    learned = by_root(learn_spans)

    def per(table, root, name, base):
        count, total = table.get((root, name), (0, 0.0))
        return total * 1e3 / base if base else 0.0

    pages = main_counts.get(f"{main_root}.pages", 0)
    main_sites = main_counts.get(f"{main_root}.sites", 0)
    parse = per(main, main_root, "parse", pages)
    tokenize = per(main, "", "probe.tokenize", main_counts.get(f"{main_root}.probed_pages", 0))
    sites = apply_counts.get("apply.sites", 0)
    probed = apply_counts.get("apply.probed", 0)
    apply_pages = apply_counts.get("apply.pages", 0)
    index = per(applied, "apply", "index", sites)
    lsites = learn_counts.get("learn.sites", 0)
    lprobed = learn_counts.get("learn.probed", 0)
    out = {
        "runtime.gc_ms_per_site": per(main, main_root, "gc", main_sites),
        "htmldom.tokenize_ms_per_page": tokenize,
        "htmldom.parse_ms_per_page": parse,
        "htmldom.build_freeze_ms_per_page": parse - tokenize,
        "htmldom.bytes_per_page": main_counts.get(f"{main_root}.bytes", 0) / pages if pages else 0.0,
        "htmldom.nodes_per_page": main_counts.get(f"{main_root}.nodes", 0) / pages if pages else 0.0,
        "wrappers.xpath.feature_index_ms_per_site": index if apply_counts.get("apply.index.xpath") else 0.0,
        "engine.text_span_table_ms_per_site": index if apply_counts.get("apply.index.lr") else 0.0,
        "engine.extract_cold_ms_per_site": per(applied, "apply", "extract", sites),
        "engine.extract_warm_ms_per_site": per(applied, "", "probe.extract_warm", probed),
        "engine.memo_hit_ms_per_site": per(applied, "", "probe.memo_hit", probed),
        "api.encode_ms_per_site": per(applied, "apply", "encode", sites),
        "engine.extracted_per_page": apply_counts.get("apply.extracted", 0) / apply_pages if apply_pages else 0.0,
        "annotators.annotate_ms_per_site": per(learned, "learn", "annotate", lsites),
        "wrappers.learn_feature_index_ms_per_site": per(learned, "learn", "index", lsites),
        "enumeration.enumerate_ms_per_site": per(learned, "learn", "enumerate", lsites),
        "engine.batch_extract_ms_per_site": per(learned, "learn", "batch_extract", lsites),
        "ranking.score_ms_per_site": per(learned, "learn", "score", lsites),
        "ranking.list_features_ms_per_site": per(learned, "", "probe.list_features", lprobed),
        "annotators.labels_per_site": learn_counts.get("learn.labels", 0) / lsites if lsites else 0.0,
        "enumeration.candidates_per_site": learn_counts.get("learn.candidates", 0) / lsites if lsites else 0.0,
        "enumeration.inductor_calls_per_site": learn_counts.get("learn.inductor_calls", 0) / lsites if lsites else 0.0,
        "api.learn_ms_per_site": per(learned, "", "probe.api_learn", lprobed),
        "api.learn_parts_ms_per_site": sum(
            per(learned, "learn", name, lsites) for name in ("index", "enumerate", "rank")
        ),
    }
    out.update(extra)
    return out


SERVICE_ZEROS = (
    "service.stage.admission_wait_ms", "service.stage.resolve_ms",
    "service.stage.queue_wait_ms", "service.stage.hydrate_ms",
    "service.stage.extract_ms", "service.stage.result_flush_ms",
    "service.client_gap_ms", "scheduler.ship_ms",
    "registry.resolve_site_hits", "registry.resolve_misses", "registry.learned",
    "arena.rebuild_fallbacks", "scheduler.worker_deaths",
    "ingest.submitted", "ingest.failed_results",
    "serve.generator_lag_ms", "serve.backlog_end", "serve.learn_p50_ms",
    "serve.max_rps",
)


def run(workload: str, seed: int, seconds: float, traced: bool, spec: dict,
        cfg: dict, out_dir: str) -> tuple[dict, dict]:
    """One run: set-up, measure, check.  Returns ``(result, report)``."""
    import fresh
    import inproc
    from spans import Tracer, coverage
    from stats import median

    report: dict = {"environment": environment(seed), "workload": workload,
                    "seconds": seconds, "trace": int(traced)}
    repeats = cfg["setup_repeats"]
    e2e: dict = {}
    extra: dict = dict.fromkeys(SERVICE_ZEROS, 0.0)
    if workload in ("apply-xpath", "apply-lr"):
        inductor = workload.split("-")[1]
        setup, durations, scales = timed_setups(
            repeats,
            lambda _: fresh.build_apply_setup(seed, cfg["apply"], (inductor,)),
            lambda _: None,
        )
        outcome = inproc.run_apply(setup, inductor, seconds, seed, traced, cfg)
        tally = outcome["tally"]
        main_root, main_tracer, main_counts = "apply", outcome["tracer"], outcome["counts"]
        apply_tracer, apply_counts = main_tracer, main_counts
        learn_tracer, learn_counts = Tracer(), {}
        if traced:
            inproc.learn_probes(setup, seed, learn_tracer, learn_counts, tally,
                                cfg["learn_probe_sites"])
        e2e["mem_mb"] = peak_rss_mb()
    elif workload == "learn":
        setup, durations, scales = timed_setups(
            repeats, lambda _: fresh.build_learn_setup(seed, cfg["learn"]), lambda _: None
        )
        outcome = inproc.run_learn(setup, seconds, seed, traced, cfg)
        tally = outcome["tally"]
        main_root, main_tracer, main_counts = "learn", outcome["tracer"], outcome["counts"]
        apply_tracer, apply_counts = main_tracer, main_counts
        learn_tracer, learn_counts = main_tracer, main_counts
        e2e["mem_mb"] = peak_rss_mb()
    else:
        import serve

        scfg = cfg["serve"]
        live: list = []  # set-ups whose daemon must be stopped whatever happens

        def build(index):
            made = serve.ServeSetup(ROOT, out_dir, seed, scfg, f"setup{index}")
            live.append(made)
            return made

        def dispose(made):
            made.daemon.close()
            live.remove(made)

        try:
            setup, durations, scales = timed_setups(repeats, build, dispose)
            outcome = serve.run_serve(ROOT, out_dir, seed, seconds, traced, scfg, setup)
        finally:
            for made in live:
                made.daemon.close()
        tally = outcome["tally"]
        main_root = "apply"
        main_tracer, main_counts = outcome["apply_tracer"], outcome["apply_counts"]
        apply_tracer, apply_counts = main_tracer, main_counts
        learn_tracer, learn_counts = Tracer(), {}
        if traced:
            inproc.learn_probes(setup.apply, seed, learn_tracer, learn_counts,
                                tally, cfg["learn_probe_sites"])
        e2e["mem_mb"] = outcome["mem_mb"]
        extra.update(outcome["server"])
        extra["serve.generator_lag_ms"] = outcome["generator_lag_ms"]
        extra["serve.backlog_end"] = outcome["backlog_end"]
        extra["serve.learn_p50_ms"] = outcome["learn_p50_ms"] or 0.0
        extra["serve.max_rps"] = outcome["max_rps"]
        report["steps"] = outcome["steps"]
        report["serve_max_rps"] = outcome["max_rps"]

    report["setup_durations_s"] = durations
    report["passes"] = outcome.get("passes")
    report["pass_busy_s"] = outcome.get("pass_busy_s")
    report["pass_scales"] = outcome.get("pass_scales")
    report["fresh_inputs"] = outcome["fresh_inputs"]
    report["tail_percentile"] = outcome["tail_percentile"]
    report["latency_samples"] = outcome["samples"]
    # Timings at the calibration box's interpreter speed (see
    # stats.reference_seconds); the raw figures stay in the report.
    e2e["setup_s"] = median(d * f for d, f in zip(durations, scales))
    e2e.update(outcome["scaled"])
    report["raw"] = dict(outcome["raw"], setup_s=median(durations))
    report["setup_speed_scales"] = scales
    e2e["extract_f1"] = outcome["f1"]

    if traced:
        if workload == "serve":
            cover = outcome["coverage_frac"]
        else:
            cover = coverage(main_tracer.spans, main_root)
            if cover < MIN_COVERAGE:
                tally.fail("trace coverage below 0.9")
        extra["trace.coverage_frac"] = cover
        extra["trace.overhead_frac"] = outcome["overhead_frac"]
        extra["latency.tail_percentile"] = outcome["tail_percentile"]
        values = layer_metrics(main_root, main_tracer.spans, main_counts,
                               apply_tracer.spans, apply_counts,
                               learn_tracer.spans, learn_counts, extra)
        main_tracer.write(os.path.join(out_dir, "spans.ndjson"))
        if learn_tracer is not main_tracer:
            learn_tracer.write(os.path.join(out_dir, "spans-learn-probe.ndjson"))
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    e2e["ok_frac"] = 1.0 - tally.failed / tally.attempted if tally.attempted else 0.0
    names = [entry["name"] for entry in wanted]
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    report["failures"] = tally.reasons
    report["end_to_end"] = e2e
    if traced:
        report["per_layer"] = {name: values[name] for name in names}
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own fast self-test and exit")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as handle:
        cfg = json.load(handle)
    out_dir = os.path.join(
        ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), spec, cfg, out_dir)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} cores={env['cores']} "
          f"python={env['python']} sha={env['git_sha'][:12]} "
          f"telemetry={'on' if env['telemetry_enabled'] else 'off'}")
    raw = report["raw"]
    print(f"# raw timings (before scaling to nominal interpreter speed): "
          f"setup {raw['setup_s']:.3f} s, {raw['pages_per_s']:.1f} pages/s, "
          f"p50 {raw['latency_p50_ms']:.2f} ms, tail {raw['latency_tail_ms']:.2f} ms")
    print(f"# set-up runs (s): {', '.join(f'{d:.3f}' for d in report['setup_durations_s'])}; "
          f"fresh inputs: {report['fresh_inputs']}; tail = p{report['tail_percentile']:g} "
          f"of {report['latency_samples']} samples")
    if "serve_max_rps" in report:
        print(f"# serve max rate: {report['serve_max_rps']:.2f} req/s")
    for step in report.get("steps", ()):
        print(f"# step {step['name']}: {step['rate']:g} req/s p50 {step['apply_p50_ms']:.2f} ms "
              f"tail p{step['tail_percentile']:g} {step['apply_tail_ms']:.2f} ms "
              f"learn p50 {step['learn_p50_ms']} backlog {step['backlog_mid']}->{step['backlog_end']} "
              f"lag p95 {step['generator_lag_p95_ms']:.2f} ms "
              f"{'valid' if step['valid'] else 'INVALID'} {'pass' if step['passes'] else 'fail'}")
    for reason, count in report["failures"].items():
        print(f"# FAILED {count}x: {reason}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
