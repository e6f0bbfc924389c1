"""Fast self-test of the benchmark's own statistics, spans and inputs.

Run with ``python3 freshbench/run.py --selftest`` (a few seconds; no
daemon, no timing).  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_stats() -> None:
    from stats import median, percentile, reference_seconds, speed_scale, tail, tail_percentile

    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    check(median(values) == statistics.median(values), "median")
    check(percentile([1, 2, 3, 4], 50) == 2 and percentile([1, 2, 3, 4], 100) == 4,
          "nearest-rank percentile")
    # The tail is the highest ladder percentile with >= 10 samples beyond it.
    check(tail_percentile(100) == 90.0, "100 samples -> p90")
    check(tail_percentile(199) == 90.0 and tail_percentile(200) == 95.0, "p95 needs 200")
    check(tail_percentile(1000) == 99.0, "1000 samples -> p99")
    check(tail_percentile(19) is None, "19 samples have no tail")
    check(tail(range(1, 101)) == (90.0, 90.0), "tail of 1..100")
    check(tail([3.0, 7.0]) == (100.0, 7.0), "too few samples report the max")
    check(0.0 < reference_seconds() < 1.0, "the reference loop runs in milliseconds")
    check(0.01 < speed_scale() < 100.0, "speed scale is a plausible factor")


def test_spans() -> None:
    from spans import Tracer, by_root, coverage

    tracer = Tracer()
    spans = tracer.spans
    # root 1 [0, 10] with children [0, 4] and [5, 9]; a probe root [10, 12].
    tracer.add("apply", 0.0, 10.0, "a")
    tracer.add("parse", 0.0, 4.0, parent=1)
    tracer.add("extract", 5.0, 9.0, parent=1)
    tracer.add("trie", 5.0, 6.0, parent=3)
    tracer.add("probe.tokenize", 10.0, 12.0)
    table = by_root(spans)
    check(table["apply", "parse"] == (1, 4.0), "child filed under its root")
    check(table["apply", "trie"] == (1, 1.0), "grandchild filed under its root")
    check(table["", "probe.tokenize"] == (1, 2.0), "top-level span under ''")
    check(abs(coverage(spans, "apply") - 0.8) < 1e-12, "coverage counts direct children")
    live = Tracer()
    live.begin("apply", "k")
    live.begin("parse")
    live.end()
    live.end()
    (child, root) = live.spans
    check(child[1] == root[0] and root[1] == 0, "begin/end nest as calls do")


def test_max_rate() -> None:
    from serve import max_rate

    def step(rate, tail_ms, passes, valid=True, grows=False):
        return {"rate": rate, "apply_tail_ms": tail_ms, "passes": passes,
                "valid": valid, "backlog_grows": grows}

    limit = 100.0
    ladder = [step(30, 50.0, True), step(40, 200.0, False)]
    check(abs(max_rate(ladder, limit) - 35.0) < 1e-9, "log-linear interpolation")
    check(max_rate([step(30, 50.0, True), step(40, 80.0, True)], limit) == 40,
          "every step passes: the top rate")
    check(max_rate([step(30, 50.0, True), step(40, 900.0, False, grows=True)], limit) == 30,
          "a growing backlog stops at the last passing rate")
    check(max_rate([step(30, 50.0, True), step(35, 1e9, False, valid=False),
                    step(40, 80.0, True)], limit) == 40,
          "invalid steps are skipped")


def test_fresh_inputs() -> None:
    from fresh import build_apply_setup, node_pairs, salt
    from inproc import apply_plain
    from repro.htmldom import parse_html
    from repro.site import sources_fingerprint

    cfg = {"sites": 3, "learn_pages": 6, "fresh_pages": 4, "batch_pages": 2}
    setup = build_apply_setup(7, cfg, ("xpath",))
    check(len(setup.batches) == 2 * len(setup.artifacts["xpath"]), "two batches per site")
    check(setup.batches, "at least one usable site")
    batch = setup.batches[0]
    original = parse_html(batch.sources[0])
    salted = parse_html(salt(batch.sources[0], "t"))
    check(len(original.nodes) == len(salted.nodes), "salting keeps the tree")
    differing = [
        (a.text, b.text)
        for a, b in zip(original.nodes, salted.nodes)
        if getattr(a, "text", None) != getattr(b, "text", None)
    ]
    check(len(differing) == 1 and differing[0][1].endswith(" [t]"),
          "salting changes exactly the title text")
    prints = {
        sources_fingerprint([salt(h, f"{seed}.{number}") for h in b.sources])
        for seed in (1, 2) for number in range(3) for b in setup.batches
    }
    check(len(prints) == 2 * 3 * len(setup.batches), "salted inputs never repeat")
    # The expected output fixed at set-up is what a fresh apply returns.
    for index, batch in enumerate(setup.batches):
        sources = [salt(h, f"check.{index}") for h in batch.sources]
        _, pairs, texts = apply_plain(setup.artifacts["xpath"][batch.site], batch.site, sources)
        check((pairs, texts) == batch.expected["xpath"], f"expected output of {batch.key}")
        check(all(page < cfg["batch_pages"] for page, _ in pairs), "batch-local page ids")
    check(0.0 < setup.f1["xpath"] <= 1.0, "F1 fixed at set-up")
    again = build_apply_setup(7, cfg, ("xpath",))
    check([b.sources for b in again.batches] == [b.sources for b in setup.batches],
          "the same seed gives the same inputs")
    check(node_pairs([]) == (), "empty extraction")


def test_benchmark_json() -> None:
    from run import SERVICE_ZEROS, layer_metrics

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    extra = dict.fromkeys(SERVICE_ZEROS, 0.0)
    extra.update({"trace.coverage_frac": 1.0, "trace.overhead_frac": 0.0,
                  "latency.tail_percentile": 90.0})
    computed = layer_metrics("apply", [], {}, [], {}, [], {}, extra)
    declared = [entry["name"] for entry in spec["per_layer"]]
    check(sorted(computed) == sorted(declared),
          f"per-layer metrics differ from BENCHMARK.json: "
          f"{sorted(set(computed) ^ set(declared))}")
    check(spec["end_to_end"][0]["name"] == "setup_s", "setup_s is declared")


def main() -> int:
    tests = [test_stats, test_spans, test_max_rate, test_fresh_inputs, test_benchmark_json]
    for test in tests:
        try:
            test()
        except AssertionError as error:
            print(f"FAIL {test.__name__}: {error}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
