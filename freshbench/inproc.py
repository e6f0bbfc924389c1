"""The in-process workloads: ``apply-xpath``, ``apply-lr`` and ``learn``.

Each workload times the production call sequence on fresh pages,
serially, in this process, and checks every output against the one
fixed at set-up.  A traced run alternates plain passes with traced
passes over the same pool (salted differently): traced passes open a
span around every call into a layer, plus *probes* — extra calls made
after the timed window closes, to split a layer or to time a cache
hit — whose spans never count towards the window.
"""

from __future__ import annotations

import json
import time

from repro.engine import EvaluationEngine, text_span_table
from repro.enumeration.top_down import enumerate_top_down
from repro.framework.ntw import subsample_labels
from repro.htmldom import tokenize
from repro.ranking.publication import list_features
from repro.site import Site, sources_fingerprint
from repro.wrappers.xpath_inductor import XPathInductor

from fresh import node_pairs, salt, macro_f1, pairs_to_ids
from stats import median, speed_scale, tail
from spans import Tracer

NOW = time.perf_counter


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class FreshGuard:
    """Fails the run if any input's sources fingerprint repeats."""

    def __init__(self, tally: Tally) -> None:
        self.seen: set[str] = set()
        self.tally = tally

    def check(self, sources) -> None:
        fingerprint = sources_fingerprint(sources)
        if fingerprint in self.seen:
            self.tally.fail("repeated input fingerprint")
        self.seen.add(fingerprint)


# -- apply -------------------------------------------------------------------


def _encode(name: str, order, site) -> tuple[str, list[str]]:
    texts = [site.text_node(node).text for node in order]
    record = json.dumps({
        "site": name,
        "nodes": [[node.page, node.preorder] for node in order],
        "texts": texts,
    })
    return record, texts


def apply_plain(artifact, name: str, sources):
    """Raw HTML -> Site -> artifact.apply -> texts -> one JSON record."""
    start = NOW()
    site = Site.from_html(name, sources)
    order = sorted(artifact.apply(site))
    _, texts = _encode(name, order, site)
    elapsed = NOW() - start
    return elapsed, node_pairs(order), tuple(texts)


def apply_traced(tracer: Tracer, counts: dict, inductor: str, artifact,
                 name: str, key: str, sources, probe: bool = True,
                 tokenize_probe: bool = True):
    """:func:`apply_plain` with a span per layer, then (when ``probe``)
    the probes: tokenize alone, and the cache-hit re-applies."""
    tracer.begin("apply", key)
    tracer.begin("parse")
    site = Site.from_html(name, sources)
    tracer.end()
    tracer.begin("index")
    if inductor == "xpath":
        XPathInductor().feature_map(site, next(site.iter_text_node_ids()))
    else:
        text_span_table(site)
    tracer.end()
    tracer.begin("extract")
    ids = artifact.apply(site)
    tracer.end()
    tracer.begin("encode")
    order = sorted(ids)
    _, texts = _encode(name, order, site)
    tracer.end()
    elapsed = tracer.end()
    if probe:
        if tokenize_probe:
            for html in sources:
                tracer.begin("probe.tokenize")
                tokenize(html)
                tracer.end()
            _count(counts, "apply.probed_pages", len(sources))
        tracer.begin("probe.extract_warm")
        artifact.apply(site, engine=EvaluationEngine())
        tracer.end()
        tracer.begin("probe.memo_hit")
        artifact.apply(site)
        tracer.end()
        _count(counts, "apply.probed", 1)
    _count(counts, "apply.sites", 1)
    _count(counts, "apply.pages", len(sources))
    _count(counts, "apply.bytes", sum(len(h.encode("utf-8")) for h in sources))
    _count(counts, "apply.nodes", sum(len(page.nodes) for page in site.pages))
    _count(counts, "apply.extracted", len(order))
    _count(counts, f"apply.index.{inductor}", 1)
    return elapsed, node_pairs(order), tuple(texts)


def _count(counts: dict, key: str, amount) -> None:
    counts[key] = counts.get(key, 0) + amount


def run_apply(setup, inductor: str, seconds: float, seed: int, traced: bool,
              cfg: dict) -> dict:
    """Apply the set-up artifacts to salted fresh batches for ``seconds``."""
    artifacts = setup.artifacts[inductor]

    def one(run, batch, sources, tracing, probe):
        artifact = artifacts[batch.site]
        if tracing:
            elapsed, pairs, texts = apply_traced(
                run.tracer, run.counts, inductor, artifact, batch.site, batch.key,
                sources, probe=probe,
            )
        else:
            elapsed, pairs, texts = apply_plain(artifact, batch.site, sources)
        run.tally.op((pairs, texts) == batch.expected[inductor], "wrong extraction")
        return elapsed, pairs

    return measure(setup.batches, one, setup.f1[inductor], "apply",
                   f"apply-{inductor}", seconds, seed, traced, cfg)


class Run:
    """What one measurement accumulates besides its timings."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.guard = FreshGuard(self.tally)
        self.tracer = Tracer()
        self.counts: dict = {}


def measure(items, one, f1_fixed: float, root: str, workload: str,
            seconds: float, seed: int, traced: bool, cfg: dict) -> dict:
    """Passes over ``items`` (each salted afresh) until ``seconds`` have
    gone by.  ``one(run, item, sources, tracing, probe)`` processes one
    input, checks it, and returns ``(timed seconds, node pairs)``.  A
    traced run alternates plain and traced passes and ends on a traced
    one; only plain passes give the end-to-end figures."""
    run = Run()
    if traced:
        run.tracer.watch_gc(root)
    # Warm-up: interpreter-level lazy work, excluded from every figure.
    for index, item in enumerate(items[: cfg["warmup_inputs"]]):
        sources = [salt(h, f"{seed}.warm.{index}") for h in item.sources]
        run.guard.check(sources)
        one(run, item, sources, False, False)
    # Per plain pass: (busy seconds, latencies, speed scale measured just
    # before it).  Traced passes only give the tracing overhead.
    plain, traced_busy, pass_f1 = [], [], []
    started = NOW()
    number = 0
    while True:
        tracing = traced and number % 2 == 1
        scale = speed_scale()
        busy = 0.0
        latencies = []
        outputs = []
        for position, item in enumerate(items):
            sources = [salt(h, f"{seed}.{number}") for h in item.sources]
            run.guard.check(sources)
            elapsed, pairs = one(run, item, sources, tracing,
                                 position % cfg["probe_every"] == 0)
            latencies.append(elapsed)
            busy += elapsed
            outputs.append((pairs_to_ids(pairs), item.gold))
        if tracing:
            traced_busy.append(busy)
        else:
            plain.append((busy, latencies, scale))
        pass_f1.append(macro_f1(outputs))
        number += 1
        if NOW() - started >= seconds and (not traced or number % 2 == 0):
            break
    run.tracer.unwatch_gc()
    f1_ok = all(value == f1_fixed for value in pass_f1)
    if not f1_ok:
        run.tally.fail("F1 differs from set-up")
    pages = sum(len(item.sources) for item in items)
    result = {
        "passes": number,
        "tally": run.tally,
        "f1": f1_fixed if f1_ok else median(pass_f1),
        "tracer": run.tracer,
        "counts": run.counts,
        "fresh_inputs": len(run.guard.seen),
        "pass_busy_s": [busy for busy, _, _ in plain],
        "pass_scales": [scale for _, _, scale in plain],
    }
    for key, scaled in (("raw", False), ("scaled", True)):
        factor = [scale if scaled else 1.0 for _, _, scale in plain]
        busy = sum(b * f for (b, _, _), f in zip(plain, factor))
        latencies = [
            value * f for (_, values, _), f in zip(plain, factor) for value in values
        ]
        p, tail_s = tail(latencies, cfg["tail_percentile"][workload])
        result[key] = {
            "pages_per_s": pages * len(plain) / busy,
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
        }
        result["tail_percentile"], result["samples"] = p, len(latencies)
    if traced:
        plain_busy = [busy for busy, _, _ in plain]
        result["overhead_frac"] = median(traced_busy) / median(plain_busy) - 1.0
    return result


# -- learn -------------------------------------------------------------------


def learn_plain(extractor, annotator, name: str, sources):
    """Learn-on-miss: raw HTML -> Site -> annotate -> Extractor.learn ->
    the artifact as stored JSON."""
    start = NOW()
    site = Site.from_html(name, sources)
    artifact = extractor.learn(site, annotator.annotate(site))
    artifact.to_json()
    elapsed = NOW() - start
    extracted = artifact.apply(site, engine=extractor.engine)
    return elapsed, artifact.rule, node_pairs(extracted)


def learn_traced(tracer: Tracer, counts: dict, extractor, annotator,
                 name: str, key: str, sources, tally: Tally, probe: bool = True):
    """The learn pipeline split into its layers, each call spanned, then
    (when ``probe``) the probes: tokenize, list features,
    ``Extractor.learn`` on a separately parsed copy (which must agree)
    and an apply of the learned artifact to a third copy."""
    inductor = extractor.inductor
    scorer = extractor.scorer()
    engine = EvaluationEngine()
    tracer.begin("learn", key)
    tracer.begin("parse")
    site = Site.from_html(name, sources)
    tracer.end()
    tracer.begin("annotate")
    labels = annotator.annotate(site)
    tracer.end()
    tracer.begin("index")
    inductor.feature_map(site, min(labels))
    tracer.end()
    tracer.begin("enumerate")
    enumeration = enumerate_top_down(
        inductor, site, subsample_labels(labels, extractor.config.max_labels)
    )
    tracer.end()
    tracer.begin("rank")
    tracer.begin("batch_extract")
    engine.batch_extract(site, enumeration.wrappers)
    tracer.end()
    tracer.begin("score")
    ranked = scorer.rank(site, enumeration.wrappers, labels, engine=engine)
    tracer.end()
    tracer.end()
    tracer.begin("encode")
    best = ranked[0]
    json.dumps(best.wrapper.to_spec())
    tracer.end()
    elapsed = tracer.end()
    rule, extracted = best.wrapper.rule(), node_pairs(best.extracted)
    if probe:
        for html in sources:
            tracer.begin("probe.tokenize")
            tokenize(html)
            tracer.end()
        tracer.begin("probe.list_features")
        for candidate in ranked:
            list_features(site, candidate.extracted)
        tracer.end()
        copy = Site.from_html(name, sources)
        copy_labels = annotator.annotate(copy)
        tracer.begin("probe.api_learn")
        artifact = extractor.learn(copy, copy_labels)
        tracer.end()
        same = (
            artifact.rule == rule
            and node_pairs(artifact.apply(copy, engine=extractor.engine)) == extracted
        )
        tally.op(same, "traced learn differs from Extractor.learn")
        apply_traced(tracer, counts, extractor.config.inductor, artifact, name, key,
                     sources, tokenize_probe=False)
        _count(counts, "learn.probed", 1)
        _count(counts, "learn.probed_pages", len(sources))
    _count(counts, "learn.sites", 1)
    _count(counts, "learn.pages", len(sources))
    _count(counts, "learn.bytes", sum(len(h.encode("utf-8")) for h in sources))
    _count(counts, "learn.nodes", sum(len(page.nodes) for page in site.pages))
    _count(counts, "learn.labels", len(labels))
    _count(counts, "learn.candidates", len(enumeration.wrappers))
    _count(counts, "learn.inductor_calls", enumeration.inductor_calls)
    return elapsed, rule, extracted


def run_learn(setup, seconds: float, seed: int, traced: bool, cfg: dict) -> dict:
    """Learn never-seen sites serially for ``seconds``."""
    extractor, annotator = setup.extractor, setup.annotator

    def one(run, item, sources, tracing, probe):
        if tracing:
            elapsed, rule, extracted = learn_traced(
                run.tracer, run.counts, extractor, annotator, item.site,
                item.site, sources, run.tally, probe=probe,
            )
        else:
            elapsed, rule, extracted = learn_plain(extractor, annotator, item.site, sources)
        run.tally.op(rule == item.rule and extracted == item.extracted,
                     "learned rule differs from set-up")
        return elapsed, extracted

    return measure(setup.inputs, one, setup.f1, "learn", "learn", seconds, seed,
                   traced, cfg)


def learn_probes(setup, seed: int, tracer: Tracer, counts: dict, tally: Tally,
                 limit: int) -> None:
    """Traced learns of the apply set-up's own learn pages (salted), so
    apply and serve runs report the learn layers too."""
    extractor = next(iter(setup.extractors.values()))
    for index, (name, sources) in enumerate(list(setup.learn_sources.items())[:limit]):
        salted = [salt(h, f"{seed}.probe.{index}") for h in sources]
        learn_traced(tracer, counts, extractor, setup.annotator, name,
                     f"{name}@probe", salted, tally)
