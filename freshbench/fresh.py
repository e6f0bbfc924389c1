"""Fresh-page inputs: generation, salting, gold and expected outputs.

Every input the benchmark times is page HTML the process has never
parsed.  DEALERS seeds page ``k`` of a site as ``site_seed*1000 + k``,
so generating ``learn + fresh`` pages per site gives new records
rendered by the template the wrapper was learned on.  Each pass over
that pool then *salts* every page — a pass-unique token appended to
its ``<title>`` — so no input string (and no
:func:`repro.site.sources_fingerprint`) ever repeats within a run,
while node ids, extracted texts and gold labels stay exactly those of
the generated page.

Everything here is set-up: it runs before the clock starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import Extractor, ExtractorConfig
from repro.datasets.dealers import generate_dealers
from repro.datasets.sitegen import GeneratedSite
from repro.engine import EvaluationEngine
from repro.evaluation.metrics import aggregate, prf
from repro.evaluation.runner import split_sites
from repro.htmldom.dom import NodeId
from repro.site import Site

GOLD_TYPE = "name"


def salt(html: str, token: str) -> str:
    """``html`` with ``token`` appended to its title text."""
    at = html.find("</title>")
    if at < 0:
        raise ValueError("page has no </title> to salt")
    return f"{html[:at]} [{token}]{html[at:]}"


def node_pairs(ids) -> tuple[tuple[int, int], ...]:
    """Node ids as sorted ``(page, preorder)`` pairs, the wire form."""
    return tuple((node.page, node.preorder) for node in sorted(ids))


def macro_f1(pairs) -> float:
    """Macro-averaged F1 (the paper's per-site average) of
    ``(predicted, gold)`` label-set pairs."""
    return aggregate([prf(frozenset(p), frozenset(g)) for p, g in pairs]).f1


def _shift(ids, first: int, last: int) -> frozenset[NodeId]:
    """Ids on pages ``first..last-1``, renumbered from page 0."""
    return frozenset(
        NodeId(node.page - first, node.preorder)
        for node in ids
        if first <= node.page < last
    )


def _learn_view(generated: GeneratedSite, pages: int) -> GeneratedSite:
    """The generated site cut to its first ``pages`` pages."""
    return GeneratedSite(
        spec=generated.spec,
        site=Site(generated.name, generated.site.pages[:pages]),
        gold={
            kind: frozenset(n for n in ids if n.page < pages)
            for kind, ids in generated.gold.items()
        },
    )


def fitted_extractor(inductor: str, train, annotator) -> Extractor:
    extractor = Extractor(ExtractorConfig(inductor=inductor, method="ntw"))
    return extractor.fit(train, annotator, GOLD_TYPE)


@dataclass(frozen=True)
class Batch:
    """One apply input: a few fresh pages of one known site."""

    site: str
    key: str
    sources: tuple[str, ...]
    gold: frozenset
    #: inductor -> (sorted node pairs, their texts), fixed at set-up.
    expected: dict = field(hash=False, compare=False)


@dataclass
class ApplySetup:
    """Learned artifacts plus the fresh batches they are applied to."""

    annotator: object
    #: inductor -> site name -> artifact.
    artifacts: dict
    batches: list
    #: inductor -> macro F1 of the expected outputs against gold.
    f1: dict
    #: raw learn-page sources per site (registry keys, learn probes).
    learn_sources: dict
    extractors: dict
    #: never-seen sites (learn-on-miss inputs): name -> sources.
    unseen: dict


def build_apply_setup(seed: int, cfg: dict, inductors, unseen_sites: int = 0) -> ApplySetup:
    """Generate the pool, fit, learn one artifact per site and inductor,
    and fix each fresh batch's expected output."""
    learn, fresh, per_batch = cfg["learn_pages"], cfg["fresh_pages"], cfg["batch_pages"]
    dataset = generate_dealers(
        n_sites=cfg["sites"] + unseen_sites,
        pages_per_site=learn + fresh,
        seed=seed,
    )
    annotator = dataset.annotator()
    known = dataset.sites[: cfg["sites"]]
    views = [_learn_view(g, learn) for g in known]
    train, _ = split_sites(views)
    artifacts: dict = {}
    extractors: dict = {}
    expected: dict = {}
    for inductor in inductors:
        extractor = fitted_extractor(inductor, train, annotator)
        extractors[inductor] = extractor
        artifacts[inductor] = {}
        for view, generated in zip(views, known):
            labels = annotator.annotate(view.site)
            if not labels:
                continue  # nothing to learn from: the site is left out
            artifact = extractor.learn(view.site, labels)
            artifacts[inductor][view.name] = artifact
            expected[inductor, view.name] = artifact.apply(
                generated.site, engine=EvaluationEngine()
            )
    usable = [g for g in known if g.name in artifacts[inductors[0]]]
    batches = []
    for generated in usable:
        site = generated.site
        gold = generated.gold.get(GOLD_TYPE, frozenset())
        for index in range(fresh // per_batch):
            first = learn + index * per_batch
            last = first + per_batch
            outputs = {}
            for inductor in inductors:
                ids = _shift(expected[inductor, generated.name], first, last)
                pairs = node_pairs(ids)
                texts = tuple(
                    site.text_node(NodeId(page + first, pre)).text
                    for page, pre in pairs
                )
                outputs[inductor] = (pairs, texts)
            batches.append(Batch(
                site=generated.name,
                key=f"{generated.name}#{index}",
                sources=tuple(page.source for page in site.pages[first:last]),
                gold=_shift(gold, first, last),
                expected=outputs,
            ))
    f1 = {
        inductor: macro_f1(
            (pairs_to_ids(b.expected[inductor][0]), b.gold) for b in batches
        )
        for inductor in inductors
    }
    return ApplySetup(
        annotator=annotator,
        artifacts=artifacts,
        batches=batches,
        f1=f1,
        learn_sources={
            g.name: tuple(p.source for p in g.site.pages[:learn]) for g in usable
        },
        extractors=extractors,
        unseen={
            g.name: tuple(p.source for p in g.site.pages[:learn])
            for g in dataset.sites[cfg["sites"]:]
        },
    )


def pairs_to_ids(pairs) -> frozenset[NodeId]:
    return frozenset(NodeId(page, pre) for page, pre in pairs)


@dataclass(frozen=True)
class LearnInput:
    """One never-seen site to learn, with the outcome fixed at set-up."""

    site: str
    sources: tuple[str, ...]
    gold: frozenset
    rule: str
    extracted: tuple


@dataclass
class LearnSetup:
    annotator: object
    extractor: Extractor
    inputs: list
    f1: float


def build_learn_setup(seed: int, cfg: dict) -> LearnSetup:
    """Fit on a training slice, then learn every pool site once to fix
    its expected rule and extraction."""
    pages = cfg["pages"]
    dataset = generate_dealers(
        n_sites=cfg["fit_sites"] + cfg["sites"], pages_per_site=pages, seed=seed
    )
    annotator = dataset.annotator()
    train, _ = split_sites(dataset.sites[: cfg["fit_sites"]])
    extractor = fitted_extractor("xpath", train, annotator)
    inputs = []
    for generated in dataset.sites[cfg["fit_sites"]:]:
        labels = annotator.annotate(generated.site)
        if not labels:
            continue
        artifact = extractor.learn(generated.site, labels)
        extracted = artifact.apply(generated.site, engine=extractor.engine)
        inputs.append(LearnInput(
            site=generated.name,
            sources=tuple(p.source for p in generated.site.pages),
            gold=generated.gold.get(GOLD_TYPE, frozenset()),
            rule=artifact.rule,
            extracted=node_pairs(extracted),
        ))
    f1 = macro_f1((pairs_to_ids(i.extracted), i.gold) for i in inputs)
    return LearnSetup(annotator, extractor, inputs, f1)
