"""Per-layer tracing of semfuse from outside the program.

The traced run wraps the public functions of each semfuse module where
they are looked up, so the program itself carries no tracing code. Each
wrapped call is a span; a span's self time is its duration minus the
time of the wrapped calls made inside it. Hot primitives (called up to
millions of times) are only aggregated as count, total and self time;
the other layers also keep one span record per call. Everything stays
in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

HOT = {
    "autodiff.matmul",
    "autodiff.add",
    "autodiff.grad",
    "autodiff.grad_create_graph",
    "autodiff.adam_step",
    "embed_zsl.embed_loss",
    "fusion.fuse_graph",
    "gen_zsl.gradient_penalty",
    "wordvec.embed_text",
}

# wgan_step keeps every duration so its percentiles can be reported
SAMPLED = {"gen_zsl.wgan_step"}


class Tracer:
    """Span stack plus in-memory aggregates; ``clock`` returns seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child seconds, span index]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict] = []
        self.request = 0
        # kind of the running command ("train"/"eval"), when one is set
        self.kind: str | None = None
        self.kind_stats: dict[str, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0])
        )
        # distinct tokens embed_text found, one set per loaded table
        self.lookups: list[set[str]] = []
        self._table_lookups: dict[int, set[str]] = {}

    def enter(self, name: str) -> None:
        index = None
        if name not in HOT:
            parent = self.stack[-1][3] if self.stack else None
            index = len(self.spans)
            self.spans.append({"request": self.request, "name": name, "parent": parent})
        self.stack.append([name, self.clock(), 0.0, index])

    def exit(self) -> None:
        name, start, child, index = self.stack.pop()
        end = self.clock()
        duration = end - start
        calls_total_self = self.stats[name]
        calls_total_self[0] += 1
        calls_total_self[1] += duration
        calls_total_self[2] += duration - child
        if self.kind is not None:
            total_self = self.kind_stats[self.kind][name]
            total_self[0] += duration
            total_self[1] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index].update(start=start, end=end, self=duration - child)
        if name in SAMPLED:
            self.samples[name].append(duration)

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0


def _span(tracer: Tracer, fn, name, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the call's
    arguments, and ``after(result, args, kwargs)`` records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name(*args, **kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _targets(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced name."""
    from semfuse import autodiff, cli, datasets, embed_zsl, evaluation, fusion
    from semfuse import gen_zsl, llm_client, wordvec

    counts = tracer.counts
    # arrays already counted, so views and re-wrapped arrays add no bytes
    counted = weakref.WeakValueDictionary()

    def tensor_init(orig):
        def __init__(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            counts["autodiff.tensors"] += 1
            data = self.data
            if data.flags.owndata and counted.get(id(data)) is not data:
                counted[id(data)] = data
                counts["autodiff.tensor_bytes"] += data.nbytes

        return __init__

    def matmul_flop(result, args, kwargs):
        (n, k), m = args[0].data.shape, args[1].data.shape[1]
        counts["autodiff.matmul_flop"] += 2 * n * k * m

    def ckpt_bytes(result, args, kwargs):
        counts["autodiff.ckpt_bytes"] += Path(args[0]).stat().st_size

    def tokens_parsed(result, args, kwargs):
        counts["wordvec.tokens_parsed"] += len(result)
        tracer.lookups.append(set())
        tracer._table_lookups[id(result)] = tracer.lookups[-1]

    def tokens_used(result, args, kwargs):
        table, text = args
        tracer._table_lookups[id(table)].update(
            t for t in wordvec.tokenize(text) if t in table.vectors
        )

    def cache_read(result, args, kwargs):
        counts["llm_client.cache_reads"] += 1

    def grad_name(*args, **kwargs):
        create = kwargs.get("create_graph", args[2] if len(args) > 2 else False)
        return "autodiff.grad_create_graph" if create else "autodiff.grad"

    def features_name(path, *args, **kwargs):
        with open(path, "rb") as handle:
            binary = handle.read(4) == datasets._BINARY_MAGIC
        return "datasets.load_features_bin" if binary else "datasets.load_features_csv"

    def span(name, after=None):
        return lambda fn: _span(tracer, fn, name, after)

    def count_only(after):
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(result, args, kwargs)
                return result

            return wrapper

        return factory

    return [
        (autodiff.Tensor, "__init__", tensor_init),
        (autodiff, "matmul", span("autodiff.matmul", matmul_flop)),
        (autodiff, "add", span("autodiff.add")),
        (autodiff, "grad", span(grad_name)),
        (autodiff, "adam_step", span("autodiff.adam_step")),
        (autodiff, "save_params", span("autodiff.save_params", ckpt_bytes)),
        (autodiff, "load_params", span("autodiff.load_params")),
        (wordvec, "load_word_vectors", span("wordvec.load_word_vectors", tokens_parsed)),
        (wordvec, "embed_text", span("wordvec.embed_text", tokens_used)),
        (datasets, "load_features", span(features_name)),
        (fusion, "read_bundles", span("fusion.read_bundles")),
        (fusion, "fuse_graph", span("fusion.fuse_graph")),
        (fusion, "resolve_semantics", span("fusion.resolve_semantics")),
        (fusion, "export_fused_csv", span("fusion.export_fused_csv")),
        (embed_zsl, "train_embed", span("embed_zsl.train_embed")),
        (embed_zsl, "embed_loss", span("embed_zsl.embed_loss")),
        (embed_zsl, "classify_batch", span("embed_zsl.classify_batch")),
        (gen_zsl.GanTrainer, "wgan_step", span("gen_zsl.wgan_step")),
        (gen_zsl, "gradient_penalty", span("gen_zsl.gradient_penalty")),
        (gen_zsl, "pretrain_classifier", span("gen_zsl.pretrain_classifier")),
        (gen_zsl, "synthesize_set", span("gen_zsl.synthesize_set")),
        (gen_zsl, "train_final_classifier", span("gen_zsl.train_final_classifier")),
        (evaluation, "evaluate_run", span("evaluation.evaluate_run")),
        (cli, "main", span("cli")),
        (llm_client.DescriptionCache, "get", count_only(cache_read)),
    ]


def install(tracer: Tracer):
    """Patch every traced name at each place it is looked up; returns a
    function that restores the originals."""
    saved = []
    targets = _targets(tracer)  # imports every semfuse module first
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "semfuse"]
    for owner, attr, factory in targets:
        original = getattr(owner, attr)
        wrapper = factory(original)
        sites = [owner] if isinstance(owner, type) else [
            m for m in modules if getattr(m, attr, None) is original
        ]
        for site in sites:
            saved.append((site, attr, original))
            setattr(site, attr, wrapper)

    def uninstall():
        for site, attr, original in reversed(saved):
            setattr(site, attr, original)

    return uninstall


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, requests: int, overhead_ratio: float) -> dict:
    """Per-layer figures per traced workload pass, named as in BENCHMARK.json."""
    per = 1.0 / requests
    c = tracer.counts

    def s(name):
        return tracer.self_s(name) * per

    tokens = c["wordvec.tokens_parsed"]
    used = sum(len(found) for found in tracer.lookups)
    matmul_s = tracer.self_s("autodiff.matmul")
    wgan_ms = [d * 1e3 for d in tracer.samples["gen_zsl.wgan_step"]]
    values = {
        "autodiff.tensors": (c["autodiff.tensors"] * per, "count"),
        "autodiff.tensor_mb": (c["autodiff.tensor_bytes"] * per / 1e6, "MB"),
        "autodiff.grad_s": (s("autodiff.grad"), "s"),
        "autodiff.grad.calls": (tracer.calls("autodiff.grad") * per, "count"),
        "autodiff.grad_create_graph_s": (s("autodiff.grad_create_graph"), "s"),
        "autodiff.matmul_s": (s("autodiff.matmul"), "s"),
        "autodiff.matmul_gflop": (c["autodiff.matmul_flop"] * per / 1e9, "GFLOP"),
        "autodiff.matmul_gflops_per_s": (
            c["autodiff.matmul_flop"] / 1e9 / matmul_s if matmul_s else 0.0,
            "GFLOP/s",
        ),
        "autodiff.add_s": (s("autodiff.add"), "s"),
        "autodiff.adam_step_s": (s("autodiff.adam_step"), "s"),
        "autodiff.adam_step.calls": (tracer.calls("autodiff.adam_step") * per, "count"),
        "autodiff.save_params_s": (s("autodiff.save_params"), "s"),
        "autodiff.load_params_s": (s("autodiff.load_params"), "s"),
        "autodiff.ckpt_mb": (c["autodiff.ckpt_bytes"] * per / 1e6, "MB"),
        "wordvec.load_word_vectors_s": (s("wordvec.load_word_vectors"), "s"),
        "wordvec.tokens_parsed": (tokens * per, "count"),
        "wordvec.useful_token_ratio": (used / tokens if tokens else 0.0, "ratio"),
        "wordvec.embed_text_s": (s("wordvec.embed_text"), "s"),
        "datasets.load_features_csv_s": (s("datasets.load_features_csv"), "s"),
        "datasets.load_features_bin_s": (s("datasets.load_features_bin"), "s"),
        "fusion.read_bundles_s": (s("fusion.read_bundles"), "s"),
        "fusion.fuse_graph_s": (s("fusion.fuse_graph"), "s"),
        "fusion.resolve_semantics_s": (s("fusion.resolve_semantics"), "s"),
        "fusion.export_fused_csv_s": (s("fusion.export_fused_csv"), "s"),
        "embed_zsl.train_embed_s": (s("embed_zsl.train_embed"), "s"),
        "embed_zsl.embed_loss_s": (s("embed_zsl.embed_loss"), "s"),
        "embed_zsl.classify_batch_s": (s("embed_zsl.classify_batch"), "s"),
        "gen_zsl.wgan_step_ms.p50": (_percentile(wgan_ms, 50), "ms"),
        "gen_zsl.wgan_step_ms.p90": (_percentile(wgan_ms, 90), "ms"),
        "gen_zsl.wgan_step.calls": (tracer.calls("gen_zsl.wgan_step") * per, "count"),
        "gen_zsl.gradient_penalty_s": (s("gen_zsl.gradient_penalty"), "s"),
        "gen_zsl.pretrain_classifier_s": (s("gen_zsl.pretrain_classifier"), "s"),
        "gen_zsl.synthesize_set_s": (s("gen_zsl.synthesize_set"), "s"),
        "gen_zsl.train_final_classifier_s": (s("gen_zsl.train_final_classifier"), "s"),
        "evaluation.evaluate_run_s": (s("evaluation.evaluate_run"), "s"),
        "cli.self_s": (s("cli"), "s"),
        "llm_client.cache_reads": (c["llm_client.cache_reads"] * per, "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def shares(tracer: Tracer, requests: int, floor: float = 0.01) -> dict:
    """Per command kind: its traced seconds per pass, and each layer's
    self and total (inclusive) time as a share of them, from ``floor`` up."""
    out = {}
    for kind, table in tracer.kind_stats.items():
        seconds = sum(self_s for _, self_s in table.values())

        def share(i):
            ranked = sorted(((v[i] / seconds, name) for name, v in table.items()), reverse=True)
            return {name: round(x, 3) for x, name in ranked if x >= floor}

        out[kind] = {"seconds": seconds / requests, "self": share(1), "total": share(0)}
    return out
