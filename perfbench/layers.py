"""Which langtail functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every wrapper sits where the caller looks the name up (see tracer.py):
``train`` imports the bank and cluster entry points by name, ``spectral``
imports ``kmeans`` by name and ``evaluation`` imports
``linear_sum_assignment`` by name. Functions reached as ``dm.read_labels``
or ``spectral.build_affinity`` are wrapped on their own module.

A ``_s`` metric is the total time over calls, ``_self_s`` the total minus
the time in wrapped children. Counts are exact. Spans from set-up count
once; spans from the timed part are divided by the number of iterations,
so each value is "one set-up plus one iteration".
"""

from __future__ import annotations

import os
from collections import defaultdict


def _path_bytes(args, kwargs, result):
    path = args[0]
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(path) for f in files)
    return os.path.getsize(path)


def _rows_of_arg(i):
    return lambda args, kwargs, result: len(args[i])


DM_READS = ("read_feature_matrix", "read_superpoints", "read_labels",
            "read_entity_masks", "read_entity_bank")
DM_WRITES = ("write_feature_matrix", "write_superpoints", "write_labels",
             "write_entity_masks", "write_entity_bank")

# (module, attribute, work count or None); the span name is "module.attribute"
WRAPS = [
    ("synth", "generate_corpus", None),
    *(("data_model", f, _path_bytes) for f in DM_READS + DM_WRITES),
    ("train", "run_pipeline", None),
    ("train", "run_baseline", None),
    ("train", "Trainer.warmup", None),
    ("train", "Trainer.train_epoch", None),
    ("train", "backbone_forward", _rows_of_arg(1)),
    ("train", "backbone_backward", None),
    ("train", "head_ce_loss", None),
    ("train", "AdamW.step", None),
    ("train", "build_pseudo_labels", None),
    ("train", "spectral_pass", None),
    ("train", "predict_labels", None),
    ("train", "save_checkpoint", None),
    ("train", "load_checkpoint", None),
    ("train", "build_bank", None),
    ("train", "aggregate_entity_features", lambda a, k, r: int(r.shape[0])),
    ("train", "align_gram", lambda a, k, r: len(r.alignment_loss_trace) - 1),
    ("train", "sample_entity_batch", None),
    ("train", "entity_contrastive_loss", None),
    ("train", "multi_granularity_labels", None),
    ("cluster", "ward_tree", _rows_of_arg(0)),
    ("cluster", "cut_tree", None),
    ("spectral", "kmeans", lambda a, k, r: len(r[2])),
    ("spectral", "build_affinity", _rows_of_arg(0)),
    ("spectral", "normalized_laplacian", None),
    ("spectral", "eigendecompose", None),
    ("spectral", "graph_fourier", None),
    ("spectral", "group_patterns", None),
    ("evaluation", "confusion", None),
    ("evaluation", "hungarian", None),
    ("evaluation", "match_and_score", None),
    ("evaluation", "linear_sum_assignment", None),
]

# Wrapped names that only the transfer workload reaches.
TRANSFER_ONLY = {"train.load_checkpoint"}


def install(tracer, package) -> list[str]:
    """Wrap every WRAPS entry; returns the span names."""
    names = []
    for module, attr, work in WRAPS:
        owner = getattr(package, module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        tracer.wrap(owner, leaf, f"{module}.{attr}", work)
        names.append(f"{module}.{attr}")
    return names


# (metric, kind, span names); each metric's unit is in BENCHMARK.json's
# per_layer list. Kinds: total, self, calls, work (sums the spans' work
# counts), outer (total of spans not nested inside another span of the same
# group, so nested reads count once), outer_work.
LAYER_METRICS = [
    ("synth.generate_s", "total", ["synth.generate_corpus"]),
    ("data_model.read_s", "outer", [f"data_model.{f}" for f in DM_READS]),
    ("data_model.read_bytes", "outer_work", [f"data_model.{f}" for f in DM_READS]),
    ("data_model.write_s", "outer", [f"data_model.{f}" for f in DM_WRITES]),
    ("data_model.write_bytes", "outer_work", [f"data_model.{f}" for f in DM_WRITES]),
    ("bank.build_s", "total", ["train.build_bank"]),
    ("bank.aggregate_s", "total", ["train.aggregate_entity_features"]),
    ("bank.entities", "work", ["train.aggregate_entity_features"]),
    ("bank.align_s", "total", ["train.align_gram"]),
    ("bank.align_steps", "work", ["train.align_gram"]),
    ("bank.sample_s", "total", ["train.sample_entity_batch"]),
    ("bank.contrastive_s", "total", ["train.entity_contrastive_loss"]),
    ("bank.contrastive_calls", "calls", ["train.entity_contrastive_loss"]),
    ("cluster.labels_s", "total", ["train.multi_granularity_labels"]),
    ("cluster.ward_s", "total", ["cluster.ward_tree"]),
    ("cluster.ward_calls", "calls", ["cluster.ward_tree"]),
    ("cluster.ward_leaves", "work", ["cluster.ward_tree"]),
    ("cluster.ward_merges_per_s", "derived", ["cluster.ward_tree"]),
    ("cluster.cut_s", "total", ["cluster.cut_tree"]),
    ("cluster.kmeans_s", "total", ["spectral.kmeans"]),
    ("cluster.kmeans_iters", "work", ["spectral.kmeans"]),
    ("spectral.affinity_s", "total", ["spectral.build_affinity"]),
    ("spectral.laplacian_s", "total", ["spectral.normalized_laplacian"]),
    ("spectral.eigh_s", "total", ["spectral.eigendecompose"]),
    ("spectral.fourier_s", "total", ["spectral.graph_fourier"]),
    ("spectral.group_s", "total", ["spectral.group_patterns"]),
    ("spectral.nodes", "work", ["spectral.build_affinity"]),
    ("spectral.dense_bytes", "derived", ["spectral.build_affinity"]),
    ("train.warmup_s", "total", ["train.Trainer.warmup"]),
    ("train.epoch_s", "total", ["train.Trainer.train_epoch"]),
    ("train.epoch_self_s", "self", ["train.Trainer.train_epoch"]),
    ("train.forward_s", "total", ["train.backbone_forward"]),
    ("train.forward_rows", "work", ["train.backbone_forward"]),
    ("train.backward_s", "total", ["train.backbone_backward"]),
    ("train.head_ce_s", "total", ["train.head_ce_loss"]),
    ("train.head_ce_calls", "calls", ["train.head_ce_loss"]),
    ("train.adamw_s", "total", ["train.AdamW.step"]),
    ("train.recluster_s", "total", ["train.build_pseudo_labels"]),
    ("train.spectral_pass_s", "total", ["train.spectral_pass"]),
    ("train.predict_s", "total", ["train.predict_labels"]),
    ("train.checkpoint_s", "total", ["train.save_checkpoint", "train.load_checkpoint"]),
    ("evaluation.confusion_s", "total", ["evaluation.confusion"]),
    ("evaluation.hungarian_s", "total", ["evaluation.hungarian"]),
    ("evaluation.lsa_calls", "calls", ["evaluation.linear_sum_assignment"]),
    ("evaluation.match_s", "total", ["evaluation.match_and_score"]),
]


def _sums(tracer, self_times):
    """Per (metric kind, span name): sums over the spans, split by set-up/timed."""
    in_group = {}
    for _, kind, names in LAYER_METRICS:
        if kind.startswith("outer"):
            for n in names:
                in_group[n] = frozenset(names)
    acc = defaultdict(lambda: [0.0, 0.0])
    spans = tracer.spans
    for i, s in enumerate(spans):
        part = 0 if s.tag == "setup" else 1
        acc[("total", s.name)][part] += s.duration
        acc[("self", s.name)][part] += self_times[i]
        acc[("calls", s.name)][part] += 1
        acc[("work", s.name)][part] += s.work or 0
        group = in_group.get(s.name)
        if group is not None:
            p = s.parent
            while p is not None and spans[p].name not in group:
                p = spans[p].parent
            if p is None:
                acc[("outer", s.name)][part] += s.duration
                acc[("outer_work", s.name)][part] += s.work or 0
    return acc


def layer_metrics(tracer, n_iter: int) -> dict[str, float]:
    """Every LAYER_METRICS value for one set-up plus one timed iteration."""
    acc = _sums(tracer, tracer.self_times())

    def value(kind, names):
        return sum(acc[(kind, n)][0] + acc[(kind, n)][1] / n_iter for n in names)

    out = {}
    for metric, kind, names in LAYER_METRICS:
        if metric == "cluster.ward_merges_per_s":
            merges = value("work", names) - value("calls", names)
            ward_s = value("total", names)
            out[metric] = merges / ward_s if ward_s > 0 else 0.0
        elif metric == "spectral.dense_bytes":
            out[metric] = float(max((3 * s.work * s.work * 8 for s in tracer.spans
                                     if s.name in names), default=0))
        else:
            out[metric] = value(kind, names)
    return out


def top_self_times(tracer, n_iter: int, limit: int = 8) -> list[tuple[str, float]]:
    """Span names with the largest self time per timed iteration (set-up left out)."""
    totals = defaultdict(float)
    for s, t in zip(tracer.spans, tracer.self_times()):
        if s.tag != "setup":
            totals[s.name] += t / n_iter
    return sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
