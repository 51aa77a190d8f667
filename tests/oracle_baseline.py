"""Baseline oracle used by criterion 8 and the training tests.

reference_baseline is the learning-by-clustering baseline written out as its
own loop: cluster the superpoint features at the primitive granularity, train
the backbone and that one head with plain batch-mean cross-entropy,
recluster, repeat; no warmup, entity loss or global branch, whatever cfg
says. langtail.train.run_baseline is run_pipeline with those four settings
overridden, and must write exactly the same reports and artifacts.
"""

import os

from langtail.cluster import multi_granularity_labels
from langtail.synth import read_corpus
from langtail.train import (
    AdamW,
    Head,
    Trainer,
    TrainConfig,
    _write_outputs,
    standardize_scenes,
)


def reference_baseline(cfg: TrainConfig, corpus_dir, out_dir):
    scenes, entities = read_corpus(corpus_dir)
    standardize_scenes(scenes)
    os.makedirs(out_dir, exist_ok=True)

    k_prim = int(cfg.granularities[-1])
    trainer = Trainer(scenes, entities, cfg, scenes[0].points.shape[1])
    trainer.total_steps = cfg.epochs * len(trainer.scene_batches())
    reports = []
    heads = []
    epoch = 0
    while epoch < cfg.epochs or epoch == 0:
        # recluster: forward everything, pool per superpoint, one Ward cut
        sp_feats = trainer.superpoint_features()
        ((_, mu, sp_labels),) = multi_granularity_labels(sp_feats, (k_prim,), seed=cfg.seed)
        heads = [Head("local", k_prim, mu, sp_labels)]
        if cfg.epochs == 0:
            break
        head_opt = AdamW([mu])
        for _ in range(min(cfg.recluster_every, cfg.epochs - epoch)):
            reports.append(trainer.train_epoch(heads, None, head_opt, epoch))
            epoch += 1

    _write_outputs(out_dir, trainer, heads, reports)
    return trainer.backbone, heads, reports
