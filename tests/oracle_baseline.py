"""Baseline oracle used by criterion 8 and the training tests.

reference_baseline is the learning-by-clustering baseline written out as its
own loop: cluster the superpoint features at the primitive granularity, train
the backbone and that one head with plain batch-mean cross-entropy,
recluster, repeat; no warmup, entity loss or global branch, whatever cfg
says. langtail.train.run_baseline is run_pipeline with those four settings
overridden, and must write exactly the same reports and artifacts.
"""

import os

import numpy as np

from langtail.cluster import multi_granularity_labels
from langtail.data_model import pool_by_superpoint
from langtail.synth import read_corpus
from langtail.train import (
    AdamW,
    Head,
    Trainer,
    TrainConfig,
    _write_outputs,
    backbone_forward,
    standardize_scenes,
)


def reference_baseline(cfg: TrainConfig, corpus_dir, out_dir):
    scenes, entities = read_corpus(corpus_dir)
    standardize_scenes(scenes)
    os.makedirs(out_dir, exist_ok=True)

    k_prim = int(cfg.granularities[-1])
    trainer = Trainer(scenes, entities, cfg)
    reports = []
    heads = []
    epoch = 0
    while epoch < cfg.epochs or epoch == 0:
        # recluster: forward each scene in turn, pool per superpoint, one Ward cut
        sp_feats = np.concatenate([
            pool_by_superpoint(backbone_forward(trainer.backbone, s.points)[0], s.superpoints)
            for s in scenes])
        (sp_labels,) = multi_granularity_labels(sp_feats, (k_prim,))
        mu = pool_by_superpoint(sp_feats, sp_labels)
        heads = [Head("local", k_prim, mu, sp_labels)]
        if cfg.epochs == 0:
            break
        head_opt = AdamW([mu])
        for _ in range(min(cfg.recluster_every, cfg.epochs - epoch)):
            reports.append(trainer.train_epoch(heads, head_opt, epoch))
            epoch += 1

    _write_outputs(out_dir, trainer, heads, reports)
    return trainer.backbone, heads, reports
