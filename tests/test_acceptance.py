"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so the
acceptance status is readable straight from the run log. The long-tail
thresholds in criterion 7 are frozen in tests/fixtures/longtail_manifest.json,
which also records the 10-seed sweep that produced them.
"""

import itertools
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import assert_grad_close, central_diff
from langtail import bank as bk
from langtail import cluster as cl
from langtail import data_model as dm
from langtail import evaluation as ev
from langtail import spectral as sp
from langtail import train as tr
from langtail.cli import main
from langtail.synth import SynthConfig, generate_corpus

from oracle_ward import labels_to_partition, oracle_agglomerate

MANIFEST = os.path.join(os.path.dirname(__file__), "fixtures", "longtail_manifest.json")


def _emit(capfd, line):
    # bypass pytest's fd capture so the line shows in the run log
    with capfd.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


@contextmanager
def criterion(capfd, num, name, budget_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        _emit(capfd, f"criterion {num} ({name}): FAIL after {time.time() - t0:.1f}s")
        raise
    dt = time.time() - t0
    _emit(capfd, f"criterion {num} ({name}): PASS in {dt:.1f}s")
    assert dt < budget_s, f"runtime {dt:.1f}s exceeds {budget_s}s budget"


# --- criterion 1: gradient suite -------------------------------------------

def test_criterion_1_gradient_suite(capfd):
    with criterion(capfd, 1, "gradient suite", 10):
        rng = np.random.default_rng(101)
        for _ in range(20):  # backbone weights / biases / inputs
            b = tr.init_backbone(3, [5], 4, seed=int(rng.integers(10 ** 6)))
            X = rng.normal(size=(5, 3))
            R = rng.normal(size=(5, 4))
            _, cache = tr.backbone_forward(b, X)
            gw, gb, gx = tr.backbone_backward(b, cache, R)

            def readout(bb):
                return float((tr.backbone_forward(bb, X)[0] * R).sum())

            for i in range(2):
                def f_w(w, i=i):
                    bb = tr.Backbone([w.copy() for w in b.weights],
                                     [v.copy() for v in b.biases])
                    bb.weights[i] = w
                    return readout(bb)

                def f_b(v, i=i):
                    bb = tr.Backbone([w.copy() for w in b.weights],
                                     [u.copy() for u in b.biases])
                    bb.biases[i] = v
                    return readout(bb)

                assert_grad_close(gw[i], central_diff(f_w, b.weights[i]))
                assert_grad_close(gb[i], central_diff(f_b, b.biases[i]))
            assert_grad_close(gx, central_diff(
                lambda x: float((tr.backbone_forward(b, x)[0] * R).sum()), X))

        for _ in range(20):  # head cross-entropy w.r.t. features and prototypes
            F = rng.normal(size=(6, 3))
            mu = rng.normal(size=(3, 3))
            labels = rng.integers(0, 3, size=6)
            labels[0] = -1
            gf = np.zeros_like(F)
            _, (gmu,) = tr.head_ce_loss(F, [mu], [labels], [gf])
            assert_grad_close(gf, central_diff(
                lambda x: tr.head_ce_loss(x, [mu], [labels], [np.zeros_like(x)])[0][0], F))
            assert_grad_close(gmu, central_diff(
                lambda m: tr.head_ce_loss(F, [m], [labels], [np.zeros_like(F)])[0][0], mu))

        for i in range(20):  # entity InfoNCE w.r.t. anchors
            bank = bk.SemanticBank(B=rng.normal(size=(6, 4)),
                                   entity_ids=list(range(6)),
                                   F_e=np.zeros((6, 1)))
            batch = bk.sample_entity_batch(bank, 4, seed=i,
                                           class_hint=np.array([0, 0, 1, 1, 2, 2]))
            A = rng.normal(size=(4, 4))
            _, grad = bk.entity_contrastive_loss(A, batch, tau=0.3)
            assert_grad_close(grad, central_diff(
                lambda x: bk.entity_contrastive_loss(x, batch, tau=0.3)[0], A))

        for _ in range(20):  # Gram alignment w.r.t. prototypes
            F = rng.normal(size=(5, 4))
            G = bk.gram(rng.normal(size=(5, 4)))
            _, grad = bk.align_gram_loss(F, G)
            assert_grad_close(grad, central_diff(
                lambda x: bk.align_gram_loss(x, G)[0], F))

        for _ in range(20):  # distillation cosine w.r.t. features
            F = rng.normal(size=(5, 4))
            T = rng.normal(size=(5, 4))
            _, grad = tr.distill_warmup_loss(F, T)
            assert_grad_close(grad, central_diff(
                lambda x: tr.distill_warmup_loss(x, T)[0], F))


# --- criterion 2: Ward oracle ----------------------------------------------

def test_criterion_2_ward_oracle(capfd):
    with criterion(capfd, 2, "Ward oracle, 200 instances", 30):
        rng = np.random.default_rng(202)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            want_merges, want_parts = oracle_agglomerate(X)
            tree = cl.ward_tree(X)
            assert [(l, r, s) for l, r, _, s in tree.merges] == \
                [(l, r, s) for l, r, _, s in want_merges]
            for k in range(1, n + 1):
                assert labels_to_partition(cl.cut_tree(tree, k)) == want_parts[k]


# --- criterion 3: Hungarian oracle -----------------------------------------

def test_criterion_3_hungarian_oracle(capfd):
    with criterion(capfd, 3, "Hungarian oracle, 200 instances", 10):
        rng = np.random.default_rng(303)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            C = rng.normal(size=(n, m))
            got = sum(C[p, g] for p, g in ev.hungarian(C))
            rows = min(n, m)
            best = min(
                sum(C[list(r), list(c)])
                for r in itertools.combinations(range(n), rows)
                for c in itertools.permutations(range(m), rows)
            )
            assert got == pytest.approx(best, abs=1e-9)


# --- criterion 4: spectral suite -------------------------------------------

def test_criterion_4_spectral_suite(capfd):
    with criterion(capfd, 4, "spectral suite", 20):
        rng = np.random.default_rng(404)
        # reconstruction and Parseval on random graphs
        for _ in range(10):
            F = rng.normal(size=(30, 5))
            L = sp.normalized_laplacian(sp.build_affinity(F))
            basis = sp.eigendecompose(L)
            recon = basis.U @ np.diag(basis.lam) @ basis.U.T
            assert np.linalg.norm(recon - L) <= 1e-8 * np.linalg.norm(L)
            F_hat = sp.graph_fourier(basis, F)
            assert abs(np.linalg.norm(F_hat) - np.linalg.norm(F)) <= \
                1e-8 * np.linalg.norm(F)
        # 2-node graph: eigenvalues exactly {0, 2}
        basis2 = sp.eigendecompose(sp.normalized_laplacian(
            np.array([[0.0, 0.7], [0.7, 0.0]])))
        assert abs(basis2.lam[0] - 0.0) <= 1e-10
        assert abs(basis2.lam[1] - 2.0) <= 1e-10
        # Fiedler vector recovers a planted 2-blob partition, 50/50
        for trial in range(50):
            r = np.random.default_rng(trial)
            sizes = (int(r.integers(5, 15)), int(r.integers(5, 15)))
            # centers off the origin: affinity row-normalizes, and a blob at
            # the origin has no stable direction
            F = np.concatenate([
                np.array([3.0, 0.0, 0.0]) + r.normal(0, 0.05, (sizes[0], 3)),
                np.array([0.0, 3.0, 0.0]) + r.normal(0, 0.05, (sizes[1], 3)),
            ])
            basis = sp.eigendecompose(sp.normalized_laplacian(
                sp.build_affinity(F)))
            side = basis.U[:, 1] > 0
            truth = np.arange(sum(sizes)) >= sizes[0]
            assert np.array_equal(side, truth) or np.array_equal(side, ~truth)


# --- criterion 5: Gram alignment -------------------------------------------

def test_criterion_5_gram_alignment(capfd):
    with criterion(capfd, 5, "Gram alignment", 10):
        rng = np.random.default_rng(505)
        for _ in range(5):
            # 32-dim prototypes: G(F) must be able to reach a rank-20 target
            F0 = rng.normal(size=(20, 32))
            F_e = rng.normal(size=(20, 512))
            bank = bk.align_gram(F0, F_e, steps=500)
            trace = bank.alignment_loss_trace
            assert trace[-1] <= 1e-3 * trace[0]
        # orthogonal-rotation invariance of the loss
        F = rng.normal(size=(20, 32))
        G = bk.gram(bk._l2_rows(rng.normal(size=(20, 512))))
        Q, _ = np.linalg.qr(rng.normal(size=(32, 32)))
        l1, _ = bk.align_gram_loss(F, G)
        l2, _ = bk.align_gram_loss(F @ Q, G)
        assert abs(l1 - l2) <= 1e-10 * max(1.0, abs(l1))


# --- criterion 6: evaluation protocol --------------------------------------

def test_criterion_6_eval_protocol(capfd):
    with criterion(capfd, 6, "evaluation protocol", 5):
        r = ev.match_and_score(ev.ConfusionMatrix(np.array([[5, 0], [2, 3]])))
        assert r.oa == pytest.approx(0.8)
        assert r.macc == pytest.approx((5 / 7 + 1.0) / 2)
        assert r.miou == pytest.approx((5 / 7 + 3 / 5) / 2)
        r = ev.match_and_score(ev.ConfusionMatrix(
            np.array([[4, 0], [0, 4], [2, 1]])), unmatched="merge")
        assert r.mapping.tolist() == [0, 1, 0]
        assert r.oa == pytest.approx(10 / 11)

        rng = np.random.default_rng(606)
        for levels, total in (((120, 80, 20), 440), ((120, 80, 12), 424),
                              ((120, 40, 12), 344), ((120, 40, 16), 352)):
            models = tuple(
                tr.ClusterModel(branch, list(levels),
                                {k: rng.normal(size=(k, 4)) for k in levels})
                for branch in ("local", "global"))
            assert tr.concat_prototypes(models).shape[0] == total


# --- criterion 7: long-tail rescue -----------------------------------------

@pytest.mark.slow
def test_criterion_7_longtail_rescue(tmp_path, capfd):
    with open(MANIFEST) as f:
        manifest = json.load(f)
    thr = manifest["thresholds"]
    tail = manifest["tail_classes"]
    with criterion(capfd, 7, "long-tail rescue, 10 seeds", 600):
        full_miou, gains = [], []
        for s in manifest["seeds"]:
            cdir = str(tmp_path / f"c{s}")
            generate_corpus(SynthConfig(seed=s, **manifest["synth"]), cdir)
            gt = dm.read_labels(os.path.join(cdir, "labels.ltlb"))
            full_kw = dict(manifest["full_config"],
                           granularities=tuple(manifest["full_config"]["granularities"]))
            base_kw = dict(manifest["baseline_config"],
                           granularities=tuple(manifest["baseline_config"]["granularities"]))
            tr.run_pipeline(tr.TrainConfig(seed=s, **full_kw),
                            cdir, str(tmp_path / f"f{s}"))
            tr.run_baseline(tr.TrainConfig(seed=s, **base_kw),
                            cdir, str(tmp_path / f"b{s}"))
            n_gt = manifest["synth"]["n_classes"]
            rf = ev.match_and_score(ev.confusion(
                dm.read_labels(str(tmp_path / f"f{s}" / "pred.ltlb")), gt, n_gt=n_gt))
            rb = ev.match_and_score(ev.confusion(
                dm.read_labels(str(tmp_path / f"b{s}" / "pred.ltlb")), gt, n_gt=n_gt))
            full_miou.append(rf.miou)
            gains.append(float(np.mean(rf.per_class_iou[tail]))
                         - float(np.mean(rb.per_class_iou[tail])))
        wins = sum(g > 0 for g in gains)
        _emit(capfd, f"  long-tail sweep: mean mIoU {np.mean(full_miou):.4f} "
              f"(min {min(full_miou):.4f}), tail wins {wins}/10, "
              f"mean tail gain {np.mean(gains):.4f}")
        assert np.mean(full_miou) >= thr["miou_mean"]
        assert wins >= thr["tail_win_seeds"]
        assert np.mean(gains) >= thr["tail_gain_mean"]


# --- criterion 8: baseline degeneracy --------------------------------------

def test_criterion_8_baseline_degeneracy(tmp_path, capfd):
    with criterion(capfd, 8, "baseline degeneracy", 120):
        corpus = str(tmp_path / "corpus")
        generate_corpus(SynthConfig(n_classes=4, points_per_scene=400,
                                    n_scenes=3, seed=8), corpus)
        cfg = tr.TrainConfig(lambda_entity=0.0, granularities=(6,), epochs=6,
                             recluster_every=3, use_global=False, feat_dim=16,
                             hidden_dim=16, batch_scenes=2, warmup_epochs=0,
                             seed=8)
        _, _, rp = tr.run_pipeline(cfg, corpus, str(tmp_path / "p"))
        _, _, rb = tr.run_baseline(cfg, corpus, str(tmp_path / "b"))
        assert rp == rb  # dataclass equality on floats: bit-for-bit
        for rel in ("losses.tsv", "prototypes.ltfm", "pred.ltlb"):
            assert (tmp_path / "p" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel


# --- criterion 9: determinism ----------------------------------------------

def test_criterion_9_determinism(tmp_path, capfd):
    with criterion(capfd, 9, "train determinism", 300):
        corpus = str(tmp_path / "corpus")
        assert main(["synth", "--out", corpus, "--n-classes", "4",
                     "--points-per-scene", "400", "--n-scenes", "3",
                     "--seed", "9"]) == 0
        flags = ["--granularities", "12,6", "--epochs", "4",
                 "--recluster-every", "2", "--lambda", "0.9",
                 "--use-global", "true", "--s-prime", "16",
                 "--feat-dim", "16", "--hidden-dim", "16",
                 "--warmup-epochs", "0", "--batch-scenes", "2", "--seed", "9"]
        for run in ("a", "b"):
            assert main(["train", "--corpus", corpus,
                         "--out", str(tmp_path / run)] + flags) == 0
        # config.resolved embeds the differing --out path, so it is excluded
        for rel in ("checkpoint.ltck", "losses.tsv", "prototypes.ltfm",
                    "pred.ltlb"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel
