"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing pytest capture) so the
acceptance status is readable straight from the run log. The long-tail
thresholds in criterion 7 are frozen in tests/fixtures/longtail_manifest.json,
which also records the 10-seed sweep that produced them; its calibration rows
hold each seed's scores, refreshed when a change moves them, and criterion 7
checks them in the environment where the sha256 of its seed-0 artifacts are
pinned, tests/fixtures/golden_seed0.json.
"""

import hashlib
import itertools
import json
import multiprocessing
import os
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
import scipy

from conftest import BLAS_VARS, assert_grad_close, central_diff, whole_grad
from langtail import bank as bk
from langtail import cluster as cl
from langtail import data_model as dm
from langtail import evaluation as ev
from langtail import spectral as sp
from langtail import train as tr
from langtail.cli import main
from langtail.synth import SynthConfig, generate_corpus

from oracle_baseline import reference_baseline
from oracle_gram import align_gram_loss, eckart_young_floor, gram
from oracle_ward import labels_to_partition, oracle_agglomerate, tree_merges

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CALIBRATION_TOL  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(__file__), "fixtures", "longtail_manifest.json")
GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "golden_seed0.json")


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
            _, (gmu,), gf = tr.head_ce_loss(F, [mu], [labels], [0], n_pts=len(F))
            assert_grad_close(whole_grad(gf, len(F)), central_diff(
                lambda x: tr.head_ce_loss(x, [mu], [labels], [0])[0][0], F))
            assert_grad_close(gmu, central_diff(
                lambda m: tr.head_ce_loss(F, [m], [labels], [0])[0][0], mu))

        for i in range(20):  # entity InfoNCE w.r.t. anchors
            bank = bk.SemanticBank(B=rng.normal(size=(6, 4)), entity_ids=list(range(6)),
                                   categories=np.array([0, 0, 1, 1, 2, 2]))
            _, P, w = bk.sample_entity_batch(bank, 4, seed=i)
            A = rng.normal(size=(4, 4))
            _, grad = bk.entity_contrastive_loss(A, P, w, tau=0.3)
            assert_grad_close(grad, central_diff(
                lambda x: bk.entity_contrastive_loss(x, P, w, tau=0.3)[0], A))

        for _ in range(20):  # Gram alignment w.r.t. prototypes
            F = rng.normal(size=(5, 4))
            G = gram(rng.normal(size=(5, 4)))
            _, grad = align_gram_loss(F, G)
            assert_grad_close(grad, central_diff(
                lambda x: align_gram_loss(x, G)[0], F))

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
            assert [(l, r, s) for l, r, _, s in tree_merges(tree)] == \
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
            lam, U = sp.eigendecompose(L.copy())
            recon = U @ np.diag(lam) @ U.T
            assert np.linalg.norm(recon - L) <= 1e-8 * np.linalg.norm(L)
            F_hat = sp.graph_fourier(U, F)
            assert abs(np.linalg.norm(F_hat) - np.linalg.norm(F)) <= \
                1e-8 * np.linalg.norm(F)
        # 2-node graph: eigenvalues exactly {0, 2}
        lam2, _ = sp.eigendecompose(sp.normalized_laplacian(
            np.array([[0.0, 0.7], [0.7, 0.0]])))
        assert abs(lam2[0] - 0.0) <= 1e-10
        assert abs(lam2[1] - 2.0) <= 1e-10
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
            _, U = sp.eigendecompose(sp.normalized_laplacian(
                sp.build_affinity(F)))
            side = U[:, 1] > 0
            truth = np.arange(sum(sizes)) >= sizes[0]
            assert np.array_equal(side, truth) or np.array_equal(side, ~truth)


# --- criterion 5: Gram alignment -------------------------------------------

def test_criterion_5_gram_alignment(capfd):
    with criterion(capfd, 5, "Gram alignment", 10):
        rng = np.random.default_rng(505)
        # 32-dim prototypes reach a rank-20 target exactly; 8-dim ones reach
        # the Eckart-Young floor of its 12 smallest eigenvalues
        for C in (32, 32, 32, 32, 32, 8, 8, 8):
            F0 = rng.normal(size=(20, C))
            F_e = rng.normal(size=(20, 512))
            bank = bk.align_gram(F0, F_e, range(20))
            trace = bank.alignment_loss_trace
            assert trace[-1] == pytest.approx(eckart_young_floor(gram(bk._l2_rows(F_e)), C),
                                              rel=1e-9)
            if C == 32:
                assert trace[-1] <= 1e-3 * trace[0]
        # orthogonal-rotation invariance of the loss
        F = rng.normal(size=(20, 32))
        G = gram(bk._l2_rows(rng.normal(size=(20, 512))))
        Q, _ = np.linalg.qr(rng.normal(size=(32, 32)))
        l1, _ = align_gram_loss(F, G)
        l2, _ = align_gram_loss(F @ Q, G)
        assert abs(l1 - l2) <= 1e-10 * max(1.0, abs(l1))


# --- criterion 6: evaluation protocol --------------------------------------

def test_criterion_6_eval_protocol(capfd):
    with criterion(capfd, 6, "evaluation protocol", 5):
        r = ev.match_and_score(np.array([[5, 0], [2, 3]]))
        assert r.oa == pytest.approx(0.8)
        assert r.macc == pytest.approx((5 / 7 + 1.0) / 2)
        assert r.miou == pytest.approx((5 / 7 + 3 / 5) / 2)
        r = ev.match_and_score(np.array([[4, 0], [0, 4], [2, 1]]), unmatched="merge")
        assert r.mapping.tolist() == [0, 1, 0]
        assert r.oa == pytest.approx(10 / 11)

        rng = np.random.default_rng(606)
        for levels, total in (((120, 80, 20), 440), ((120, 80, 12), 424),
                              ((120, 40, 12), 344), ((120, 40, 16), 352)):
            heads = [tr.Head(branch, k, rng.normal(size=(k, 4)), np.zeros(0, np.int64))
                     for branch in ("local", "global") for k in levels]
            assert tr.concat_prototypes(heads).shape[0] == total


# --- criterion 7: long-tail rescue -----------------------------------------

def _rescue_run(manifest, s, root):
    """Criterion 7's corpus at seed s and its full and baseline runs under
    root; returns (labels, full run dir, baseline run dir)."""
    cdir = str(root / f"c{s}")
    generate_corpus(SynthConfig(seed=s, **manifest["synth"]), cdir)
    full_kw = dict(manifest["full_config"],
                   granularities=tuple(manifest["full_config"]["granularities"]))
    base_kw = dict(manifest["baseline_config"],
                   granularities=tuple(manifest["baseline_config"]["granularities"]))
    tr.run_pipeline(tr.TrainConfig(seed=s, **full_kw), cdir, str(root / f"f{s}"))
    tr.run_baseline(tr.TrainConfig(seed=s, **base_kw), cdir, str(root / f"b{s}"))
    return dm.read_labels(os.path.join(cdir, "labels.ltlb")), root / f"f{s}", root / f"b{s}"


def _rescue_scores(manifest, gt, fdir, bdir) -> dict:
    """Criterion 7's scores of one seed's runs, keyed as its calibration row:
    the Hungarian-matched mIoU and mean tail-class IoU of the full run and
    of the baseline, and the tail gain."""
    got = {}
    for run, run_dir in (("full", fdir), ("base", bdir)):
        report = ev.match_and_score(ev.confusion(
            dm.read_labels(str(run_dir / "pred.ltlb")), gt, n_gt=manifest["synth"]["n_classes"]))
        got[f"{run}_miou"] = report.miou
        got[f"{run}_tail"] = float(np.mean(report.per_class_iou[manifest["tail_classes"]]))
    got["tail_gain"] = got["full_tail"] - got["base_tail"]
    return got


def _departures(row, scores) -> list[str]:
    """The keys of a calibration row whose value is further from scores' than
    perfbench's CALIBRATION_TOL, the bound of its rescue workload's check."""
    return [key for key, tol in CALIBRATION_TOL.items() if abs(scores[key] - row[key]) > tol + 1e-12]


@pytest.fixture(scope="module")
def rescue_seed0(tmp_path_factory):
    """Seed 0's runs, made once for criterion 7 and its hash check."""
    with open(MANIFEST) as f:
        return _rescue_run(json.load(f), 0, tmp_path_factory.mktemp("rescue"))


@pytest.mark.slow
def test_criterion_7_longtail_rescue(tmp_path, capfd, rescue_seed0):
    with open(MANIFEST) as f:
        manifest = json.load(f)
    thr = manifest["thresholds"]
    with criterion(capfd, 7, "long-tail rescue, 10 seeds", 600):
        seeds = [s for s in manifest["seeds"] if s != 0]
        # the other seeds' runs in worker processes, which start from a fresh
        # import (this process has threads); each writes under tmp_path
        with ProcessPoolExecutor(min(2, os.cpu_count()),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            runs = dict(zip(seeds, pool.map(_rescue_run, itertools.repeat(manifest), seeds,
                                            itertools.repeat(tmp_path))))
        runs[0] = rescue_seed0
        scores = {s: _rescue_scores(manifest, *runs[s]) for s in manifest["seeds"]}
        full_miou = [scores[s]["full_miou"] for s in manifest["seeds"]]
        gains = [scores[s]["tail_gain"] for s in manifest["seeds"]]
        wins = sum(g > 0 for g in gains)
        _emit(capfd, f"  long-tail sweep: mean mIoU {np.mean(full_miou):.4f} "
              f"(min {min(full_miou):.4f}), tail wins {wins}/10, "
              f"mean tail gain {np.mean(gains):.4f}")
        assert np.mean(full_miou) >= thr["miou_mean"]
        assert wins >= thr["tail_win_seeds"]
        assert np.mean(gains) >= thr["tail_gain_mean"]
        # the manifest's calibration rows, which perfbench's rescue check
        # reads, must hold the scores of these runs
        differ = _golden_env_differs()
        if differ:
            _emit(capfd, "  calibration rows: SKIP, scores are pinned for another "
                  "environment: " + "; ".join(differ))
            return
        stale = [f"seed {row['seed']} {key} {scores[row['seed']][key]:.6f}, row {row[key]}"
                 for row in manifest["calibration_sweep"]["rows"]
                 for key in _departures(row, scores[row["seed"]])]
        assert not stale, "stale calibration rows: " + "; ".join(stale)



def _environment() -> dict:
    """This process's values of the fields GOLDEN's env records."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "lapack": f"{lapack['name']} {lapack['version']}",
            **{v: os.environ.get(v) for v in BLAS_VARS}}


def _golden_env_differs() -> list[str]:
    """Each field of GOLDEN's recorded environment that differs here."""
    with open(GOLDEN) as f:
        recorded = json.load(f)["env"]
    env = _environment()
    return [f"{k} is {env[k]!r}, not {v!r}" for k, v in recorded.items() if env[k] != v]


def _golden_or_skip(capfd, what):
    """GOLDEN, if this is the environment it records; else a pytest skip that
    names the fields that differ."""
    with open(GOLDEN) as f:
        golden = json.load(f)
    differ = _golden_env_differs()
    if differ:
        reason = "seed-0 hashes are pinned for another environment: " + "; ".join(differ)
        _emit(capfd, f"{what}: SKIP, {reason}")
        pytest.skip(reason)
    return golden


def _hashes(run_dir, names):
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.slow
def test_criterion_7_seed0_hashes(capfd, rescue_seed0):
    """Seed 0's full and baseline artifacts keep the sha256 in GOLDEN, in the
    environment GOLDEN records; elsewhere the comparison is skipped."""
    golden = _golden_or_skip(capfd, "criterion 7 (seed-0 hashes)")
    _, fdir, bdir = rescue_seed0
    got = {run: _hashes(d, golden[run]) for run, d in (("full", fdir), ("baseline", bdir))}
    assert got == {"full": golden["full"], "baseline": golden["baseline"]}


def _paper_width_run(manifest, root):
    """A seed-0 run at the paper's widths (384-wide output, 256-wide hidden
    layer: the float32 training step of the dense workload) on 2 x 1,000
    points, 2 epochs, under root; returns its run directory."""
    cdir = str(root / "c")
    generate_corpus(SynthConfig(**dict(manifest["synth"], n_scenes=2, points_per_scene=1000)),
                    cdir)
    cfg = dict(manifest["full_config"], granularities=tuple(manifest["full_config"]["granularities"]),
               feat_dim=384, hidden_dim=256, epochs=2)
    tr.run_pipeline(tr.TrainConfig(seed=0, **cfg), cdir, str(root / "run"))
    return root / "run"


def test_paper_width_seed0_hashes(tmp_path, capfd):
    """_paper_width_run keeps the sha256 in GOLDEN; prediction scores each
    scene in a 512-row block and a 488-row tail."""
    golden = _golden_or_skip(capfd, "paper-width seed-0 hashes")
    with open(MANIFEST) as f:
        manifest = json.load(f)
    run_dir = _paper_width_run(manifest, tmp_path)
    assert _hashes(run_dir, golden["paper_width"]) == golden["paper_width"]


# --- criterion 8: baseline degeneracy --------------------------------------

def test_criterion_8_baseline_degeneracy(tmp_path, capfd):
    with criterion(capfd, 8, "baseline degeneracy", 120):
        corpus = str(tmp_path / "corpus")
        generate_corpus(SynthConfig(n_classes=4, points_per_scene=400,
                                    n_scenes=3, seed=8, distill_dim=16), corpus)
        # every setting the baseline must override is switched on
        for epochs in (0, 6, 4):
            cfg = tr.TrainConfig(lambda_entity=0.5, granularities=(12, 6), epochs=epochs,
                                 recluster_every=3, use_global=True, s_prime=8,
                                 feat_dim=16, hidden_dim=16, batch_scenes=2,
                                 warmup_epochs=2, seed=8)
            ref, got = tmp_path / f"ref{epochs}", tmp_path / f"b{epochs}"
            _, _, rr = reference_baseline(cfg, corpus, str(ref))
            _, _, rb = tr.run_baseline(cfg, corpus, str(got))
            assert rr == rb  # dataclass equality on floats: bit for bit
            for rel in ("checkpoint.ltck", "losses.tsv", "prototypes.ltfm", "pred.ltlb"):
                assert (ref / rel).read_bytes() == (got / rel).read_bytes(), (epochs, rel)
            assert (got / "checkpoints" / "round_000.ltck").exists()


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
