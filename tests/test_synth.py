"""Synthetic long-tail corpus generator: distributions, determinism, geometry."""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtail import data_model as dm
from langtail.errors import ConfigError, DataError, ShapeError
from langtail.synth import (
    TEXT_EMBED_DIM,
    SynthConfig,
    _unit_rows,
    generate_corpus,
    generate_scene,
    read_corpus,
    write_corpus,
    zipf_class_counts,
)


def test_zipf_counts_hand_case():
    # weights 1, 1/2 -> 20, 10 of 30
    assert zipf_class_counts(2, 1.0, 30).tolist() == [20, 10]


def test_zipf_counts_uniform_at_zero_exponent():
    assert zipf_class_counts(4, 0.0, 100).tolist() == [25, 25, 25, 25]


def test_zipf_counts_monotone_and_floor():
    counts = zipf_class_counts(10, 2.0, 40)
    assert counts.sum() == 40
    assert np.all(counts >= 1)
    assert np.all(np.diff(counts) <= 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.floats(0.0, 3.0), st.integers(12, 5000))
def test_zipf_counts_invariants(n, exponent, total):
    counts = zipf_class_counts(n, exponent, total)
    assert counts.sum() == total
    assert counts.min() >= 1


def test_tail_realism():
    # with a steep enough law the rarest class is under 5% of the head class
    counts = zipf_class_counts(10, 1.5, 2000)
    assert counts[-1] < 0.05 * counts[0]


def test_class_embeddings_unit_and_deterministic():
    cfg = SynthConfig(seed=5)
    a = _unit_rows(cfg, "class-embed", TEXT_EMBED_DIM)
    b = _unit_rows(cfg, "class-embed", TEXT_EMBED_DIM)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    # distinct classes get near-orthogonal embeddings in 512 dims
    off = a @ a.T - np.eye(cfg.n_classes)
    assert np.abs(off).max() < 0.25


def test_scene_deterministic():
    cfg = SynthConfig(n_classes=4, points_per_scene=300, n_scenes=1, seed=9)
    s1, e1 = generate_scene(cfg, 0)
    s2, e2 = generate_scene(cfg, 0)
    assert np.array_equal(s1.points, s2.points)
    assert np.array_equal(s1.superpoints, s2.superpoints)
    assert len(e1) == len(e2)
    assert all(a.entity_id == b.entity_id for a, b in zip(e1, e2))


def test_scenes_differ_by_index():
    cfg = SynthConfig(n_classes=4, points_per_scene=300, n_scenes=2, seed=9)
    s0, _ = generate_scene(cfg, 0)
    s1, _ = generate_scene(cfg, 1)
    assert not np.array_equal(s0.points, s1.points)


def test_corpus_write_is_byte_deterministic(tmp_path):
    cfg = SynthConfig(n_classes=3, points_per_scene=120, n_scenes=2, seed=2)
    generate_corpus(cfg, tmp_path / "a")
    generate_corpus(cfg, tmp_path / "b")
    for rel in ("scenes/scene0000/points.ltfm", "scenes/scene0001/superpoints.ltsp",
                "labels.ltlb", "bank/embeddings.ltfm", "bank/entities.tsv"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_labels_and_superpoints_consistent():
    cfg = SynthConfig(n_classes=5, points_per_scene=400, n_scenes=1, seed=3)
    scene, entities = generate_scene(cfg, 0)
    # superpoint ids are dense and never span two classes
    assert scene.superpoints.min() == 0
    n_sp = scene.superpoints.max() + 1
    assert set(scene.superpoints) == set(range(n_sp))
    for sp in range(n_sp):
        assert len(set(scene.gt_labels[scene.superpoints == sp])) == 1
    # every mask is label-pure and its class matches the entity text
    for e in entities:
        for sid, idx in e.masks:
            labels = set(scene.gt_labels[idx])
            assert len(labels) == 1
            assert e.text.startswith(f"class{labels.pop():02d}")


def test_class_counts_follow_zipf():
    cfg = SynthConfig(n_classes=6, points_per_scene=600, n_scenes=1, seed=1)
    scene, _ = generate_scene(cfg, 0)
    expected = zipf_class_counts(6, cfg.zipf_exponent, 600)
    got = np.bincount(scene.gt_labels, minlength=6)
    assert np.array_equal(got, expected)


def test_noiseless_cross_class_separation():
    cfg = SynthConfig(n_classes=4, points_per_scene=200, n_scenes=1,
                      noise_sigma=0.0, seed=6)
    scene, _ = generate_scene(cfg, 0)
    # class centers sit on axis 0, all other offsets are orthogonal to it
    for c in range(3):
        a = scene.points[scene.gt_labels == c]
        b = scene.points[scene.gt_labels == c + 1]
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        assert d.min() >= cfg.class_separation - 1e-5


def test_alias_rate_extremes():
    base = dict(n_classes=4, points_per_scene=300, n_scenes=1, seed=4)
    _, none = generate_scene(SynthConfig(entity_alias_rate=0.0, **base), 0)
    _, full = generate_scene(SynthConfig(entity_alias_rate=1.0, **base), 0)
    assert len(full) == 2 * len(none)
    assert not any("alias" in e.text for e in none)
    aliases = [e for e in full if "alias" in e.text]
    assert len(aliases) == len(none)
    # alias embedding is a small perturbation of the class embedding
    emb = _unit_rows(SynthConfig(entity_alias_rate=1.0, **base), "class-embed", TEXT_EMBED_DIM)
    for e in aliases:
        c = int(e.text[5:7])
        assert np.linalg.norm(e.text_embedding - emb[c]) < 0.051


def test_distill_targets_optional():
    base = dict(n_classes=3, points_per_scene=90, n_scenes=1, seed=0)
    scene, _ = generate_scene(SynthConfig(**base), 0)
    assert scene.distill_targets is None
    scene, _ = generate_scene(SynthConfig(distill_dim=16, **base), 0)
    assert scene.distill_targets.shape == (90, 16)


def test_corpus_rewrite_deletes_the_optional_files_it_does_not_write(tmp_path):
    # a corpus without distill targets or labels written over one with them
    # used to keep the old distill.ltfm and labels.ltlb, which read_corpus loaded
    out = tmp_path / "c"
    generate_corpus(SynthConfig(n_classes=3, points_per_scene=90, n_scenes=2, seed=0,
                                distill_dim=8), out)
    scenes, entities = read_corpus(out)
    assert all(s.distill_targets is not None for s in scenes)
    scene = replace(generate_scene(SynthConfig(n_classes=3, points_per_scene=90, n_scenes=1,
                                               seed=1), 0)[0], gt_labels=None)
    write_corpus(out, [scene], entities)
    (back,), _ = read_corpus(out)
    assert back.distill_targets is None and back.gt_labels is None
    assert sorted(os.listdir(out / "scenes" / "scene0000")) == ["points.ltfm", "superpoints.ltsp"]
    assert not (out / "labels.ltlb").exists()


def test_corpus_round_trip(tmp_path):
    cfg = SynthConfig(n_classes=3, points_per_scene=120, n_scenes=2, seed=8)
    scenes, entities = generate_corpus(cfg, tmp_path / "c")
    back_scenes, back_entities = read_corpus(tmp_path / "c")
    assert [s.scene_id for s in back_scenes] == [s.scene_id for s in scenes]
    for a, b in zip(scenes, back_scenes):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.superpoints, b.superpoints)
        assert np.array_equal(a.gt_labels, b.gt_labels)
    assert sorted(e.entity_id for e in back_entities) == sorted(
        e.entity_id for e in entities
    )


def test_read_corpus_refuses_a_scene_listed_twice(tmp_path):
    generate_corpus(SynthConfig(n_classes=3, points_per_scene=120, n_scenes=2, seed=8),
                    tmp_path / "c")
    (tmp_path / "c" / "manifest.tsv").write_text("scene0000\nscene0001\nscene0000\n")
    with pytest.raises(DataError, match="lists scene scene0000 more than once"):
        read_corpus(tmp_path / "c")


def test_read_corpus_refuses_scenes_of_different_widths(tmp_path):
    generate_corpus(SynthConfig(n_classes=3, points_per_scene=120, n_scenes=2, seed=8),
                    tmp_path / "c")
    path = tmp_path / "c" / "scenes" / "scene0001" / "points.ltfm"
    dm.write_feature_matrix(path, dm.read_feature_matrix(path)[:, :5])
    with pytest.raises(ShapeError, match="scene scene0001: points.ltfm has 5 columns"):
        read_corpus(tmp_path / "c")


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_classes=1)
    with pytest.raises(ConfigError):
        SynthConfig(points_per_scene=4, n_classes=8)
    with pytest.raises(ConfigError):
        SynthConfig(zipf_exponent=-0.1)
    with pytest.raises(ConfigError):
        SynthConfig(entity_alias_rate=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(noise_sigma=-1.0)
    with pytest.raises(ConfigError, match="n_scenes"):
        SynthConfig(n_scenes=0)
