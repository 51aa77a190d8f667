"""File format round trips, header layout, and pooling."""

import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_pool
from langtail import data_model as dm
from langtail import train as tr
from langtail.errors import (
    DataError,
    FormatError,
    IoError,
    LangtailError,
    ShapeError,
    TruncationError,
)


def test_feature_matrix_round_trip(tmp_path):
    m = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    p = tmp_path / "m.ltfm"
    dm.write_feature_matrix(p, m)
    back = dm.read_feature_matrix(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, m)


def test_feature_matrix_header_layout(tmp_path):
    # 1x1 matrix: 4 magic + 4 version + 8 rows + 8 cols + 4 payload = 28 bytes
    p = tmp_path / "one.ltfm"
    dm.write_feature_matrix(p, np.array([[1.5]], dtype=np.float32))
    raw = p.read_bytes()
    assert len(raw) == 28
    assert raw[:4] == b"LTFM"
    version, rows, cols = struct.unpack("<IQQ", raw[4:24])
    assert (version, rows, cols) == (1, 1, 1)
    assert struct.unpack("<f", raw[24:])[0] == 1.5


def test_feature_matrix_bad_magic(tmp_path):
    p = tmp_path / "bad.ltfm"
    p.write_bytes(b"XXXX" + b"\x00" * 24)
    with pytest.raises(FormatError):
        dm.read_feature_matrix(p)


def test_feature_matrix_truncated(tmp_path):
    p = tmp_path / "t.ltfm"
    dm.write_feature_matrix(p, np.ones((2, 3), dtype=np.float32))
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(TruncationError):
        dm.read_feature_matrix(p)


def _one_mask(path):
    ents = [dm.EntityRecord(4, "x", np.ones(4), masks=[("s0", np.array([1, 5]))])]
    dm.write_entity_masks(path, "s0", ents)


# (write a valid file at path, read it back) for every binary format
FORMATS = {
    "ltfm": (lambda p: dm.write_feature_matrix(p, np.ones((2, 2))), dm.read_feature_matrix),
    "ltsp": (lambda p: dm.write_superpoints(p, np.array([0, 1, 1])), dm.read_superpoints),
    "ltlb": (lambda p: dm.write_labels(p, np.array([0, -1])), dm.read_labels),
    "mask": (_one_mask, dm.read_entity_masks),
    "ltck": (lambda p: tr.save_checkpoint(p, tr.init_backbone(3, [4], 2, seed=0)),
             tr.load_checkpoint),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_trailing_bytes(tmp_path, fmt):
    write, read = FORMATS[fmt]
    p = tmp_path / "f"
    write(p)
    read(p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing bytes"):
        read(p)


@pytest.mark.parametrize("fmt", FORMATS)
def test_truncated_at_every_offset(tmp_path, fmt):
    # a file cut short anywhere is refused with a typed error, never a bare one
    write, read = FORMATS[fmt]
    p = tmp_path / "f"
    write(p)
    whole = p.read_bytes()
    for end in range(len(whole)):
        p.write_bytes(whole[:end])
        with pytest.raises(LangtailError):
            read(p)


@pytest.mark.parametrize("fmt", FORMATS)
def test_corrupt_magic_or_version_is_refused(tmp_path, fmt):
    # the low bit, the high bit and all bits of each byte of the magic and the
    # u32 version (masks have no magic) flipped: a typed error each time
    write, read = FORMATS[fmt]
    p = tmp_path / "f"
    write(p)
    whole = p.read_bytes()
    for i in range(4 if fmt == "mask" else 8):
        for flip in (0x01, 0x80, 0xFF):
            p.write_bytes(whole[:i] + bytes([whole[i] ^ flip]) + whole[i + 1:])
            with pytest.raises(LangtailError):
                read(p)


# a writer call and the bytes it must write, packed by hand
LAYOUTS = {
    "ltsp": (lambda p: dm.write_superpoints(p, np.array([0, 2, 1])),
             b"LTSP" + struct.pack("<IQ3I", 1, 3, 0, 2, 1)),
    "ltlb": (lambda p: dm.write_labels(p, np.array([3, -1])),
             b"LTLB" + struct.pack("<IQ2i", 1, 2, 3, -1)),
    # only the entities present in scene s0, in entity order
    "mask": (lambda p: dm.write_entity_masks(p, "s0", [
        dm.EntityRecord(7, "a", np.ones(4), masks=[("s0", np.array([9, 2])), ("s1", [4])]),
        dm.EntityRecord(3, "b", np.ones(4), masks=[("s0", np.array([5]))]),
    ]), struct.pack("<IQ", 1, 2) + struct.pack("<QQ2Q", 7, 2, 2, 9)
        + struct.pack("<QQQ", 3, 1, 5)),
    "ltck": (lambda p: tr.save_checkpoint(p, tr.Backbone(
        weights=[np.array([[0.5, -1.0, 2.0]])], biases=[np.array([0.25, 0.0, 3.0])])),
        b"LTCK" + struct.pack("<IQ", 1, 2)
        + struct.pack("<Q", 22) + b"backbone/layer0/weight"
        + struct.pack("<QQ3f", 1, 3, 0.5, -1.0, 2.0)
        + struct.pack("<Q", 20) + b"backbone/layer0/bias"
        + struct.pack("<QQ3f", 1, 3, 0.25, 0.0, 3.0)),
}


@pytest.mark.parametrize("fmt", LAYOUTS)
def test_binary_layout(tmp_path, fmt):
    write, expected = LAYOUTS[fmt]
    p = tmp_path / "f"
    write(p)
    assert p.read_bytes() == expected


def test_feature_matrix_rejects_non_finite(tmp_path):
    with pytest.raises(DataError):
        dm.write_feature_matrix(tmp_path / "nan.ltfm", np.array([[np.nan]]))
    # and on read, when the payload was forged
    p = tmp_path / "forged.ltfm"
    payload = struct.pack("<f", np.inf)
    p.write_bytes(b"LTFM" + struct.pack("<IQQ", 1, 1, 1) + payload)
    with pytest.raises(DataError):
        dm.read_feature_matrix(p)


def test_feature_matrix_rejects_empty():
    with pytest.raises(ShapeError):
        dm.write_feature_matrix("/dev/null", np.empty((0, 3)))


def test_superpoints_round_trip_and_densify(tmp_path):
    p = tmp_path / "sp.ltsp"
    dm.write_superpoints(p, np.array([0, 2, 2, 5, 0]))
    assert np.array_equal(dm.read_superpoints(p), [0, 1, 1, 2, 0])
    dm.write_superpoints(p, np.array([1, 0, 2]))
    assert np.array_equal(dm.read_superpoints(p), [1, 0, 2])


def test_superpoints_reject_negative(tmp_path):
    with pytest.raises(DataError):
        dm.write_superpoints(tmp_path / "sp.ltsp", np.array([0, -1]))


def test_labels_round_trip(tmp_path):
    p = tmp_path / "l.ltlb"
    labels = np.array([0, 3, -1, 2])
    dm.write_labels(p, labels)
    assert np.array_equal(dm.read_labels(p), labels)


def test_labels_reject_below_ignore(tmp_path):
    with pytest.raises(DataError):
        dm.write_labels(tmp_path / "l.ltlb", np.array([0, -2]))


@pytest.mark.parametrize("write,values", [
    (dm.write_superpoints, [0, 1, 2**32]),
    (dm.write_labels, [0, 2**32 + 5]),
    (dm.write_labels, [0, 2**31]),
])
def test_writers_refuse_values_their_dtype_cannot_hold(tmp_path, write, values):
    with pytest.raises(DataError):
        write(tmp_path / "f.bin", np.array(values))
    assert os.listdir(tmp_path) == []


def test_writers_keep_the_largest_value_their_dtype_holds(tmp_path):
    dm.write_superpoints(tmp_path / "sp.ltsp", np.array([0, 2**32 - 1, 5]))
    with dm.reading(tmp_path / "sp.ltsp", dm.SUPERPOINT_MAGIC) as f:
        assert dm.take(f, "<u4", 1).tolist() == [0, 2**32 - 1, 5]
    assert dm.read_superpoints(tmp_path / "sp.ltsp").tolist() == [0, 2, 1]
    dm.write_labels(tmp_path / "l.ltlb", np.array([-1, 2**31 - 1]))
    assert dm.read_labels(tmp_path / "l.ltlb").tolist() == [-1, 2**31 - 1]


def test_pool_by_superpoint_hand_case():
    pts = np.array([[1.0, 0.0], [3.0, 2.0], [0.0, 10.0]])
    pooled = dm.pool_by_superpoint(pts, np.array([0, 0, 1]))
    assert np.allclose(pooled, [[2.0, 1.0], [0.0, 10.0]])


def test_pool_by_superpoint_rejects_gaps():
    with pytest.raises(DataError):
        dm.pool_by_superpoint(np.ones((2, 2)), np.array([0, 2]))


def test_pool_by_superpoint_shape_mismatch():
    with pytest.raises(ShapeError):
        dm.pool_by_superpoint(np.ones((3, 2)), np.array([0, 1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_pool_permutation_invariant(n, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    assign = rng.integers(0, max(1, n // 2), size=n)
    assign[: assign.max() + 1] = np.arange(assign.max() + 1)  # keep ids dense
    perm = rng.permutation(n)
    a = dm.pool_by_superpoint(pts, assign)
    b = dm.pool_by_superpoint(pts[perm], assign[perm])
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(1, 6), st.integers(1, 40),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 10 ** 6))
def test_pool_by_superpoint_has_the_bits_of_the_reference_means(n, d, k, dtype, seed):
    # labels in no order, float32 or float64 rows over six decades of scale
    rng = np.random.default_rng(seed)
    pts = (rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)).astype(dtype)
    assign = np.unique(rng.integers(0, k, size=n), return_inverse=True)[1]
    got = dm.pool_by_superpoint(pts, assign)
    assert got.dtype == np.float64
    assert np.array_equal(got, oracle_pool.pool_add_at(pts, assign))
    if d > 1:  # see oracle_pool.kmeans_update
        X = pts.astype(np.float64)
        assert np.array_equal(got, oracle_pool.kmeans_update(X, assign, assign.max() + 1))


def test_entity_record_normalizes_masks():
    e = dm.EntityRecord(1, "chair", np.ones(4), masks=[("s", np.array([3, 1, 3]))])
    assert np.array_equal(e.masks[0][1], [1, 3])


def test_entity_record_rejections():
    with pytest.raises(DataError):
        dm.EntityRecord(1, "x", np.zeros(4))
    with pytest.raises(DataError):
        dm.EntityRecord(1, "x", np.ones(4), masks=[("s", np.array([], dtype=np.int64))])
    with pytest.raises(DataError):
        dm.EntityRecord(1, "x", np.ones(4), masks=[("s", np.array([-1]))])


@pytest.mark.parametrize("text", ["desk\tlamp", "desk\rlamp", "desk\nlamp", "lamp\r\n"])
def test_entity_record_refuses_text_that_entities_tsv_cannot_hold(text):
    # such a record used to be written, and read_entity_bank then refused the
    # file it had written ("4 fields, expected 3") or split the entity's row
    with pytest.raises(DataError, match="entity 1: text .* holds a tab or newline"):
        dm.EntityRecord(1, text, np.ones(4))


def test_entity_bank_round_trips_every_text_a_record_holds(tmp_path):
    texts = ["", " floor lamp ", "lampe \u00e0 pied", "lamp\x0bshade", "lamp\u2028shade", "#"]
    dm.write_entity_bank(tmp_path, [dm.EntityRecord(i, t, np.ones(4)) for i, t in enumerate(texts)])
    assert [e.text for e in dm.read_entity_bank(tmp_path)] == texts


def test_scene_bundle_shape_checks():
    with pytest.raises(ShapeError):
        dm.SceneBundle("s", np.ones((3, 2)), np.zeros(2, dtype=np.int64))
    b = dm.SceneBundle("s", np.ones((3, 2)), np.array([0, 1, 1]))
    assert b.n_points == 3
    assert b.n_superpoints == 2


def test_entity_bank_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ents = [
        dm.EntityRecord(7, "lamp", rng.normal(size=8),
                        masks=[("a", np.array([0, 2])), ("b", np.array([1]))]),
        dm.EntityRecord(3, "desk", rng.normal(size=8),
                        masks=[("a", np.array([5]))]),
    ]
    dm.write_entity_bank(tmp_path / "bank", ents)
    back = dm.read_entity_bank(tmp_path / "bank")
    # entities come back in entities.tsv (sorted id) order
    assert [e.entity_id for e in back] == [3, 7]
    by_id = {e.entity_id: e for e in back}
    for e in ents:
        r = by_id[e.entity_id]
        assert r.text == e.text
        assert np.allclose(r.text_embedding, e.text_embedding, atol=1e-6)
        assert [(sid, idx.tolist()) for sid, idx in sorted(r.masks)] == [
            (sid, idx.tolist()) for sid, idx in sorted(e.masks)
        ]


def test_entity_bank_refuses_a_mask_count_it_cannot_load(tmp_path):
    ents = [dm.EntityRecord(7, "lamp", np.ones(4),
                            masks=[("a", np.array([0])), ("b", np.array([1]))]),
            dm.EntityRecord(3, "desk", np.ones(4), masks=[("a", np.array([5]))])]
    dm.write_entity_bank(tmp_path / "bank", ents)
    os.remove(tmp_path / "bank" / "masks" / "b.bin")
    with pytest.raises(DataError, match="entity 7: entities.tsv lists 2 masks, masks/ holds 1"):
        dm.read_entity_bank(tmp_path / "bank")


def test_entity_bank_rewrite_deletes_the_mask_files_it_does_not_write(tmp_path):
    # a bank of fewer scenes written over a larger one used to keep masks/b.bin,
    # whose entity 7 the new entities.tsv does not list
    bank = tmp_path / "bank"
    dm.write_entity_bank(bank, [dm.EntityRecord(
        7, "lamp", np.ones(4), masks=[("a", np.array([0])), ("b", np.array([1]))])])
    (bank / "masks" / "notes.txt").write_text("not a mask file")
    dm.write_entity_bank(bank, [dm.EntityRecord(3, "desk", np.ones(4),
                                                masks=[("a", np.array([5]))])])
    assert sorted(os.listdir(bank / "masks")) == ["a.bin", "notes.txt"]
    assert [e.entity_id for e in dm.read_entity_bank(bank)] == [3]


def test_entity_bank_refuses_an_entity_listed_twice(tmp_path):
    # the second row used to replace the first, dropping the first's embedding
    bank = _bank_dir(tmp_path)
    (bank / "entities.tsv").write_text("1\te1\t0\n1\te1 again\t0\n")
    with pytest.raises(DataError, match="lists entity 1 more than once"):
        dm.read_entity_bank(bank)


def _bank_dir(tmp_path):
    ents = [dm.EntityRecord(e, f"e{e}", np.ones(4)) for e in (1, 2)]
    dm.write_entity_bank(tmp_path / "bank", ents)
    return tmp_path / "bank"


@pytest.mark.parametrize("row", ["x\tlamp\t0", "2\tlamp", "2\tlamp\t0\textra", "2\tlamp\tmany"])
def test_entity_bank_bad_row_is_format_error(tmp_path, row):
    bank = _bank_dir(tmp_path)
    (bank / "entities.tsv").write_text(f"1\te1\t0\n{row}\n")
    with pytest.raises(FormatError, match=r"entities\.tsv:2: "):
        dm.read_entity_bank(bank)


def test_entity_bank_non_utf8_is_format_error(tmp_path):
    bank = _bank_dir(tmp_path)
    (bank / "entities.tsv").write_bytes(b"1\te1\t0\n2\t\xff\t0\n")
    with pytest.raises(FormatError, match="UTF-8"):
        dm.read_entity_bank(bank)


def test_entity_masks_round_trip(tmp_path):
    ents = [dm.EntityRecord(4, "x", np.ones(4), masks=[("s0", np.array([1, 5]))])]
    p = tmp_path / "s0.bin"
    dm.write_entity_masks(p, "s0", ents)
    got = dm.read_entity_masks(p)
    assert got[0][0] == 4
    assert np.array_equal(got[0][1], [1, 5])


@pytest.mark.parametrize("indices", [[5, 1], [1, 5, 5], [2 ** 64 - 1], []])
def test_entity_masks_reject_unsorted_repeated_or_negative(tmp_path, indices):
    # EntityRecord masks are sorted, unique and non-negative, so a written
    # file always is; 2^64 - 1 reads back as -1
    p = tmp_path / "s0.bin"
    p.write_bytes(struct.pack("<IQQQ", 1, 1, 4, len(indices))
                  + np.array(indices, dtype="<u8").tobytes())
    with pytest.raises(DataError, match="sorted"):
        dm.read_entity_masks(p)


@pytest.mark.parametrize("name,header,read", [
    # LTFM dims of 2^31 x 2^31 declare a 2^64-byte payload
    ("m.ltfm", b"LTFM" + struct.pack("<IQQ", 1, 2 ** 31, 2 ** 31), dm.read_feature_matrix),
    ("l.ltlb", b"LTLB" + struct.pack("<IQ", 1, 2 ** 62), dm.read_labels),
    ("s.ltsp", b"LTSP" + struct.pack("<IQ", 1, 2 ** 62), dm.read_superpoints),
    ("m.bin", struct.pack("<IQQQ", 1, 1, 4, 2 ** 62), dm.read_entity_masks),
])
def test_huge_declared_length_is_truncation(tmp_path, name, header, read):
    # the declared length is checked against the bytes left, never handed to read()
    p = tmp_path / name
    p.write_bytes(header + b"\0" * 8)
    with pytest.raises(TruncationError, match="bytes needed"):
        read(p)


def test_text_artifacts_of_a_tiny_run_keep_their_layout(tmp_path):
    # synth with distill targets, then a run with a warm-up and a bank; floats
    # are pinned to their format, every other field to its value
    from langtail.synth import SynthConfig, generate_corpus

    generate_corpus(SynthConfig(n_classes=3, points_per_scene=60, n_scenes=2, seed=3,
                                distill_dim=4), str(tmp_path / "corpus"))
    tr.run_pipeline(tr.TrainConfig(lambda_entity=0.5, granularities=(4,), epochs=1,
                                   recluster_every=1, use_global=False, feat_dim=4,
                                   hidden_dim=4, batch_scenes=2, warmup_epochs=2,
                                   entity_batch=4),
                    str(tmp_path / "corpus"), str(tmp_path / "run"))
    assert (tmp_path / "corpus" / "manifest.tsv").read_text() == "scene0000\nscene0001\n"
    ids = [0, 1, 2, 3, 4, 5, *range(1000000, 1000008)]
    texts = ["class00 instance0", "class00 instance1", "class00 instance2", "class01 instance0",
             "class01 instance0 alias", "class02 instance0", "class00 instance0",
             "class00 instance0 alias", "class00 instance1", "class00 instance1 alias",
             "class00 instance2", "class01 instance0", "class01 instance0 alias",
             "class02 instance0"]
    assert (tmp_path / "corpus" / "bank" / "entities.tsv").read_text() == "".join(
        f"{i}\t{t}\t1\n" for i, t in zip(ids, texts))
    assert (tmp_path / "run" / "bank" / "entity_ids.tsv").read_text() == "".join(
        f"{i}\n" for i in ids)
    e = r"-?\d\.\d{10}e[+-]\d\d"
    for rel in ("warmup.tsv", "bank/trace.tsv"):
        assert re.fullmatch(f"0\t{e}\n1\t{e}\n", (tmp_path / "run" / rel).read_text()), rel
    assert re.fullmatch(f"epoch\tlocal\tglobal\tentity\ttotal\tlr\n0(\t{e}){{5}}\n",
                        (tmp_path / "run" / "losses.tsv").read_text())


@pytest.mark.parametrize("types,rows", [
    ((int, float), [(0, 46.959350225), (1, 1.0425205894e-05)]),  # trace.tsv
    ((int,), [(0,), (7,), (1000000,)]),  # entity_ids.tsv
    ((int, str, int), [(3, "desk", 0), (7, " floor lamp ", 2), (8, "", 1)]),  # entities.tsv
    ((str,), [("scene0000",), ("scene 1",)]),  # manifest.tsv
])
def test_write_tsv_round_trips_through_read_tsv(tmp_path, types, rows):
    dm.write_tsv(tmp_path / "t.tsv", rows)
    assert dm.read_tsv(tmp_path / "t.tsv", *types) == rows
    assert (tmp_path / "t.tsv").read_text() == dm.tsv_text(rows)


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    # read_tsv reads UTF-8, so the writers write it under an ASCII locale too
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    code = ("import sys, numpy as np; from langtail import data_model as dm; "
            "dm.write_entity_bank(sys.argv[1], [dm.EntityRecord(0, 'lamp\\u00e0', np.ones(2))])")
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)
    assert (tmp_path / "entities.tsv").read_bytes() == "0\tlamp\u00e0\t0\n".encode()


def test_atomic_open_leaves_previous_file_when_a_write_raises(tmp_path):
    p = tmp_path / "report.tsv"
    p.write_text("old\n")
    with pytest.raises(RuntimeError):
        with dm.atomic_open(p) as f:
            f.write(b"half a ro")
            raise RuntimeError("interrupted")
    assert p.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["report.tsv"]  # no temporary file left
    with dm.atomic_open(p) as f:
        f.write(b"new\n")
    assert p.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["report.tsv"]
    with pytest.raises(IoError):
        dm.write_labels(tmp_path / "missing" / "pred.ltlb", np.zeros(3))
