"""File format round trips, header layout, and pooling."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langtail import data_model as dm
from langtail import train as tr
from langtail.errors import DataError, FormatError, IoError, ShapeError, TruncationError


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


def test_atomic_open_leaves_previous_file_when_a_write_raises(tmp_path):
    p = tmp_path / "report.tsv"
    p.write_text("old\n")
    with pytest.raises(RuntimeError):
        with dm.atomic_open(p) as f:
            f.write("half a ro")
            raise RuntimeError("interrupted")
    assert p.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["report.tsv"]  # no temporary file left
    with dm.atomic_open(p, "wb") as f:
        f.write(b"new\n")
    assert p.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["report.tsv"]
    with pytest.raises(IoError):
        dm.write_labels(tmp_path / "missing" / "pred.ltlb", np.zeros(3))
