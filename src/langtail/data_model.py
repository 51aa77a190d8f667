"""Domain types, bit-exact file I/O for the pipeline artifacts, and
pool_masks, the one rule for a float group mean.

Binary formats, all little-endian. Each file is its magic (none for masks),
u32 version=1, then the fields below; readers refuse bytes after the last.
  LTFM feature file:    magic "LTFM", u64 rows, u64 cols, rows*cols f32
  LTSP superpoint file: magic "LTSP", u64 n_points, n_points u32
  LTLB label file:      magic "LTLB", u64 n, n i32 (-1 = ignore)
  mask file (per scene): u64 n_entities, then per entity u64 entity_id,
                        u64 count, count u64 point indices
  LTCK checkpoint:      magic "LTCK", u64 n_tensors, then per tensor u64 name
                        length, UTF-8 name, u64 rows, u64 cols, rows*cols f32
Text files (.tsv, config.resolved) are tsv_text's as UTF-8 in any locale: per
row, its fields' str() joined by tabs, then "\n". read_tsv reads .tsv rows back.

On-disk reals are f32; in-memory computation uses f64 accumulation.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import (
    DataError,
    FormatError,
    IoError,
    ShapeError,
    TruncationError,
)

FEATURE_MAGIC = b"LTFM"
SUPERPOINT_MAGIC = b"LTSP"
LABEL_MAGIC = b"LTLB"
CHECKPOINT_MAGIC = b"LTCK"
FORMAT_VERSION = 1


@dataclass
class EntityRecord:
    """One named entity: its text, a 512-dim text embedding, and per-scene masks.

    Masks are stored as sorted unique point-index arrays so that fixture
    hashing is deterministic.
    """

    entity_id: int
    text: str
    text_embedding: np.ndarray
    masks: list[tuple[str, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if any(c in self.text for c in "\t\r\n"):  # entities.tsv could not be read back
            raise DataError(f"entity {self.entity_id}: text {self.text!r} holds a tab or newline")
        self.text_embedding = np.asarray(self.text_embedding, dtype=np.float64)
        if float(np.linalg.norm(self.text_embedding)) <= 0.0:
            raise DataError(f"entity {self.entity_id}: text embedding has zero norm")
        self.masks = [
            (sid, np.unique(np.asarray(idx, dtype=np.int64))) for sid, idx in self.masks
        ]
        for sid, idx in self.masks:
            if idx.size == 0:
                raise DataError(f"entity {self.entity_id}: empty mask for scene {sid}")
            if np.any(idx < 0):
                raise DataError(f"entity {self.entity_id}: negative point index in scene {sid}")


@dataclass
class SceneBundle:
    """What training reads of a scene; the ground truth is only in the corpus's labels.ltlb."""

    scene_id: str
    points: np.ndarray
    superpoints: np.ndarray
    distill_targets: np.ndarray | None = None

    def __post_init__(self):
        n = self.points.shape[0]
        if self.superpoints.shape[0] != n:
            raise ShapeError(
                f"scene {self.scene_id}: {n} points but {self.superpoints.shape[0]} superpoint ids"
            )
        if self.distill_targets is not None and self.distill_targets.shape[0] != n:
            raise ShapeError(f"scene {self.scene_id}: distill target row count mismatch")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_superpoints(self) -> int:
        return int(self.superpoints.max()) + 1


def _validate_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"feature matrix must be 2-D and non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError("feature matrix contains non-finite values")
    return m


@contextmanager
def atomic_open(path):
    """Every file's one writer: binary, through <path>.tmp<pid>, renamed onto
    path when the with-block ends; on any exception the temporary file is
    removed, so path keeps its previous contents. An OSError is an IoError."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as e:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise IoError(f"cannot write {path}: {e}") from e
        raise


def _read_exact(f, n: int, what: str) -> bytes:
    # n may come from the file itself: check it against the bytes left before
    # asking read() to allocate it
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise TruncationError(f"{f.name}: unexpected end of file while reading {what}: "
                              f"{n} bytes needed, {left} left")
    buf = f.read(n)
    if len(buf) != n:
        raise TruncationError(f"{f.name}: unexpected end of file while reading {what}")
    return buf


def put(f, a, dtype) -> None:
    """Write an array as its u64 dims, then its elements as dtype, row-major."""
    a = np.asarray(a, dtype=dtype)
    f.write(np.asarray(a.shape, dtype="<u8").tobytes())
    f.write(a.tobytes())


def take(f, dtype, ndim: int) -> np.ndarray:
    """Read back a read-only ndim-dimensional dtype array that put wrote."""
    dims = tuple(int(d) for d in np.frombuffer(_read_exact(f, 8 * ndim, "dims"), "<u8"))
    size = math.prod(dims) * np.dtype(dtype).itemsize
    return np.frombuffer(_read_exact(f, size, f"{dims} {dtype} array"), dtype).reshape(dims)


@contextmanager
def writing(path, magic: bytes):
    """atomic_open(path) with the magic and the format version written."""
    with atomic_open(path) as f:
        f.write(magic)
        put(f, FORMAT_VERSION, "<u4")
        yield f


@contextmanager
def reading(path, magic: bytes):
    """open(path, "rb") past a checked magic and version. The with-block must
    read the whole body: a byte left after it is a FormatError. An OSError
    becomes an IoError."""
    try:
        with open(path, "rb") as f:
            got = _read_exact(f, len(magic), "magic")
            if got != magic:
                raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
            version = int(take(f, "<u4", 0))
            if version != FORMAT_VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            yield f
            if f.read(1):
                raise FormatError(f"{path}: trailing bytes after payload")
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e


def read_feature_matrix(path) -> np.ndarray:
    """Read an LTFM file into a float32 (rows, cols) array."""
    with reading(path, FEATURE_MAGIC) as f:
        m = take(f, "<f4", 2)
    if m.size == 0:
        raise FormatError(f"{path}: degenerate dims {m.shape[0]}x{m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise DataError(f"{path}: non-finite value in payload")
    return m.astype(np.float32)


def write_feature_matrix(path, m: np.ndarray) -> None:
    """Write a matrix as LTFM; round-trips bit-exactly through read_feature_matrix."""
    m = _validate_matrix(m)
    with writing(path, FEATURE_MAGIC) as f:
        put(f, m, "<f4")


def read_superpoints(path) -> np.ndarray:
    """Read an LTSP file into an int64 assignment vector with dense ids.

    Ids are densified in numeric order: the smallest id becomes 0, the next
    larger one 1, and so on; the original ids are not preserved.
    """
    with reading(path, SUPERPOINT_MAGIC) as f:
        ids = take(f, "<u4", 1)
    return np.unique(ids, return_inverse=True)[1].astype(np.int64)


def write_superpoints(path, assignment: np.ndarray) -> None:
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.ndim != 1 or assignment.size == 0:
        raise ShapeError("superpoint assignment must be a non-empty vector")
    if assignment.min() < 0 or assignment.max() > np.iinfo("<u4").max:
        raise DataError("superpoint ids must lie in [0, 2**32 - 1]")
    with writing(path, SUPERPOINT_MAGIC) as f:
        put(f, assignment, "<u4")


def read_labels(path) -> np.ndarray:
    with reading(path, LABEL_MAGIC) as f:
        labels = take(f, "<i4", 1).astype(np.int64)
    if labels.size and labels.min() < -1:
        raise DataError(f"{path}: label below -1")
    return labels


def write_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError("label vector must be 1-D")
    if labels.size and (labels.min() < -1 or labels.max() > np.iinfo("<i4").max):
        raise DataError("labels must lie in [-1, 2**31 - 1]")
    with writing(path, LABEL_MAGIC) as f:
        put(f, labels, "<i4")


def pool_masks(incidence, features) -> tuple[np.ndarray, np.ndarray]:
    """Every float group mean's one rule: per row of incidence, scenes' CSRs of
    ones, the mean over scenes of the mean feature over its entries there (zero
    if in none). Returns (pooled, counts), counts[j] each row's entries in scene j.
    Sums run from zero in entry order: one group in one scene pools to F[group].mean(0)."""
    counts = np.stack([np.diff(M.indptr) for M in incidence])
    pooled = np.zeros((counts.shape[1], features[0].shape[1]))
    for M, F, n in zip(incidence, features, counts):
        if F.shape[0] != M.shape[1]:
            raise ShapeError(f"{F.shape[0]} feature rows for a scene of {M.shape[1]} points")
        sums = M @ np.asarray(F, dtype=np.float64)
        pooled += np.divide(sums, n[:, None], out=sums, where=n[:, None] > 0)
    pooled /= np.maximum((counts > 0).sum(0), 1)[:, None]
    return pooled, counts


def group_incidence(labels, n_groups: int):
    """The n_groups x len(labels) CSR of ones; row g holds the i with labels[i] == g, ascending."""
    n = len(labels)
    return sparse.csr_array((np.ones(n), (labels, np.arange(n))), shape=(n_groups, n))


def pool_by_superpoint(points: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """pool_masks of one scene's points over its superpoints: row s is the
    float64 mean of the points with superpoint id s, summed in point order.
    Ids must be dense: an id with no point is a DataError."""
    points = _validate_matrix(points)
    assignment = np.asarray(assignment, dtype=np.int64)
    if points.shape[0] != assignment.shape[0]:
        raise ShapeError(
            f"{points.shape[0]} feature rows but {assignment.shape[0]} superpoint ids"
        )
    pooled, counts = pool_masks([group_incidence(assignment, assignment.max() + 1)], [points])
    if np.any(counts == 0):
        raise DataError("superpoint ids are not dense: empty group encountered")
    return pooled


def make_dirs(path) -> None:
    """os.makedirs(path, exist_ok=True); an OSError becomes an IoError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create directory {path}: {e}") from e


def remove(path) -> None:
    """os.remove(path); an OSError becomes an IoError."""
    try:
        os.remove(path)
    except OSError as e:
        raise IoError(f"cannot remove {path}: {e}") from e


def write_optional(path, a, write) -> None:
    """write(path, a), or, when a is None, remove the file an earlier writer
    left at path, which a later reader would take for this one's."""
    if a is not None:
        write(path, a)
    elif os.path.exists(path):
        remove(path)


# ---------------------------------------------------------------------------
# Entity bank directory


def write_entity_masks(path, scene_id: str, entities: list[EntityRecord]) -> None:
    """Write masks/<scene_id>.bin for the entities present in one scene."""
    present = [(e.entity_id, idx) for e in entities for sid, idx in e.masks if sid == scene_id]
    with writing(path, b"") as f:
        put(f, len(present), "<u8")
        for eid, idx in present:
            put(f, eid, "<u8")
            put(f, idx, "<u8")


def read_entity_masks(path) -> list[tuple[int, np.ndarray]]:
    """Read one scene's mask file into (entity_id, indices) pairs."""
    out = []
    with reading(path, b"") as f:
        for _ in range(int(take(f, "<u8", 0))):
            eid = int(take(f, "<u8", 0))
            idx = take(f, "<u8", 1).astype(np.int64)
            # the sorted unique non-negative form EntityRecord gives a mask
            if idx.size == 0 or idx[0] < 0 or np.any(idx[1:] <= idx[:-1]):
                raise DataError(f"{path}: entity {eid} mask is not sorted and unique")
            out.append((eid, idx))
    return out


def write_entity_bank(bank_dir, entities: list[EntityRecord]) -> None:
    """Persist the raw bank inputs: entities.tsv, embeddings.ltfm, masks/.
    A masks/*.bin file of a scene no entity has a mask in is deleted."""
    masks_dir = os.path.join(bank_dir, "masks")
    make_dirs(masks_dir)
    entities = sorted(entities, key=lambda e: e.entity_id)
    write_tsv(os.path.join(bank_dir, "entities.tsv"),
              [(e.entity_id, e.text, len(e.masks)) for e in entities])
    emb = np.stack([e.text_embedding for e in entities]).astype(np.float32)
    write_feature_matrix(os.path.join(bank_dir, "embeddings.ltfm"), emb)
    scene_ids = {sid for e in entities for sid, _ in e.masks}
    for sid in sorted(scene_ids):
        write_entity_masks(os.path.join(masks_dir, f"{sid}.bin"), sid, entities)
    for name in os.listdir(masks_dir):
        if name.endswith(".bin") and name[:-len(".bin")] not in scene_ids:
            remove(os.path.join(masks_dir, name))


def tsv_text(rows) -> str:
    """Each row's fields through str, joined by tabs, each row ended by "\n"."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def write_tsv(path, rows) -> None:
    """tsv_text(rows) as UTF-8 through atomic_open, surrogate escapes as their bytes."""
    with atomic_open(path) as f:
        f.write(tsv_text(rows).encode("utf-8", "surrogateescape"))


def read_tsv(path, *types) -> list[tuple]:
    """Every non-blank line of a tab-separated text file as a tuple of its
    fields, each converted by its entry of types; a line with another field
    count, or a field its type rejects, is a FormatError naming path:lineno."""
    rows = []
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                try:
                    if len(fields) != len(types):
                        raise ValueError(f"{len(fields)} fields, expected {len(types)}")
                    rows.append(tuple(t(x) for t, x in zip(types, fields)))
                except ValueError as e:
                    raise FormatError(f"{path}:{lineno}: bad row {line.strip()!r}: {e}") from e
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text: {e}") from e
    except OSError as e:
        raise IoError(f"cannot read {path}: {e}") from e
    return rows


def read_entity_bank(bank_dir) -> list[EntityRecord]:
    """Load a bank directory back into EntityRecord order of entities.tsv."""
    rows = read_tsv(os.path.join(bank_dir, "entities.tsv"), int, str, int)
    emb = read_feature_matrix(os.path.join(bank_dir, "embeddings.ltfm"))
    if emb.shape[0] != len(rows):
        raise DataError(
            f"bank mismatch: {len(rows)} entities in tsv but {emb.shape[0]} embeddings"
        )
    records = {}
    for (eid, text, _), vec in zip(rows, emb):
        if eid in records:
            raise DataError(f"{bank_dir}: entities.tsv lists entity {eid} more than once")
        records[eid] = EntityRecord(entity_id=eid, text=text, text_embedding=vec)
    masks_dir = os.path.join(bank_dir, "masks")
    if os.path.isdir(masks_dir):
        for fname in sorted(os.listdir(masks_dir)):
            if not fname.endswith(".bin"):
                continue
            sid = fname[: -len(".bin")]
            for eid, idx in read_entity_masks(os.path.join(masks_dir, fname)):
                if eid not in records:
                    raise DataError(f"mask references unknown entity {eid}")
                records[eid].masks.append((sid, idx))
    for eid, _, count in rows:
        if len(records[eid].masks) != count:
            raise DataError(f"entity {eid}: entities.tsv lists {count} masks, "
                            f"masks/ holds {len(records[eid].masks)}")
    return [records[eid] for eid, _, _ in rows]
