import os

# One BLAS thread, as perfbench/ pins it, set before numpy loads its BLAS:
# training's matmuls then round as in the benchmark's recorded hashes, and
# BLAS threads do not compete with the scene helper threads for the CPUs.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def central_diff(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return g


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-6):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.abs(numeric), 1.0)
    err = np.abs(analytic - numeric)
    assert np.all(err <= atol + rtol * denom), (
        f"max abs err {err.max():.3e}, "
        f"max rel err {(err / denom).max():.3e}"
    )


def whole_grad(grad, n):
    """The (n, C) array of grad(lo, hi), a row-block gradient as
    head_ce_loss returns it and backbone_backward takes it, taken block by
    block (each call may write over the last block) over row_blocks(n)."""
    from langtail.evaluation import row_blocks

    return np.concatenate([grad(lo, hi).copy() for lo, hi in row_blocks(n)])


@pytest.fixture
def tiny_corpus(tmp_path):
    """Small written corpus shared by pipeline-level tests."""
    from langtail.synth import SynthConfig, generate_corpus

    cfg = SynthConfig(n_classes=4, points_per_scene=200, n_scenes=3, seed=11)
    scenes, entities = generate_corpus(cfg, str(tmp_path / "corpus"))
    return str(tmp_path / "corpus"), scenes, entities


def append_mask_index(corpus, scene_id, index):
    """Append point index `index` to the first entity mask in the corpus's
    mask file for scene_id, keeping the file well formed."""
    from langtail import data_model as dm

    path = os.path.join(corpus, "bank", "masks", f"{scene_id}.bin")
    entries = dm.read_entity_masks(path)
    entries[0] = (entries[0][0], np.append(entries[0][1], index))
    dm.write_entity_masks(path, scene_id, [
        dm.EntityRecord(eid, "", np.ones(1), masks=[(scene_id, idx)]) for eid, idx in entries])


def count_incidence_builds(monkeypatch) -> list:
    """Count every bank.mask_incidence call, whether made through train's
    import of it or bank's own name: the returned list grows by one a call."""
    from langtail import bank, train

    calls = []
    for module in (bank, train):
        build = module.mask_incidence

        def counted(*args, build=build):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(module, "mask_incidence", counted)
    return calls
