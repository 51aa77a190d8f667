"""Recompute the pinned seed-0 hashes and calibration rows, and compare.

    python tests/recompute_fixtures.py

Runs criterion 7's ten manifest seeds (full run and baseline, in two spawned
processes, as the criterion-7 test does) and the paper-width run of
test_paper_width_seed0_hashes. Then prints one line per pinned value, the
stored value beside the fresh one:

- the sha256 of each artifact in tests/fixtures/golden_seed0.json (full and
  baseline at seed 0, and paper_width);
- each calibration row's full_miou, full_tail, base_miou, base_tail and
  tail_gain in tests/fixtures/longtail_manifest.json. A value differs when it
  is further from the stored one than perfbench's CALIBRATION_TOL, the bound
  of the rescue workload's check.

Exits 1 if any value differs, else 0. A change that cannot keep the seed-0
bytes refreshes the fixtures from this output: every golden hash that
differs, and each calibration value that differs, rounded to 4 decimals
(tail_gain is the difference of the two rounded tail values). The hashes
hold only in the environment golden_seed0.json records, which is printed
first.
"""

import json
import multiprocessing
import os
import pathlib
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat

import conftest  # noqa: F401  (one BLAS thread, set before numpy loads)
import numpy as np
from test_acceptance import (
    GOLDEN,
    MANIFEST,
    _environment,
    _hashes,
    _paper_width_run,
    _rescue_run,
)

from langtail import data_model as dm
from langtail import evaluation as ev

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CALIBRATION_TOL  # noqa: E402


def _line(name, stored, fresh, differs) -> bool:
    print(f"{name:<34} stored {stored!s:<66} fresh {fresh!s:<66} "
          f"{'DIFFERS' if differs else 'same'}")
    return differs


def _scores(run_dir, gt, n_gt, tail):
    """Criterion 7's Hungarian-matched mIoU and mean tail-class IoU of a run."""
    report = ev.match_and_score(ev.confusion(dm.read_labels(str(run_dir / "pred.ltlb")), gt,
                                             n_gt=n_gt))
    return report.miou, float(np.mean(report.per_class_iou[tail]))


def main() -> int:
    with open(GOLDEN) as f:
        golden = json.load(f)
    with open(MANIFEST) as f:
        manifest = json.load(f)
    env = _environment()
    for key, want in golden["env"].items():
        print(f"env {key:<30} recorded {want!r}, here {env[key]!r}"
              f"{'' if env[key] == want else '  (hashes not comparable)'}")
    seeds = manifest["seeds"]
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        with ProcessPoolExecutor(min(2, os.cpu_count()),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            runs = dict(zip(seeds, pool.map(_rescue_run, repeat(manifest), seeds, repeat(root))))
        (root / "paper").mkdir()
        _, fdir, bdir = runs[0]
        for group, run_dir in (("full", fdir), ("baseline", bdir),
                               ("paper_width", _paper_width_run(manifest, root / "paper"))):
            fresh = _hashes(run_dir, golden[group])
            for name, want in golden[group].items():
                differs |= _line(f"golden {group}/{name}", want, fresh[name], fresh[name] != want)
        n_gt, tail = manifest["synth"]["n_classes"], manifest["tail_classes"]
        for row in manifest["calibration_sweep"]["rows"]:
            gt, fdir, bdir = runs[row["seed"]]
            full_miou, full_tail = _scores(fdir, gt, n_gt, tail)
            base_miou, base_tail = _scores(bdir, gt, n_gt, tail)
            fresh = {"full_miou": full_miou, "full_tail": full_tail, "base_miou": base_miou,
                     "base_tail": base_tail, "tail_gain": full_tail - base_tail}
            for key, value in fresh.items():
                differs |= _line(f"seed {row['seed']} {key}", row[key], f"{value:.6f}",
                                 abs(value - row[key]) > CALIBRATION_TOL[key] + 1e-12)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
