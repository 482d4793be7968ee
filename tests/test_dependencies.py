"""The package runs on numpy alone: scipy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

import sparsescan

# A child process that cannot import any scipy module runs each entry point
# on small grids; a scipy import anywhere in the package fails it.
_SCRIPT = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

import numpy as np

from sparsescan import (
    IdwParams,
    MeasurementSet,
    RunConfig,
    SimulatedSource,
    TrainingSchedule,
    extract_features,
    nearest_measured,
    reconstruct,
    run_sampling,
    select_next,
    train_erd_model,
)
from sparsescan.synth import blob_image

params = IdwParams(neighbors=10, power=2.0, window=7)
image = blob_image(24, seed=3)
schedule = TrainingSchedule(densities=(0.1, 0.3), samples_per_level=20, rd_window=7, seed=1)
model, _, _ = train_erd_model([image], schedule, params, kind="lsq")
mset = MeasurementSet(width=24, height=24)
for lin in np.random.default_rng(0).choice(24 * 24, 30, replace=False):
    r, c = divmod(int(lin), 24)
    mset.add((r, c), float(image.values[r, c]))
recon = reconstruct(mset, params)
loc, _ = select_next(model, recon, mset)
extract_features(recon, mset, loc, params)
nearest_measured(mset, (0, 0), 5)
config = RunConfig(initial_density=0.05, budget_density=0.08, checkpoint_densities=(0.08,))
run_sampling(SimulatedSource(image), model, config)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_entry_points_run_with_scipy_blocked():
    src = str(Path(sparsescan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]
