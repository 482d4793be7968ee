"""Make the fixed model inputs of the benchmark's sampling workloads.

All three models are fitted to one training database: the `pretrain`
schedule (six densities x 500 candidates, seed 0) on `generic_texture(128)`,
with the default reconstruction parameters. That matches what
`sparsescan pretrain --regressor KIND` writes. The files are committed, so
two commits under comparison sample with the same models even when the
training code between them differs.

    PYTHONPATH=src python3 perfbench/make_models.py [--out perfbench/models]
"""

import argparse
import hashlib
import os

from sparsescan import IdwParams, TrainingSchedule, save_model, train_erd_model
from sparsescan.synth import generic_texture

KINDS = ("nn", "lsq", "svr")


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(here, "models"))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    image = generic_texture(128)
    extra = {"image_sha256": [hashlib.sha256(image.values.tobytes()).hexdigest()]}
    for kind in KINDS:
        model, db, diag = train_erd_model(
            [image], TrainingSchedule(seed=0), IdwParams(), kind=kind, seed=0,
            pretrained=True, extra=extra, image_ids=["generic"],
        )
        path = os.path.join(args.out, f"{kind}.slnm")
        save_model(model, path)
        print(f"{path}: rows={db.n} " + " ".join(f"{k}={v}" for k, v in sorted(diag.items())))


if __name__ == "__main__":
    main()
