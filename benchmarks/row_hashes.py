#!/usr/bin/env python
"""Print a sha256 of every registered preset's rows, as one JSON object.

Keys are ``<experiment>/<preset>/<seed>`` and values the sha256 of
``repr(result.rows)``.  It covers every experiment's ``ci`` preset and the
``sparse`` presets, at seeds 0, 1 and 9001 (experiments without a seed run
at 0 only).  Two trees that print identical output drew identical numbers,
so a change that claims bit-identity diffs this output against its parent
commit.  Keys ``bgf/<dtype>/<corner>/<columns>`` hash a seeded BGF
machine's weights, biases and particles after a 100-sample ``run``, for each
precision tier, the four noise corners (ideal, variation only, noise only,
both) and binary or grayscale columns, with weights and biases spread across
the rails: the bitwise gate then covers the BGF's learning stream itself,
not only the accuracy rows it feeds.  Run it through ``make row-hashes``,
which pins ``OPENBLAS_NUM_THREADS=1`` (the float32 tiers differ in the last
bits across BLAS thread counts); a full run takes about five minutes on a
2-core host.
Takes no flags.
"""

import hashlib
import json

import numpy as np

from repro.api import list_experiments, run_experiment
from repro.config import ComputeSpec, NoiseSpec, TrainerSpec
from repro.core import BoltzmannGradientFollower

SEEDS = (0, 1, 9001)
PRESETS = ("ci", "sparse")
BGF_CORNERS = {
    "ideal": NoiseSpec(),
    "variation": NoiseSpec(0.1, 0.0),
    "noise": NoiseSpec(0.0, 0.1),
    "noisy": NoiseSpec(0.1, 0.1),
}


def bgf_hashes() -> dict:
    """sha256 of a seeded 49x32 BGF's parameters and particles after a
    100-sample run, per tier x noise corner x column type."""
    rng = np.random.default_rng(0)
    binary = (rng.random((100, 49)) < 0.3).astype(float)
    grayscale = binary * rng.uniform(0.2, 1.0, binary.shape)
    start = [rng.uniform(-4.0, 4.0, shape) for shape in ((49, 32), 49, 32)]
    hashes = {}
    for dtype in ("float64", "float32"):
        for corner, noise in BGF_CORNERS.items():
            for columns, data in (("binary", binary), ("grayscale", grayscale)):
                spec = TrainerSpec.bgf(
                    0.05,
                    reference_batch_size=1,
                    particles=4,
                    noise=noise,
                    compute=ComputeSpec(dtype=dtype),
                )
                machine = BoltzmannGradientFollower(spec, 49, 32, rng=3)
                machine.initialize(*start)
                machine.run(data)
                digest = hashlib.sha256()
                for array in (*machine.substrate.read_parameters(), machine.particles):
                    digest.update(np.ascontiguousarray(array).tobytes())
                hashes[f"bgf/{dtype}/{corner}/{columns}"] = digest.hexdigest()
    return hashes


def main() -> None:
    hashes = {}
    for experiment in list_experiments():
        seeds = SEEDS if "seed" in experiment.accepts else (0,)
        for preset in PRESETS:
            if preset not in experiment.presets:
                continue
            for seed in seeds:
                spec = experiment.preset(preset).replace(seed=seed)
                rows = run_experiment(spec).rows
                key = f"{experiment.name}/{preset}/{seed}"
                hashes[key] = hashlib.sha256(repr(rows).encode()).hexdigest()
    hashes.update(bgf_hashes())
    print(json.dumps(hashes, indent=2))


if __name__ == "__main__":
    main()
