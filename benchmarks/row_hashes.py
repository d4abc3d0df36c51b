#!/usr/bin/env python
"""Print a sha256 of every registered preset's rows, as one JSON object.

Keys are ``<experiment>/<preset>/<seed>`` and values the sha256 of
``repr(result.rows)``.  It covers every experiment's ``ci`` preset and the
``sparse`` presets, at seeds 0, 1 and 9001 (experiments without a seed run
at 0 only).  Two trees that print identical output drew identical numbers,
so a change that claims bit-identity diffs this output against its parent
commit.  Run it through ``make row-hashes``, which pins
``OPENBLAS_NUM_THREADS=1`` (the float32 tiers differ in the last bits across
BLAS thread counts); a full run takes about five minutes on a 2-core host.
Takes no flags.
"""

import hashlib
import json

from repro.api import list_experiments, run_experiment

SEEDS = (0, 1, 9001)
PRESETS = ("ci", "sparse")


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
    print(json.dumps(hashes, indent=2))


if __name__ == "__main__":
    main()
