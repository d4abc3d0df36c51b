"""The eval estimators with a CD-1 trainer, for suites that fit them.

``RBMRecommender`` and ``RBMAnomalyDetector`` take their trainer
explicitly.  These builders give them CD-1 at learning rate 0.05 (batch 10
for the recommender, 20 for the detector), drawing from the estimator's
own generator, so a suite that only needs *a* fitted model stays short.
"""

from repro.config import TrainerSpec
from repro.eval import RBMAnomalyDetector, RBMRecommender
from repro.rbm import CDTrainer
from repro.utils.rng import as_rng


def cd1_recommender(*, rng, **kwargs) -> RBMRecommender:
    rng = as_rng(rng)
    trainer = CDTrainer(spec=TrainerSpec.cd(0.05, cd_k=1, batch_size=10), rng=rng)
    return RBMRecommender(trainer=trainer, rng=rng, **kwargs)


def cd1_detector(*, rng, **kwargs) -> RBMAnomalyDetector:
    rng = as_rng(rng)
    trainer = CDTrainer(spec=TrainerSpec.cd(0.05, cd_k=1, batch_size=20), rng=rng)
    return RBMAnomalyDetector(trainer=trainer, rng=rng, **kwargs)
