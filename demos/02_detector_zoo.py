"""Train the whole detector zoo on one corpus and compare detection AUCs.

Benign names come from the bundled popular-domain stand-in; AGDs from the
kraken family.  Every detector exposes the same score interface: P(benign)
in [0, 1], threshold 0.5.
"""

import time

from dgalab import (LabeledCorpus, bundled_benign, detection_auc,
                    kraken_generate, split_dataset, train_detector)
from dgalab.detectors import KINDS

benign = bundled_benign(1500)
agds = [core + ".com" for core in kraken_generate(5, 1500)]
corpus = LabeledCorpus(tuple(benign), tuple(agds))
train_part, test_part = split_dataset(corpus, 0.8, rng_seed=0)
print(f"corpus: {len(train_part.benign)}+{len(train_part.agd)} train, "
      f"{len(test_part.benign)}+{len(test_part.agd)} held out")

print(f"\n{'kind':12s}{'train s':>8s}{'AUC':>8s}{'1-AUC':>8s}")
for kind in KINDS:
    t0 = time.time()
    model = train_detector(kind, train_part, rng_seed=1)
    took = time.time() - t0
    roc = detection_auc(model, test_part.benign, test_part.agd)
    print(f"{kind:12s}{took:8.2f}{roc.auc:8.3f}{1 - roc.auc:8.3f}")

model = train_detector("neural", train_part, rng_seed=1)
probe = [test_part.benign[0], test_part.agd[0]]
print("\nexample scores (P(benign)):")
for name, score in zip(probe, model.score_many(probe)):
    verdict = "legitimate" if score >= model.threshold else "flagged"
    print(f"  {name:28s} {score:.3f} -> {verdict}")
