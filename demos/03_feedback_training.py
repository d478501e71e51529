"""Feedback-only adversarial training, end to end.

The generator sees nothing but a binary register-success signal
(detector verdict times novelty), yet learns to slip past a detector that
scores 0.99 AUC against its training family.  Watch the per-epoch mean
reward climb and the detector's AUC on fresh generated names collapse.
"""

import datetime as dt
import time

from dgalab import (LabeledCorpus, TrainConfig, bundled_benign, campaign,
                    detection_auc, generate_domains, kraken_generate,
                    split_dataset, train_detector)
from dgalab.dnsenv import Registry

benign = bundled_benign(2500)
agds = [core + ".com" for core in kraken_generate(9, 2500)]
train_part, test_part = split_dataset(
    LabeledCorpus(tuple(benign), tuple(agds)), 0.8, rng_seed=1)

detector = train_detector("neural", train_part, rng_seed=2)
base = detection_auc(detector, test_part.benign, test_part.agd).auc
print(f"detector AUC vs its training family (kraken): {base:.3f}")

budget = 200_000
cfg = TrainConfig(lr=1.0, batch=32, mc=3, length=10, epochs=120)
print(f"\ntraining: {cfg.epochs} epochs, batch {cfg.batch}, "
      f"{cfg.mc} rollouts/step, budget {budget} register calls")
t0 = time.time()
# campaign builds the black-box registration env over the detector and a
# registry seeded with the benign names, and trains against that env alone
result = campaign(detector, Registry(train_part.benign), cfg, budget,
                  master_seed=7)
for e in range(0, len(result.curve), 20):
    print(f"  epoch {e:3d} mean reward {result.curve[e]:.3f}")
print(f"done in {time.time() - t0:.0f}s, {result.queries_used} register calls")
print(f"reward: first epoch {result.curve[0]:.3f} -> best "
      f"{result.best_reward:.3f} (epoch {result.best_epoch})")

fresh = generate_domains(result.best_params, 400, dt.date(2031, 1, 1), T=10)
evaded = detection_auc(detector, test_part.benign[:400], fresh).auc
print(f"\nfresh adversarial names: {fresh[:4]}")
print(f"detector AUC on them: {evaded:.3f} (was {base:.3f} on kraken)")
print(f"anti-detection ability: {1 - evaded:.3f}")
