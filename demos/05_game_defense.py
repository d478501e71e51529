"""Game-based defense: incremental learning versus an adapting generator.

Each stage the generator retrains against the current detector, then the
detector incrementally learns the adversarial names that got through.  The
detector side recovers stage after stage; the generator must find genuinely
new holes every time.
"""

from dgalab import (GameConfig, LabeledCorpus, TrainConfig, bundled_benign,
                    game_loop, kraken_generate, split_dataset, train_detector)

benign = bundled_benign(2500)
agds = [core + ".com" for core in kraken_generate(13, 2500)]
train_part, test_part = split_dataset(
    LabeledCorpus(tuple(benign), tuple(agds)), 0.8, rng_seed=4)

detector = train_detector("neural", train_part,
                          hp={"epochs": 5, "bidirectional": True}, rng_seed=3)

cfg = GameConfig(
    train_cfg=TrainConfig(lr=1.0, batch=16, mc=3, length=10, epochs=60),
    stage_budget=40_000, fresh_samples=200, incr_epochs=8, incr_lr=0.3)

print("stage  detector AUC   generator reward   adversarial names learned")
for r in game_loop(detector, list(train_part.benign),
                   list(test_part.benign), stages=2, cfg=cfg, master_seed=5):
    reward = "      -" if r.reward is None else f"{r.reward:7.3f}"
    print(f"{r.stage:5d}  {r.detector_auc:12.3f}   {reward:>16s}   {r.agds_used:9d}")

print("\nAUC is measured on FRESH names from that stage's generator,")
print("after the detector's incremental update — recovery means the")
print("defense generalized beyond the exact names it trained on.")
