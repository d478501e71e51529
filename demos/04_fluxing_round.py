"""Seed-synchronized fluxing: both sides derive the same candidate list.

The registrar side walks the list until a name registers; the bot side,
holding only the same parameters and the same date, replays the list and
resolves until it gets an address.  No channel between them except the
shared seed.
"""

import datetime as dt

from dgalab import FeedbackEnv, bundled_benign, init_params, train_detector
from dgalab import LabeledCorpus, kraken_generate
from dgalab.dnsenv import Registry, fluxing_round
from dgalab.training import candidate_list

benign = bundled_benign(800)
corpus = LabeledCorpus(tuple(benign),
                       tuple(core + ".com" for core in kraken_generate(3, 800)))
detector = train_detector("neural", corpus, hp={"epochs": 3}, rng_seed=0)

params = init_params(1, 32, 64, 37, rng_seed=11)
date = dt.date(2030, 6, 15)

cc_side = candidate_list(params, date, k=25, T=10)
bot_side = candidate_list(params, date, k=25, T=10)
assert cc_side == bot_side
print(f"both sides derive {len(cc_side)} identical candidates for {date}")
print("first three:", cc_side[:3])

env = FeedbackEnv(detector, Registry(benign))
registered, attempts = fluxing_round(env, cc_side)
print(f"\nregistrar succeeded with: {registered}")
print(f"bot resolved it on attempt {attempts} of {len(cc_side)}")
print(f"resolved address: {env.resolve(registered)}")

second = env.register(registered)
print(f"\nre-registering the same name: outcome {second.outcome} "
      f"(novelty factor {second.n_factor}) — names burn once")
