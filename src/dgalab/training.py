"""Monte-Carlo reward estimation and policy-gradient training against a
black-box registration environment.

The estimator is the SeqGAN-style likelihood-ratio form.  Step t of an
episode weights log pi(a_t | s_t) by an estimate Q(s_t, a_t) of the finished
name's registration reward for the action taken: before the last step, ``m``
Monte-Carlo rollouts of the same policy complete the prefix plus a_t and
their feedback is averaged; at the last step the name's own feedback is the
value.  ``action_values`` resumes every episode of a step from the cached
policy state in one batched generation pass.

Registration order is canonical and single-threaded: for each epoch, names
are registered step-major, then episode, then rollout; the last step
registers each finished name once, and its value there is the epoch's
terminal reward.  All sampling draws come from counter-based streams keyed
on (master seed, epoch, slot, ...), so a run is a pure function of (seed,
config, corpora).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

import numpy as np

from . import policy as P, recurrent
from .domains import (DEFAULT_TOKENS, SeedSpace, TokenDict, check_tld,
                      encode_seed)
from .errors import ContractError, NumericError, QueryBudgetError
from .rng import stream


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1.0
    batch: int = 32
    mc: int = 4
    length: int = 12
    epochs: int = 300
    tld: str = "com"
    n_layers: int = 1
    d_e: int = 32
    d_h: int = 64

    def __post_init__(self):
        if self.lr <= 0:
            raise ContractError("lr must be positive")
        if self.batch < 1 or self.mc < 1 or self.epochs < 1:
            raise ContractError("batch, mc and epochs must be >= 1")
        if not 7 <= self.length <= 24:
            raise ContractError("episode length must lie in [7, 24]")


@dataclass
class TrainResult:
    params: P.PolicyParams
    best_params: P.PolicyParams
    curve: list[float]
    best_epoch: int
    queries_used: int
    stopped: str = "epochs"                # epochs | budget | numeric
    registered: list[str] = field(default_factory=list)

    @property
    def best_reward(self) -> float:
        return self.curve[self.best_epoch] if self.curve else 0.0


# ---------------------------------------------------------------------------
# policy-gradient updates

def _update_from_batch(params, seed_vecs, run, coeffs, lr):
    grads = P.grad_from_coeffs(params, seed_vecs, run, coeffs)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    new = P.apply_grads(params, grads, lr)
    P.check_finite(new)
    return new


# ---------------------------------------------------------------------------
# the training loop

def train(env, cfg: TrainConfig, master_seed: int,
          dct: TokenDict = DEFAULT_TOKENS,
          space: SeedSpace | None = None,
          params: P.PolicyParams | None = None,
          on_epoch=None) -> TrainResult:
    """Feedback-only policy-gradient training.

    Returns the final and best-reward parameters plus the per-epoch mean
    terminal reward curve.  A numeric abort or an exhausted query budget
    stops the loop and leaves the last good checkpoint in place.
    """
    check_tld(cfg.tld, cfg.length)
    space = space or SeedSpace()
    if params is None:
        params = P.init_params(cfg.n_layers, cfg.d_e, cfg.d_h, dct.n,
                               rng_seed=master_seed, dct=dct)
    curve: list[float] = []
    best_epoch = 0
    best_params = params
    stopped = "epochs"
    registered: list[str] = []

    for epoch in range(cfg.epochs):
        seed_vecs, run = _epoch_run(params, cfg, dct, space, master_seed,
                                    epoch)
        try:
            taken = _epoch_values(env, params, cfg, dct, master_seed, epoch,
                                  run, registered)
        except QueryBudgetError:
            stopped = "budget"
            break
        curve.append(float(taken[-1].mean()))
        if curve[-1] > curve[best_epoch] or epoch == 0:
            best_epoch = epoch
            best_params = params
        try:
            params = _update_from_batch(params, seed_vecs, run,
                                        taken / cfg.batch, cfg.lr)
        except NumericError:
            stopped = "numeric"
            params = best_params
            break
        if on_epoch:
            on_epoch(epoch, curve[-1])
    queries = getattr(env, "query_count", 0)
    return TrainResult(params, best_params, curve, best_epoch, queries,
                       stopped, registered)


def _epoch_run(params, cfg, dct, space, master_seed, epoch):
    """The epoch's B date seeds and their sampled episodes, with the caches
    the reward estimates resume from and the gradient reads."""
    T, B = cfg.length, cfg.batch
    dates = [space.date_at(epoch * B + i) for i in range(B)]
    seed_vecs = np.stack([encode_seed(d, dct, space)[0] for d in dates])
    uniforms = np.stack([stream("episode", master_seed, epoch, i).random(T)
                         for i in range(B)])
    run = P.run_batch(params, dct, T, seed_vecs=seed_vecs, uniforms=uniforms,
                      want_cache=True)
    return seed_vecs, run


def _epoch_values(env, params, cfg, dct, master_seed, epoch, run,
                  registered=None):
    """Values Q(s_t, a_t) of one epoch's taken tokens, shape (T, B); step t's
    rollouts resume from the state step t + 1 of ``run`` started from."""
    T, B = cfg.length, cfg.batch
    mc_u = np.stack([stream("mc-train", master_seed, epoch, i)
                     .random((cfg.mc, T, T)) for i in range(B)])
    taken = np.empty((T, B))
    for t in range(T):
        hidden = None if t == T - 1 else \
            recurrent.cache_state(run.caches[t + 1])
        taken[t] = action_values(env, params, cfg, dct, run.tokens[:, :t],
                                 hidden, run.tokens[:, t], mc_u, registered)
    return taken


def action_values(env, params: P.PolicyParams, cfg: TrainConfig,
                  dct: TokenDict, prefix: np.ndarray, hidden,
                  actions: np.ndarray, mc_u: np.ndarray,
                  registered: list | None = None) -> np.ndarray:
    """Estimated reward Q(s_t, a) of one action per episode, shape (B,).

    ``prefix`` (B, t) holds the tokens emitted before step t and ``hidden``
    the per-layer ``(h, c)`` state that produced step t's distribution
    (unused at the last step); ``actions`` (B,) are the actions valued and
    ``mc_u`` (B, m, T, T) the epoch's rollout uniforms.  Before the last
    step, m rollouts complete each [prefix, a] in one generation pass, using
    the uniforms of (i, j, t).  At the last step each name is registered
    once.  Names are registered episode-major, then rollout; accepted ones
    are appended to ``registered``.
    """
    B, t = prefix.shape
    T, m = cfg.length, cfg.mc
    heads = np.concatenate([prefix, actions.reshape(-1, 1)], axis=1)
    if t < T - 1:
        suffix = T - t - 1
        heads = np.repeat(heads, m, axis=0)
        u = mc_u[:, :, t, :suffix].reshape(-1, suffix)
        init = [(np.repeat(h, m, axis=0), np.repeat(c, m, axis=0))
                for h, c in hidden]
        ro = P.run_batch(params, dct, T, init_hidden=init,
                         first_tokens=heads[:, -1], start_pos=t + 1,
                         uniforms=u)
        heads = np.concatenate([heads, ro.tokens], axis=1)
    names = dct.fqdns(heads, cfg.tld)
    feedback = env.register_many(names)
    if registered is not None:
        registered.extend(nm for nm, fb in zip(names, feedback)
                          if fb.outcome == 1)
    vals = np.array([fb.outcome for fb in feedback], dtype=np.float64)
    return vals.reshape(B, -1).mean(axis=1)


# ---------------------------------------------------------------------------
# inference-side generation

def candidate_list(params: P.PolicyParams, date: _dt.date, k: int,
                   T: int = 12, dct: TokenDict = DEFAULT_TOKENS,
                   tld: str = "com",
                   space: SeedSpace | None = None) -> list[str]:
    """k deterministic candidates for one date; identical on both sides.

    Candidate 0 is the argmax name; the rest are sampled from streams keyed
    only on (date, index), so any party holding the same parameters and date
    derives the same list.
    """
    check_tld(tld, T)
    seed_vec, _ = encode_seed(date, dct, space)
    run = P.run_batch(params, dct, T, seed_vecs=seed_vec[None, :])
    return dct.fqdns(run.tokens, tld) + _sampled_candidates(
        params, date, k - 1, T, dct, tld, space)


def _sampled_candidates(params, date, count, T, dct, tld, space):
    """Candidates 1..count of ``candidate_list``, without the argmax pass."""
    if count < 1:
        return []
    seed_vec, day_seed = encode_seed(date, dct, space)
    uniforms = np.stack([stream("candidate", day_seed, j).random(T)
                         for j in range(1, count + 1)])
    run = P.run_batch(params, dct, T, uniforms=uniforms,
                      seed_vecs=np.repeat(seed_vec[None, :], count, axis=0))
    return dct.fqdns(run.tokens, tld)


def generate_domains(params: P.PolicyParams, count: int,
                     start_date: _dt.date, T: int = 12,
                     dct: TokenDict = DEFAULT_TOKENS, tld: str = "com",
                     per_date: int = 50, mode: str = "sample",
                     space: SeedSpace | None = None) -> list[str]:
    """Bulk generation: per_date seeded-sample candidates per calendar day.

    argmax mode emits the single deterministic name per date instead.
    """
    check_tld(tld, T)
    space = space or SeedSpace()
    out: list[str] = []
    day = 0
    while len(out) < count:
        date = start_date + _dt.timedelta(days=day)
        if mode == "argmax":
            got = candidate_list(params, date, 1, T, dct, tld, space)
        else:
            got = _sampled_candidates(params, date, per_date, T, dct, tld,
                                      space)
        out.extend(got[:count - len(out)])
        day += 1
    return out
