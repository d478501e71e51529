"""Monte-Carlo reward estimation and policy-gradient training against a
black-box registration environment.

The estimator is the SeqGAN-style likelihood-ratio form.  Step t of an
episode weights log pi(a_t | s_t) by an estimate Q(s_t, a_t) of the finished
name's registration reward for the action taken: before the last step, ``m``
Monte-Carlo rollouts of the same policy complete the prefix plus a_t and
their feedback is averaged; at the last step the name's own feedback is the
value.  The rollouts of a step resume every episode from the cached policy
state in one batched generation pass.

Registration order is canonical and single-threaded: each epoch registers
all of its names in one call, step-major, then episode, then rollout; the
last step registers each finished name once, and its value there is the
epoch's terminal reward.  All sampling draws come from counter-based
streams keyed on (master seed, epoch, slot, ...), so a run is a pure
function of (seed, config, corpora).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from . import policy as P, recurrent
from .dnsenv import FeedbackEnv, Registry
from .domains import (DEFAULT_TOKENS, CheckedNames, SeedSpace, TokenDict,
                      check_tld, encode_seed)
from .errors import ContractError, NumericError, QueryBudgetError
from .rng import uniforms


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1.0
    batch: int = 32
    mc: int = 4
    length: int = 10
    epochs: int = 300
    tld: str = "com"
    n_layers: int = 1
    d_e: int = 32
    d_h: int = 64

    def __post_init__(self):
        if not self.lr > 0:
            raise ContractError("lr must be positive")
        if self.batch < 1 or self.mc < 1 or self.epochs < 1:
            raise ContractError("batch, mc and epochs must be >= 1")
        if not 7 <= self.length <= 24:
            raise ContractError("episode length must lie in [7, 24]")
        if min(self.n_layers, self.d_e, self.d_h) < 1:
            raise ContractError("n_layers, d_e and d_h must be >= 1")


@dataclass
class TrainResult:
    params: P.PolicyParams
    best_params: P.PolicyParams
    curve: list[float]
    best_epoch: int
    queries_used: int
    stopped: str = "epochs"                # epochs | budget | numeric

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

def campaign(detector, registry, cfg: TrainConfig, budget: int,
             master_seed, space=None, params=None, audit=None,
             registered=None) -> TrainResult:
    """``train`` against a fresh ``FeedbackEnv`` over ``detector`` and the
    ``Registry`` ``registry``, shared in place; an audit log starts afresh."""
    if audit:
        Path(audit).unlink(missing_ok=True)
    env = FeedbackEnv(detector, registry, budget=budget, audit_path=audit)
    return train(env, cfg, master_seed, space=space, params=params,
                 registered=registered)


def train(env, cfg: TrainConfig, master_seed: int,
          dct: TokenDict = DEFAULT_TOKENS,
          space: SeedSpace | None = None,
          params: P.PolicyParams | None = None,
          registered: list[str] | None = None) -> TrainResult:
    """Feedback-only policy-gradient training against ``env``, which offers
    ``register_many``, ``query_count`` and ``budget``.

    Returns the final and best-reward parameters plus the per-epoch mean
    terminal reward curve.  A numeric abort or an exhausted query budget
    stops the loop and leaves the last good checkpoint in place.  Accepted
    names are kept only when a ``registered`` list is given to append them
    to.
    """
    check_tld(cfg.tld, cfg.length)
    space = space or SeedSpace()
    if params is None:
        params = P.init_params(cfg.n_layers, cfg.d_e, cfg.d_h, dct.n,
                               rng_seed=master_seed)
    curve: list[float] = []
    best_epoch = 0
    best_params = params
    stopped = "epochs"

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
    return TrainResult(params, best_params, curve, best_epoch,
                       env.query_count, stopped)


def _epoch_run(params, cfg, dct, space, master_seed, epoch):
    """The epoch's B date seeds and their sampled episodes, with the caches
    the reward estimates resume from and the gradient reads."""
    T, B = cfg.length, cfg.batch
    dates = [space.date_at(epoch * B + i) for i in range(B)]
    seed_vecs = np.stack([encode_seed(d, dct)[0] for d in dates])
    run = P.run_batch(params, dct, T, seed_vecs=seed_vecs, want_cache=True,
                      uniforms=uniforms(T, [("episode", master_seed, epoch, i)
                                            for i in range(B)]))
    return seed_vecs, run


def _epoch_values(env, params, cfg, dct, master_seed, epoch, run,
                  registered=None):
    """Values Q(s_t, a_t) of one epoch's taken tokens, shape (T, B).

    Before the last step, m rollouts complete each episode's prefix plus
    a_t in one generation pass: they resume from the state step t + 1 of
    ``run`` started from and use the ``mc-train`` uniforms of (i, j, t).
    The last step values each finished name by its own feedback.  The names
    of every step are built first and registered in one call, step-major,
    then episode, then rollout; accepted ones are appended to
    ``registered``.  When the rest of the query budget cannot take them all,
    the longest run of whole steps that fits is registered, and then
    ``QueryBudgetError`` is raised.
    """
    T, B, m = cfg.length, cfg.batch, cfg.mc
    mc_u = uniforms((m, T, T), [("mc-train", master_seed, epoch, i)
                                for i in range(B)])
    names = []
    for t in range(T - 1):
        heads = np.repeat(run.tokens[:, :t + 1], m, axis=0)
        init = [(np.repeat(h, m, axis=0), np.repeat(c, m, axis=0))
                for h, c in recurrent.cache_state(run.caches[t + 1])]
        ro = P.run_batch(params, dct, T, init_hidden=init,
                         first_tokens=heads[:, -1], start_pos=t + 1,
                         uniforms=mc_u[:, :, t, :T - t - 1].reshape(B * m, -1))
        names.append(dct.fqdns(np.concatenate([heads, ro.tokens], axis=1),
                               cfg.tld))
    names.append(dct.fqdns(run.tokens, cfg.tld))
    ends = np.cumsum([len(step) for step in names])
    fit = int(np.searchsorted(ends, env.budget - env.query_count, "right"))
    # label tokens with no edge hyphen (run_batch masks it); a checked TLD
    batch = CheckedNames(name for step in names[:fit] for name in step)
    outcome = env.register_many(batch).outcome if batch else []
    if registered is not None:
        registered.extend(compress(batch, outcome))
    if fit < T:
        raise QueryBudgetError(f"budget {env.budget} exhausted at "
                               f"{env.query_count} queries")
    return np.stack([step.reshape(B, -1).mean(axis=1)
                     for step in np.split(outcome, ends[:-1])])


# ---------------------------------------------------------------------------
# inference-side generation

def candidate_list(params: P.PolicyParams, date: _dt.date, k: int,
                   T: int = 12, dct: TokenDict = DEFAULT_TOKENS,
                   tld: str = "com") -> list[str]:
    """k deterministic candidates for one date; identical on both sides.

    Candidate 0 is the argmax name; the rest are sampled from streams keyed
    only on (date, index), so any party holding the same parameters and date
    derives the same list.
    """
    check_tld(tld, T)
    seed = encode_seed(date, dct)
    run = P.run_batch(params, dct, T, seed_vecs=seed[0][None, :])
    names = dct.fqdns(run.tokens, tld)
    if k > 1:
        names += _candidates(params, [seed], k - 1, T, dct, tld)
    return names


def _candidates(params, seeds, count, T, dct, tld) -> list[str]:
    """Candidates 1..count of each date, date-major, from the dates'
    ``encode_seed`` results: every uniform in one draw, one pass per date."""
    u = uniforms(T, [("candidate", day_seed, j) for _, day_seed in seeds
                     for j in range(1, count + 1)])
    names: list[str] = []
    for (seed_vec, _), rows in zip(seeds, np.split(u, len(seeds))):
        run = P.run_batch(params, dct, T, uniforms=rows,
                          seed_vecs=np.repeat(seed_vec[None, :], count, 0))
        names += dct.fqdns(run.tokens, tld)
    return names


# dates whose candidate uniforms are drawn together: about one Philox pass
_DRAW_WORDS = 4096
# the first date that pkdga generates from unless told otherwise
PKDGA_START_DATE = _dt.date(2030, 1, 1)


def generate_domains(params: P.PolicyParams, count: int,
                     start_date: _dt.date, T: int = 12,
                     dct: TokenDict = DEFAULT_TOKENS, tld: str = "com",
                     per_date: int = 50, mode: str = "sample") -> list[str]:
    """Bulk generation: per_date seeded-sample candidates per calendar day,
    candidates 1..per_date of each date's ``candidate_list``, whose
    uniforms are drawn for a chunk of dates at a time.

    argmax mode emits the single deterministic name per date instead.  Any
    other mode, or a per_date below 1, is a ``ContractError``.
    """
    check_tld(tld, T)
    if mode not in ("sample", "argmax"):
        raise ContractError(f"mode must be sample or argmax, not {mode!r}")
    if per_date < 1:
        raise ContractError("per_date must be >= 1")
    per = 1 if mode == "argmax" else per_date
    dates = [start_date + _dt.timedelta(days=day)
             for day in range(-(-count // per))]
    if mode == "argmax":
        return [candidate_list(params, date, 1, T, dct, tld)[0]
                for date in dates]
    out: list[str] = []
    chunk = max(1, _DRAW_WORDS // (per_date * T))
    for lo in range(0, len(dates), chunk):
        out += _candidates(params, [encode_seed(date, dct)
                                    for date in dates[lo:lo + chunk]],
                           per_date, T, dct, tld)
    return out[:count]
