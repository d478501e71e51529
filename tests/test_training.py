import datetime as dt

import numpy as np
import pytest

from dgalab import policy, recurrent
from dgalab.dnsenv import FeedbackEnv
from dgalab.domains import DEFAULT_TOKENS, SeedSpace, TokenDict, encode_seed
from dgalab.rng import stream
from dgalab.errors import AssemblyError, ContractError
from dgalab.training import (TrainConfig, _epoch_values, _epoch_run,
                             _update_from_batch, action_values,
                             candidate_list, generate_domains, train)
import scalar_oracles as oracle
from conftest import FixedScoreDetector, StubEnv, cast

AB = TokenDict("ab")
EPOCH_DATE = dt.date(2024, 3, 1)


def tiny_params(n, seed=3, d_e=6, d_h=8, layers=1, dtype=np.float32):
    p = policy.init_params(layers, d_e, d_h, n, rng_seed=seed)
    return cast(p, dtype) if dtype is not np.float32 else p


def zero_params(n, d_e=4, d_h=6):
    p = policy.init_params(1, d_e, d_h, n, rng_seed=0)
    return policy.params_from_tensors(
        {k: np.zeros_like(v) for k, v in p.tensors().items()}, 1)


def sample_episodes(p, T, master_seeds, dct=AB):
    """One episode per master seed from EPOCH_DATE's seed vector."""
    seed_vec, day = encode_seed(EPOCH_DATE, dct)
    uniforms = np.stack([stream("episode", s, day).random(T)
                         for s in master_seeds])
    seeds = np.repeat(seed_vec[None, :], len(master_seeds), axis=0)
    return policy.run_batch(p, dct, T, seed_vecs=seeds, uniforms=uniforms,
                            want_cache=True)


def state_after(p, seed_vec, prefix):
    """The policy state that yields the distribution of step len(prefix)."""
    xs = np.concatenate([policy.embed_seed(p, seed_vec[None, :]),
                         policy.embed_tokens(p, np.asarray(prefix, np.int64))])
    _, hidden, _ = recurrent.stack_forward(p.w_x, p.w_h, p.b, xs[:, None, :])
    return hidden


def values(env, p, cfg, prefix, action, seed_vec=np.eye(2)[0],
           master_seed=0):
    """Q(s_t, a) for one episode with the given prefix and action."""
    mc_u = stream("mc-train", master_seed).random(
        (1, cfg.mc, cfg.length, cfg.length))
    return action_values(env, p, cfg, AB,
                         np.asarray([prefix], np.int64).reshape(1, -1),
                         state_after(p, seed_vec, prefix),
                         np.array([action]), mc_u)[0]


class RecordingEnv(StubEnv):
    """StubEnv that keeps every batch of registered names."""

    def __init__(self, rule):
        super().__init__(rule)
        self.calls = []

    def register_many(self, fqdns):
        self.calls.append(list(fqdns))
        return super().register_many(fqdns)


class TestGenerateEpisode:
    def test_single_token_episode(self):
        p = tiny_params(2)
        seed_vec, _ = encode_seed(EPOCH_DATE, AB)
        run = policy.run_batch(p, AB, 1, seed_vecs=seed_vec[None, :],
                               want_cache=True)
        assert run.tokens.shape == (1, 1)
        assert len(run.caches) == 1
        assert AB.detokenize(run.tokens[0]) in ("a", "b")

    def test_zero_weights_argmax_repeats_token_zero(self):
        p = zero_params(AB.n)
        seed_vec, _ = encode_seed(EPOCH_DATE, AB)
        run = policy.run_batch(p, AB, 8, seed_vecs=seed_vec[None, :],
                               want_cache=True)
        assert AB.detokenize(run.tokens[0]) == "a" * 8
        assert np.allclose(run.dists, 0.5)

    def test_sample_mode_deterministic(self):
        p = tiny_params(2)
        a = sample_episodes(p, 8, [5])
        b = sample_episodes(p, 8, [5])
        assert np.array_equal(a.tokens, b.tokens)
        c = sample_episodes(p, 8, [6])
        assert not np.array_equal(a.tokens, c.tokens) or True  # may agree

    def test_no_edge_hyphen_in_default_dict(self):
        p = zero_params(DEFAULT_TOKENS.n)
        # with uniform distributions sampling hits hyphen often; edges never
        run = sample_episodes(p, 7, range(30), dct=DEFAULT_TOKENS)
        for row in run.tokens:
            core = DEFAULT_TOKENS.detokenize(row)
            assert core[0] != "-" and core[-1] != "-"


class TestMcRollouts:
    def test_full_prefix_registers_name_once(self):
        env = RecordingEnv(lambda f: True)
        p = tiny_params(2)
        cfg = TrainConfig(length=7, mc=4, lr=1.0)
        q = values(env, p, cfg, (0, 1, 0, 1, 0, 1), 1)
        assert env.calls == [["abababb.com"]]
        assert q == 1.0

    def test_reproducible_streams(self):
        p = tiny_params(2, seed=9)
        cfg = TrainConfig(length=7, mc=3, lr=1.0)
        a, b = RecordingEnv(lambda f: True), RecordingEnv(lambda f: True)
        values(a, p, cfg, (1,), 0, np.eye(2)[1], master_seed=7)
        values(b, p, cfg, (1,), 0, np.eye(2)[1], master_seed=7)
        assert a.calls == b.calls

    def test_deterministic_policy_identical_rollouts(self):
        # scaling the output head makes every distribution one-hot, so all
        # rollouts must coincide despite independent sample streams
        p = tiny_params(2, seed=5)
        arrays = {k: np.array(v) for k, v in p.tensors().items()}
        arrays["w_out"] = arrays["w_out"] * 5000.0
        sharp = policy.params_from_tensors(arrays, 1)
        env = RecordingEnv(lambda f: True)
        cfg = TrainConfig(length=7, mc=5, lr=1.0)
        values(env, sharp, cfg, (0,), 0, master_seed=1)
        (names,) = env.calls
        assert len(names) == 5
        assert len(set(names)) == 1
        assert names[0].startswith("aa")

    def test_rollouts_share_prefix_and_action(self):
        p = tiny_params(2, seed=21)
        env = RecordingEnv(lambda f: True)
        cfg = TrainConfig(length=7, mc=6, lr=1.0)
        values(env, p, cfg, (1, 0), 1, master_seed=3)
        for core in (name.split(".")[0] for name in env.calls[0]):
            assert core.startswith("bab")
            assert len(core) == 7


class TestEstimateReward:
    def test_env_rewards_everything(self, stub_env_factory):
        env = stub_env_factory(lambda f: True)
        p = tiny_params(2)
        cfg = TrainConfig(length=7, mc=4, lr=1.0)
        assert values(env, p, cfg, (), 1) == 1.0

    def test_env_rewards_nothing(self, stub_env_factory):
        env = stub_env_factory(lambda f: False)
        p = tiny_params(2)
        cfg = TrainConfig(length=7, mc=4, lr=1.0)
        assert values(env, p, cfg, (), 0) == 0.0

    def test_first_token_rule_with_deterministic_policy(self, stub_env_factory):
        env = stub_env_factory(lambda f: f.startswith("a"))
        p = zero_params(AB.n)
        arrays = {k: np.array(v) for k, v in p.tensors().items()}
        arrays["w_out"][:, 0] = 50.0   # rollouts continue with 'a' forever
        det = policy.params_from_tensors(arrays, 1)
        cfg = TrainConfig(length=7, mc=3, lr=1.0)
        assert [values(env, det, cfg, (), a) for a in (0, 1)] == [1.0, 0.0]

    def test_terminal_equals_direct_env_reward(self, stub_env_factory):
        env = stub_env_factory(lambda f: f.split(".")[0].count("b") == 3)
        p = tiny_params(2)
        cfg = TrainConfig(length=7, mc=5, lr=1.0)
        got = [values(env, p, cfg, (1, 1, 0, 0, 0, 1), a) for a in (0, 1)]
        # exactly three b's in 'bbaaab' + 'a'
        assert got == [1.0, 0.0]

    def test_estimates_within_unit_interval(self, stub_env_factory):
        env = stub_env_factory(lambda f: hash(f) % 3 == 0)
        p = tiny_params(2, seed=17)
        cfg = TrainConfig(length=8, mc=6, lr=1.0)
        for t in range(7):
            got = values(env, p, cfg, tuple([0, 1] * 4)[:t], t % 2)
            assert 0.0 <= got <= 1.0

    def test_variance_shrinks_with_m(self, stub_env_factory):
        # paired seeds: m=20 averages the same first five streams and more
        p = tiny_params(2, seed=30)
        rule = lambda f: (sum(map(ord, f)) % 5) < 2
        lo, hi = [], []
        for trial in range(60):
            env = stub_env_factory(rule)
            cfg5 = TrainConfig(length=9, mc=5, lr=1.0)
            lo.append(values(env, p, cfg5, (0,), 1, master_seed=trial))
            cfg20 = TrainConfig(length=9, mc=20, lr=1.0)
            hi.append(values(env, p, cfg20, (0,), 1, master_seed=trial))
        assert np.var(hi) <= np.var(lo)


class TestPolicyGradientStep:
    """``_update_from_batch`` on sampled-mode coefficients (weight / B on
    each taken token)."""

    def _step(self, p, rewards, lr, copies=1, T=7, seed=0):
        run = sample_episodes(p, T, [seed] * copies)
        coeffs = np.repeat(np.asarray(rewards, dtype=np.float64)[:, None]
                           / copies, copies, axis=1)
        seeds = np.repeat(encode_seed(EPOCH_DATE, AB)[0][None, :], copies, 0)
        return _update_from_batch(p, seeds, run, coeffs, lr), run

    def test_zero_rewards_bitwise_unchanged(self):
        p = tiny_params(2)
        p2, _ = self._step(p, [0.0] * 7, lr=0.7)
        for a, b in zip(p.tensors().values(), p2.tensors().values()):
            assert np.array_equal(a, b)

    def test_update_matches_finite_difference(self):
        p = tiny_params(2, dtype=np.float64, d_e=4, d_h=5)
        rewards = [0.9, 0.1, 0.5, 0.0, 1.0, 0.3, 0.7]
        lr = 1e-3
        p2, run = self._step(p, rewards, lr)
        seed_vec = encode_seed(EPOCH_DATE, AB)[0]
        # finite-difference gradient of the weighted log-likelihood
        eps = 1e-6
        for name, tensor in p.tensors().items():
            flat = tensor.reshape(-1)
            updated = p2.tensors()[name].reshape(-1)
            probe = min(7, flat.size)
            for k in range(probe):
                orig = flat[k]
                flat[k] = orig + eps
                fp = oracle.weighted_logprob(p, AB, seed_vec, run.tokens[0],
                                             rewards)
                flat[k] = orig - eps
                fm = oracle.weighted_logprob(p, AB, seed_vec, run.tokens[0],
                                             rewards)
                flat[k] = orig
                fd = (fp - fm) / (2 * eps)
                assert updated[k] == pytest.approx(orig + lr * fd, abs=1e-6)

    def test_batch_averaging(self):
        p = tiny_params(2, dtype=np.float64)
        single, _ = self._step(p, [1.0] * 7, lr=0.1)
        doubled, _ = self._step(p, [1.0] * 7, lr=0.1, copies=2)
        for a, b in zip(single.tensors().values(), doubled.tensors().values()):
            assert np.allclose(a, b, atol=1e-12)


class TestTrain:
    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
    def test_non_positive_lr_rejected(self, lr):
        with pytest.raises(ContractError, match="^lr must be positive$"):
            TrainConfig(lr=lr)

    def test_ceiling_env_constant_curve(self, stub_env_factory):
        env = stub_env_factory(lambda f: True)
        cfg = TrainConfig(lr=0.5, batch=4, mc=2, length=7, epochs=5,
                          d_e=6, d_h=8)
        res = train(env, cfg, master_seed=0, dct=AB)
        assert res.curve == [1.0] * 5

    def test_closed_world_convergence(self, stub_env_factory):
        env = stub_env_factory(lambda f: f.split(".")[0] == "a" * 7)
        cfg = TrainConfig(lr=1.0, batch=8, mc=3, length=7, epochs=200,
                          d_e=8, d_h=12)
        res = train(env, cfg, master_seed=42, dct=AB)
        assert res.best_reward >= 0.95
        q = len(res.curve) // 4
        assert np.mean(res.curve[-q:]) > np.mean(res.curve[:q])

    def test_full_run_determinism(self, stub_env_factory):
        cfg = TrainConfig(lr=1.0, batch=4, mc=2, length=7, epochs=10,
                          d_e=6, d_h=8)
        rule = lambda f: f.split(".")[0].startswith("ab")
        r1 = train(stub_env_factory(rule), cfg, master_seed=9, dct=AB)
        r2 = train(stub_env_factory(rule), cfg, master_seed=9, dct=AB)
        assert r1.curve == r2.curve
        for a, b in zip(r1.params.tensors().values(),
                        r2.params.tensors().values()):
            assert np.array_equal(a, b)

    def test_enumerated_taken_value_equals_sampled_weight(self):
        # Q(s_t, a_t) for each taken token: the values of the engine on the
        # epoch's rollout streams, resumed from the state a teacher-forced
        # pass reaches after step t
        rule = lambda f: f.split(".")[0].count("a") >= 4
        cfg = TrainConfig(lr=1.0, batch=4, mc=3, length=7, epochs=2,
                          d_e=6, d_h=8)
        B, m, T = cfg.batch, cfg.mc, cfg.length
        # a sharp policy, so that the state the rollouts resume from shows
        # in the names they finish
        p = policy.params_from_tensors(
            {k: 20 * v for k, v in tiny_params(2, seed=8).tensors().items()}, 1)
        for epoch in range(cfg.epochs):
            seeds, run = _epoch_run(p, cfg, AB, SeedSpace(), 11, epoch)
            taken = _epoch_values(StubEnv(rule), p, cfg, AB, 11, epoch, run)
            mc_u = np.stack([stream("mc-train", 11, epoch, i).random((m, T, T))
                             for i in range(B)])
            for t in range(T):
                xs = np.concatenate([
                    policy.embed_seed(p, seeds)[None],
                    policy.embed_tokens(p, run.tokens[:, :t].T)])
                _, hidden, _ = recurrent.stack_forward(p.w_x, p.w_h, p.b, xs)
                q = action_values(StubEnv(rule), p, cfg, AB, run.tokens[:, :t],
                                  hidden, run.tokens[:, t], mc_u)
                assert np.array_equal(taken[t], q)
            assert taken.shape == (T, B)

    def test_enumeration_registers_finished_names_once(self):
        dct = TokenDict("abcdefgh")
        cfg = TrainConfig(lr=1.0, batch=3, mc=2, length=7, epochs=1,
                          d_e=6, d_h=8)
        calls = []

        class Recording(FeedbackEnv):
            def register_many(self, fqdns):
                out = super().register_many(fqdns)
                calls.append(list(zip(fqdns, out)))
                return out

        env = Recording(FixedScoreDetector(lambda d: 1.0), budget=10_000)
        res = train(env, cfg, master_seed=4, dct=dct)
        B, m, T = cfg.batch, cfg.mc, cfg.length
        assert len(calls) == T
        assert env.query_count == B * (m * (T - 1) + 1)
        p0 = policy.init_params(1, 6, 8, dct.n, rng_seed=4)
        _, run = _epoch_run(p0, cfg, dct, SeedSpace(), 4, 0)
        finished = [f"{dct.detokenize(row)}.com" for row in run.tokens]
        assert [name for name, _ in calls[-1]] == finished
        assert res.curve[0] == np.mean([fb.outcome for _, fb in calls[-1]])


class TestGeneration:
    def test_sampled_names_skip_the_argmax_pass(self, monkeypatch):
        p = tiny_params(37)
        start = dt.date(2031, 5, 6)
        want = [name for day in range(3) for name in candidate_list(
            p, start + dt.timedelta(days=day), 9, T=10, tld="co.uk",
            space=SeedSpace())[1:]]
        calls = []
        run_batch = policy.run_batch

        def counted(*args, **kwargs):
            calls.append(kwargs.get("uniforms") is not None)
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(policy, "run_batch", counted)
        got = generate_domains(p, 20, start, T=10, tld="co.uk", per_date=8)
        assert got == want[:20]
        assert calls == [True] * 3          # one sampled pass per date

    def test_argmax_mode_is_candidate_zero(self):
        p = tiny_params(37)
        start = dt.date(2031, 5, 6)
        got = generate_domains(p, 3, start, T=9, mode="argmax")
        assert got == [candidate_list(p, start + dt.timedelta(days=d), 1,
                                      T=9, space=SeedSpace())[0]
                       for d in range(3)]

    @pytest.mark.parametrize("tld", ["C-", "X", "com\n"])
    def test_bad_tld_fails_before_generating(self, tld, monkeypatch):
        def no_generation(*a, **k):
            raise AssertionError("generated before the TLD check")
        monkeypatch.setattr(policy, "run_batch", no_generation)
        p = tiny_params(37)
        with pytest.raises(AssemblyError):
            candidate_list(p, EPOCH_DATE, 3, T=10, tld=tld)
        with pytest.raises(AssemblyError):
            generate_domains(p, 5, EPOCH_DATE, T=10, tld=tld)
        with pytest.raises(AssemblyError):
            train(StubEnv(lambda d: True),
                  TrainConfig(batch=2, mc=1, length=7, epochs=1, tld=tld), 0)

