import datetime as dt

import numpy as np
import pytest

import scalar_oracles as oracle
from conftest import cast
from dgalab import policy, recurrent
from dgalab.domains import (DEFAULT_TOKENS, EPOCH, TokenDict, assemble_fqdn,
                            encode_seed)
from dgalab.errors import ContractError
from dgalab.rng import stream


def tiny_dict(n):
    return TokenDict("abcdefghijklmnopqrstuvwxyz0123456789-"[:n])


def feed(params, token, hidden=None):
    """Distribution after feeding one token from ``hidden`` (zero state by
    default), plus the state after that step: the one the next step of a
    two-step run starts from."""
    if hidden is None:
        hidden = recurrent.zero_hidden(params.n_layers, 1, params.d_h,
                                       params.dtype)
    run = policy.run_batch(params, tiny_dict(params.d_y), 2,
                           init_hidden=hidden, first_tokens=[token],
                           want_cache=True)
    return run.dists[0, 0], recurrent.cache_state(run.caches[1])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def cached_episodes(layers, dtype, batch=6, T=9):
    """Sampled episodes of the default dictionary with their caches, and the
    oracle's teacher-forced pass along the same tokens."""
    dct = DEFAULT_TOKENS
    p = cast(policy.init_params(layers, 5, 7, dct.n, rng_seed=layers), dtype)
    seeds = np.stack([encode_seed(EPOCH + dt.timedelta(days=d), dct)[0]
                      for d in range(batch)])
    run = policy.run_batch(p, dct, T, seed_vecs=seeds, want_cache=True,
                           uniforms=stream("cache-test").random((batch, T)))
    return p, seeds, run, oracle.teacher_forward(p, dct, seeds, run.tokens)


def naive_forward(params, xs):
    """Independent re-implementation of the stacked cell, scalar style."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    T = xs.shape[0]
    d_h = params.d_h
    h = [np.zeros(d_h) for _ in range(params.n_layers)]
    c = [np.zeros(d_h) for _ in range(params.n_layers)]
    tops = []
    for t in range(T):
        inp = xs[t]
        for l in range(params.n_layers):
            z = inp @ params.w_x[l] + h[l] @ params.w_h[l] + params.b[l]
            i = sig(z[:d_h])
            f = sig(z[d_h:2 * d_h])
            o = sig(z[2 * d_h:3 * d_h])
            g = np.tanh(z[3 * d_h:])
            c[l] = f * c[l] + i * g
            h[l] = o * np.tanh(c[l])
            inp = h[l]
        tops.append(h[-1].copy())
    return np.array(tops)


def fd_gradient(params, dct, seed_vec, tokens, weights, eps=1e-5):
    """Central finite differences of the weighted log-likelihood."""
    grads = {}
    for name, tensor in params.tensors().items():
        g = np.zeros_like(tensor, dtype=np.float64)
        flat = tensor.reshape(-1)
        gf = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            fp = oracle.weighted_logprob(params, dct, seed_vec, tokens, weights)
            flat[k] = orig - eps
            fm = oracle.weighted_logprob(params, dct, seed_vec, tokens, weights)
            flat[k] = orig
            gf[k] = (fp - fm) / (2 * eps)
        grads[name] = g
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a = analytic[name].astype(np.float64)
        f = numeric[name]
        rel = np.abs(a - f) / (np.abs(f) + 1e-6)
        worst = max(worst, float(rel.max()))
    return worst


class TestInit:
    def test_deterministic(self):
        a = policy.init_params(2, 8, 16, 10, rng_seed=7)
        b = policy.init_params(2, 8, 16, 10, rng_seed=7)
        for (na, ta), (nb, tb) in zip(a.tensors().items(), b.tensors().items()):
            assert na == nb and np.array_equal(ta, tb)
        c = policy.init_params(2, 8, 16, 10, rng_seed=8)
        assert not np.array_equal(a.embedding, c.embedding)

    def test_param_count_closed_form(self):
        n = 37
        p = policy.init_params(1, 32, 64, n, rng_seed=1)
        expected = (n + 1) * 32 + 4 * (32 * 64 + 64 * 64 + 64) + 64 * n
        assert sum(t.size for t in p.tensors().values()) == expected

    def test_bounds(self):
        p = policy.init_params(1, 8, 8, 5, rng_seed=3)
        for t in p.tensors().values():
            assert np.all(np.abs(t) <= 0.08)

    def test_dict_size_mismatch_rejected(self):
        p = policy.init_params(1, 4, 4, 9, rng_seed=0)
        with pytest.raises(ContractError):
            policy.run_batch(p, tiny_dict(5), 3,
                             seed_vecs=np.zeros((1, 9), np.float32))
        with pytest.raises(ContractError):
            policy.init_params(0, 4, 4, 5, rng_seed=0)


class TestForward:
    def test_zero_weights_uniform(self):
        p = policy.init_params(1, 4, 6, 5, rng_seed=0)
        zero = {k: np.zeros_like(v) for k, v in p.tensors().items()}
        pz = policy.params_from_tensors(zero, 1)
        probs, hidden = feed(pz, 2)
        assert np.allclose(probs, 0.2)
        assert np.allclose(hidden[0][0], 0.0)
        probs2, _ = feed(pz, 4, hidden)
        assert np.allclose(probs2, 0.2)

    def test_matches_naive_reimplementation(self):
        p = cast(policy.init_params(2, 3, 4, 5, rng_seed=11), np.float64)
        dct = tiny_dict(5)
        tokens = np.array([[1, 3, 0, 2]])
        seed = np.zeros(5)
        seed[2] = 1.0
        dists, tops, _ = oracle.teacher_forward(p, dct, seed[None, :], tokens)
        xs = np.empty((4, 3))
        xs[0] = seed @ p.embedding[:5] + p.embedding[5]
        xs[1:] = p.embedding[tokens[0, :-1]]
        ref_tops = naive_forward(p, xs)
        assert np.max(np.abs(tops[:, 0, :] - ref_tops)) < 1e-12
        for t in range(4):
            logits = ref_tops[t] @ p.w_out
            if t in (0, 3) and dct.hyphen_index is not None:
                logits[dct.hyphen_index] = -np.inf
            e = np.exp(logits - logits.max())
            assert np.max(np.abs(dists[t, 0] - e / e.sum())) < 1e-12

    def test_statefulness(self):
        p = policy.init_params(1, 8, 12, 6, rng_seed=5)
        probs1, hidden = feed(p, 3)
        probs2, _ = feed(p, 3, hidden)
        assert not np.allclose(probs1, probs2)

    def test_distribution_valid(self):
        for seed in range(5):
            p = policy.init_params(2, 6, 9, 8, rng_seed=seed)
            hidden = None
            for tok in [0, 3, 7, 1]:
                probs, hidden = feed(p, tok, hidden)
                assert abs(probs.sum() - 1.0) < 1e-6
                assert np.all(probs >= 0)

    def test_input_range_check(self):
        p = policy.init_params(1, 4, 4, 5, rng_seed=1)
        with pytest.raises(ContractError):
            feed(p, 9)

    def test_stacked_layer_reads_lower_output(self):
        p = cast(policy.init_params(2, 3, 4, 5, rng_seed=21), np.float64)
        x = ((stream("x", 0).random((1, 3))) - 0.5).astype(np.float64)
        top, hidden, caches = recurrent.stack_step(p.w_x, p.w_h, p.b, x,
                                                   recurrent.zero_hidden(2, 1, 4, np.float64),
                                                   want_cache=True)
        layer1_input = caches[1][0]
        layer0_h = hidden[0][0]
        assert np.array_equal(layer1_input, layer0_h)


class TestSelectAction:
    def test_argmax(self):
        p = policy.init_params(1, 4, 6, 5, rng_seed=4)
        run = policy.run_batch(p, tiny_dict(5), 6,
                               seed_vecs=np.eye(5), want_cache=True)
        assert np.array_equal(run.tokens, run.dists.argmax(axis=2).T)

    def test_argmax_tie_lowest_index(self):
        p = policy.init_params(1, 4, 6, 4, rng_seed=0)
        zero = {k: np.zeros_like(v) for k, v in p.tensors().items()}
        pz = policy.params_from_tensors(zero, 1)
        run = policy.run_batch(pz, tiny_dict(4), 3, seed_vecs=np.eye(4))
        assert not run.tokens.any()

    def test_sample_frequencies(self):
        p = policy.init_params(1, 4, 6, 2, rng_seed=3)
        rows = 100_000
        run = policy.run_batch(p, tiny_dict(2), 1,
                               seed_vecs=np.tile(np.eye(2)[0], (rows, 1)),
                               uniforms=stream("freq-test").random((rows, 1)),
                               want_cache=True)
        assert abs((run.tokens == 1).mean() - run.dists[0, 0, 1]) < 0.01

    def test_rounded_cumsum_never_picks_masked_hyphen(self):
        # u just below 1 lies above a float32 cumsum that rounds low; the
        # pick must fall back to the last legal token, not the edge hyphen
        dct = DEFAULT_TOKENS
        p = policy.init_params(1, 32, 64, dct.n, rng_seed=0)
        T = 10
        seeds = np.stack([encode_seed(EPOCH + dt.timedelta(days=d), dct)[0]
                          for d in range(4096)])
        u = np.full((4096, T), np.nextafter(1.0, 0.0))
        run = policy.run_batch(p, dct, T, seed_vecs=seeds, uniforms=u)
        assert not (run.tokens[:, [0, T - 1]] == dct.hyphen_index).any()
        for row in run.tokens:
            assemble_fqdn(dct.detokenize(row))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 2])
class TestSamplingCache:
    def test_cache_equals_teacher_forced_pass(self, layers, dtype):
        _, _, run, (dists, tops, caches) = cached_episodes(layers, dtype)
        hyphen = DEFAULT_TOKENS.hyphen_index
        assert not run.dists[[0, -1], :, hyphen].any()
        assert same_bits(run.dists, dists) and same_bits(run.tops, tops)
        assert len(run.caches) == len(caches)
        for got, want in zip(run.caches, caches):
            assert len(got) == len(want) == layers
            for got_layer, want_layer in zip(got, want):
                assert len(got_layer) == len(want_layer) == 8
                assert all(map(same_bits, got_layer, want_layer))

    def test_gradient_of_cached_run_equals_oracle_forward(self, layers,
                                                          dtype):
        p, seeds, run, forward = cached_episodes(layers, dtype)
        w = stream("cache-weights").random(run.tokens.T.shape)
        got = policy.grad_from_coeffs(p, seeds, run, w)
        want = policy.grad_from_coeffs(
            p, seeds, policy.BatchRun(run.tokens, *forward), w)
        assert got.keys() == want.keys()
        assert all(same_bits(got[name], want[name]) for name in got)
        assert all(got[name].any() for name in got)


class TestGradients:
    def test_zero_weights_zero_grad(self):
        p = cast(policy.init_params(1, 4, 6, 5, rng_seed=2), np.float64)
        g = oracle.logprob_grad(p, tiny_dict(5), np.eye(5)[0], [1, 2, 3],
                                [0.0, 0.0, 0.0])
        assert all(not v.any() for v in g.values())

    def test_linearity_in_weights(self):
        p = cast(policy.init_params(1, 4, 6, 5, rng_seed=2), np.float64)
        dct = tiny_dict(5)
        seed = np.eye(5)[1]
        w = np.array([0.3, 0.9, 0.1])
        g1 = oracle.logprob_grad(p, dct, seed, [1, 2, 3], w)
        g3 = oracle.logprob_grad(p, dct, seed, [1, 2, 3], 3.0 * w)
        for name in g1:
            assert np.allclose(3.0 * g1[name], g3[name], rtol=0, atol=1e-12)

    def test_single_step_finite_difference(self):
        dct = tiny_dict(6)
        p = cast(policy.init_params(1, 3, 4, 6, rng_seed=9), np.float64)
        seed = np.eye(6)[3]
        tokens = [2]
        weights = [0.8]
        analytic = oracle.logprob_grad(p, dct, seed, tokens, weights)
        numeric = fd_gradient(p, dct, seed, tokens, weights)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_multi_step_stacked_finite_difference(self):
        dct = tiny_dict(5)
        p = cast(policy.init_params(2, 3, 4, 5, rng_seed=13), np.float64)
        seed = np.eye(5)[1]
        tokens = [0, 4, 2, 1]
        weights = [0.5, 1.0, 0.25, 0.75]
        analytic = oracle.logprob_grad(p, dct, seed, tokens, weights)
        numeric = fd_gradient(p, dct, seed, tokens, weights)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_determinism(self):
        p = policy.init_params(1, 4, 6, 5, rng_seed=2)
        dct = tiny_dict(5)
        seed = np.eye(5)[0]
        g1 = oracle.logprob_grad(p, dct, seed, [1, 0, 3], [1.0, 0.5, 0.2])
        g2 = oracle.logprob_grad(p, dct, seed, [1, 0, 3], [1.0, 0.5, 0.2])
        for name in g1:
            assert np.array_equal(g1[name], g2[name])


class TestApply:
    def test_zero_lr_returns_same_object(self):
        p = policy.init_params(1, 4, 6, 5, rng_seed=2)
        g = oracle.logprob_grad(p, tiny_dict(5), np.eye(5)[0], [1], [1.0])
        assert policy.apply_grads(p, g, 0.0) is p

    def test_ascent_step(self):
        p = cast(policy.init_params(1, 4, 6, 5, rng_seed=2), np.float64)
        dct = tiny_dict(5)
        seed = np.eye(5)[0]
        before = oracle.weighted_logprob(p, dct, seed, [1, 2], [1.0, 1.0])
        g = oracle.logprob_grad(p, dct, seed, [1, 2], [1.0, 1.0])
        p2 = policy.apply_grads(p, g, 0.05)
        after = oracle.weighted_logprob(p2, dct, seed, [1, 2], [1.0, 1.0])
        assert after > before
