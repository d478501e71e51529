"""The stacked recurrent cell against its one-sigmoid-per-gate oracle."""

import numpy as np
from hypothesis import example, given, strategies as st

import scalar_oracles as oracle
from dgalab import recurrent


@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 12),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 32, 64, 0)
@example(96, 2, 24, 32, 1)
def test_stack_step_equals_three_sigmoid_oracle(batch, n_layers, d_in, d_h,
                                                seed):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return (rng.standard_normal(shape) * 3).astype(np.float32)

    w_x = [draw(d_in if k == 0 else d_h, 4 * d_h) for k in range(n_layers)]
    w_h = [draw(d_h, 4 * d_h) for _ in range(n_layers)]
    b = [draw(4 * d_h) for _ in range(n_layers)]
    x = draw(batch, d_in)
    hidden = [(draw(batch, d_h), draw(batch, d_h)) for _ in range(n_layers)]
    top, new_hidden, caches = recurrent.stack_step(w_x, w_h, b, x, hidden,
                                                   want_cache=True)
    want_top, want_hidden, want_caches = oracle.stack_step(w_x, w_h, b, x,
                                                           hidden)
    assert top.dtype == np.float32 and np.array_equal(top, want_top)
    for got, want in zip(new_hidden + caches, want_hidden + want_caches):
        assert all(np.array_equal(a, w) for a, w in zip(got, want))
