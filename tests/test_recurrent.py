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


@given(st.integers(1, 40), st.integers(1, 33), st.integers(0, 300),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([np.float32, np.float64]))
@example(1, 24, 1088, 0, np.float32)
def test_scatter_rows_equals_2d_add_at(vocab, width, n, seed, dtype):
    rng = np.random.default_rng(seed)
    # ids repeat whenever n exceeds vocab; magnitudes spread so that the
    # order of the additions shows in the rounding; signed zeros in both
    ids = rng.integers(0, vocab, n)
    rows = (rng.standard_normal((n, width))
            * 10.0 ** rng.integers(-8, 9, (n, width))).astype(dtype)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[rng.random(rows.shape) < 0.2] = -0.0
    table = rng.standard_normal((vocab, width)).astype(dtype)
    table[rng.random(table.shape) < 0.3] = -0.0
    want = table.copy()
    np.add.at(want, ids, rows)
    recurrent.scatter_rows(table, ids, rows)
    assert table.tobytes() == want.tobytes()
