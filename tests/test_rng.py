import numpy as np
from hypothesis import example, given, settings, strategies as st

from dgalab.rng import stream, stream_key, uniforms

# key parts as the package uses them: labels, seeds and indices, nested
_PARTS = st.lists(st.one_of(st.text(max_size=8),
                            st.integers(-2 ** 70, 2 ** 70),
                            st.tuples(st.text(max_size=3), st.integers())),
                  min_size=1, max_size=4).map(tuple)
# 1-D and 3-D shapes, most longer than one 4-word Philox block
_SHAPES = st.one_of(st.integers(1, 40),
                    st.tuples(st.integers(1, 4), st.integers(1, 6),
                              st.integers(1, 11)))


class TestUniforms:
    @settings(deadline=None, max_examples=200)
    @given(parts=_PARTS, shape=_SHAPES)
    def test_equals_a_fresh_stream(self, parts, shape):
        got = uniforms(shape, *parts)
        want = stream(*parts).random(shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(uniforms(shape, *parts), want)  # no carry-over

    @settings(deadline=None, max_examples=100)
    @given(live=_PARTS, parts=st.lists(st.tuples(_PARTS, _SHAPES),
                                       min_size=1, max_size=4),
           cuts=st.lists(st.integers(1, 9), min_size=2, max_size=5))
    # an integer part outside the signed 128-bit range once raised
    # OverflowError
    @example(live=("live",), parts=[((("", 2 ** 127),), 1)], cuts=[1, 1])
    def test_interleaved_with_a_live_stream(self, live, parts, cuts):
        gen = stream(*live)
        drawn = []
        for k, n in enumerate(cuts):
            drawn.append(gen.random(n))
            key, shape = parts[k % len(parts)]
            assert np.array_equal(uniforms(shape, *key),
                                  stream(*key).random(shape))
        assert np.array_equal(np.concatenate(drawn),
                              stream(*live).random(sum(cuts)))


class TestStreamKey:
    def test_keys_are_pinned(self):
        # every result file depends on these keys; none may move
        assert stream_key("prep", 1) == \
            47391887817605065149421285668397965663
        assert stream_key("matrix-cell", 0, "kraken", "neural") == \
            267216464407565218032238784272229006226
        assert stream_key("matrix-train", 3, "gozi") == \
            189856726977609052184486894274546478825
        assert stream_key(("game-init", -2 ** 127), np.int64(7), b"x") == \
            264774608814728035727394334274272155777
        assert stream_key("neural-train", ("incr", 2 ** 127 - 1), 0) == \
            131242680154813868292789538737682464108

    def test_integers_outside_128_bits_get_distinct_keys(self):
        keys = {stream_key("k", n) for n in (2 ** 127, 2 ** 127 + 1,
                                             -2 ** 127 - 1, 2 ** 200,
                                             2 ** 127 - 1)}
        assert len(keys) == 5
