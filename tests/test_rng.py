import numpy as np
from hypothesis import given, settings, strategies as st

from dgalab.rng import stream, uniforms

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
