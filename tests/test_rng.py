"""``rng.stream`` and ``rng.uniforms`` against numpy's own
``Generator(Philox(key))`` over the same key: the package draws without
``numpy.random``, and these tests hold every draw to numpy's bit for
bit."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import numpy_stream
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
# integer ranges: small, one value (no draw), and near 2**32, where Lemire's
# method redraws about half the time (2**31 + 1) or never (2**32)
_SPANS = st.one_of(st.integers(1, 1000), st.integers(1, 2 ** 32),
                   st.sampled_from([1, 2, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]))
_LOWS = st.integers(-2 ** 40, 2 ** 40)


def _same(got, want):
    """Equal values of equal type; arrays also of equal dtype and shape."""
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert type(got) in (int, float) and got == want


class TestStream:
    @settings(deadline=None, max_examples=100)
    @given(parts=_PARTS, sizes=st.lists(st.one_of(st.none(), _SHAPES),
                                        min_size=1, max_size=5))
    def test_random(self, parts, sizes):
        ours, numpy = stream(*parts), numpy_stream(*parts)
        for size in sizes:
            _same(ours.random(size), numpy.random(size))

    @settings(deadline=None, max_examples=200)
    @given(parts=_PARTS, low=_LOWS, span=_SPANS,
           form=st.sampled_from(["high", "low-high", "size"]),
           size=st.one_of(st.integers(0, 300),
                          st.tuples(st.integers(1, 5), st.integers(1, 40))))
    @example(parts=("wide",), low=0, span=2 ** 31 + 1, form="size", size=257)
    def test_integers(self, parts, low, span, form, size):
        ours, numpy = stream(*parts), numpy_stream(*parts)
        for _ in range(3):
            if form == "high":
                _same(ours.integers(span), int(numpy.integers(span)))
            elif form == "low-high":
                _same(ours.integers(low, low + span),
                      int(numpy.integers(low, low + span)))
            else:
                _same(ours.integers(low, low + span, size=size),
                      numpy.integers(low, low + span, size=size))
        _same(ours.random(3), numpy.random(3))

    def test_batch_with_rejections(self):
        # 2**31 + 1 values: about half the 32-bit draws of a batch redraw
        ours, numpy = stream("wide"), numpy_stream("wide")
        got = ours.integers(0, 2 ** 31 + 1, size=5000)
        assert np.array_equal(got, numpy.integers(0, 2 ** 31 + 1, size=5000))
        draws = numpy_stream("wide").integers(0, 2 ** 32, size=7500,
                                              dtype=np.uint32)
        assert ((draws.astype(np.uint64) * (2 ** 31 + 1)) % 2 ** 32
                < 2 ** 32 % (2 ** 31 + 1)).sum() > 1000
        assert ours.integers(2 ** 32) == numpy.integers(2 ** 32)

    def test_one_value_draws_nothing(self):
        ours, numpy = stream("one"), numpy_stream("one")
        assert ours.integers(7, 8) == 7
        assert np.array_equal(ours.integers(-3, -2, size=(2, 3)),
                              np.full((2, 3), -3))
        assert ours.integers(1) == 0
        _same(ours.integers(10, size=5), numpy.integers(10, size=5))

    @settings(deadline=None, max_examples=60)
    @given(parts=_PARTS, n=st.one_of(st.integers(0, 40),
                                     st.integers(0, 3000)),
           lead=st.integers(0, 3))
    def test_permutation(self, parts, n, lead):
        # ``lead`` 32-bit draws first, an odd count leaving a half-word kept
        ours, numpy = stream(*parts), numpy_stream(*parts)
        for _ in range(lead):
            assert ours.integers(5) == numpy.integers(5)
        _same(ours.permutation(n), numpy.permutation(n))
        _same(ours.permutation(n // 3), numpy.permutation(n // 3))
        _same(ours.integers(1000), int(numpy.integers(1000)))

    @settings(deadline=None, max_examples=150)
    @given(parts=_PARTS, ops=st.lists(st.tuples(
        st.sampled_from(["random", "randoms", "int", "ints", "perm"]),
        _SPANS, st.integers(0, 70)), min_size=1, max_size=12))
    def test_mixed_sequences(self, parts, ops):
        # 64-bit draws between 32-bit ones leave the kept half-word for the
        # next 32-bit draw
        ours, numpy = stream(*parts), numpy_stream(*parts)
        for op, span, n in ops:
            if op == "random":
                _same(ours.random(), numpy.random())
            elif op == "randoms":
                _same(ours.random(n), numpy.random(n))
            elif op == "int":
                _same(ours.integers(span), int(numpy.integers(span)))
            elif op == "ints":
                _same(ours.integers(5, 5 + span, size=n),
                      numpy.integers(5, 5 + span, size=n))
            else:
                _same(ours.permutation(n), numpy.permutation(n))
        _same(ours.integers(2 ** 32, size=9), numpy.integers(2 ** 32, size=9))
        _same(ours.random(9), numpy.random(9))

    def test_long_streams(self):
        # draws past several full passes, and a refilled buffer in between
        ours, numpy = stream("long"), numpy_stream("long")
        for _ in range(3):
            _same(ours.random(9001), numpy.random(9001))
            _same(ours.integers(1000), int(numpy.integers(1000)))
            _same(ours.permutation(5001), numpy.permutation(5001))
            _same(ours.integers(0, 77, size=12345),
                  numpy.integers(0, 77, size=12345))
            for _ in range(2000):
                assert ours.random() == numpy.random()


class TestUniforms:
    @settings(deadline=None, max_examples=100)
    @given(keys=st.lists(_PARTS, max_size=6), shape=_SHAPES)
    def test_equals_a_fresh_stream(self, keys, shape):
        # row r is a fresh stream of key r
        dims = shape if isinstance(shape, tuple) else (shape,)
        want = np.array([numpy_stream(*parts).random(shape)
                         for parts in keys]).reshape(len(keys), *dims)
        _same(uniforms(shape, keys), want)
        _same(uniforms(shape, keys), want)           # no carry-over

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
            _same(uniforms(shape, [key])[0], numpy_stream(*key).random(shape))
        _same(np.concatenate(drawn), numpy_stream(*live).random(sum(cuts)))

    def test_many_keys_span_several_passes(self):
        keys = [("mc-train", 3, 7, i) for i in range(40)]
        got = uniforms((3, 10, 10), keys)
        assert got.shape == (40, 3, 10, 10)
        for parts, row in zip(keys, got):
            _same(row, numpy_stream(*parts).random((3, 10, 10)))


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
