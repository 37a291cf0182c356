"""Batch frame codec: property-based round-trip plus wire-level guards.

The codec's contract is byte identity: any entry structure the PRMI
layer ships — nested containers, every native dtype, 0-d and empty
arrays, fire-and-forget sequence numbers — must decode to an equal
structure with dtypes preserved (equality via the same ``_args_equal``
the endpoints use to verify simple-argument consistency, which is
dtype-strict)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.prmi.endpoint import _args_equal
from repro.prmi.frames import FrameError, decode_frame, encode_frame
from repro.prmi.serving import NOREPLY_SEQ

_DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    shape = draw(st.lists(st.integers(0, 4), min_size=0, max_size=3))
    n = int(np.prod(shape)) if shape else 1
    data = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    return np.array(data, dtype=dtype).reshape(shape)


scalars = st.one_of(
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.binary(max_size=16),
)

payloads = st.recursive(
    st.one_of(scalars, arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=8,
)

entries_strategy = st.lists(
    st.tuples(st.one_of(st.integers(0, 2**31), st.just(NOREPLY_SEQ)),
              st.text(min_size=1, max_size=12),
              payloads),
    min_size=0, max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(entries_strategy)
def test_roundtrip(entries):
    decoded = decode_frame(encode_frame(entries))
    assert len(decoded) == len(entries)
    for (seq, name, payload), (dseq, dname, dpayload) in zip(entries,
                                                             decoded):
        assert dseq == seq
        assert dname == name
        assert _args_equal(dpayload, payload)


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_dtype_and_shape_survive(arr):
    """dtype preservation is load-bearing: np.array_equal alone would
    call a float32/float64 round-trip corruption a success."""
    [(_, _, out)] = decode_frame(encode_frame([(0, "m", {"v": arr})]))
    got = out["v"]
    assert got.dtype == arr.dtype
    assert got.shape == arr.shape
    assert np.array_equal(got, arr)


def test_structured_and_padded_dtypes_survive():
    """A block's dtype travels whole: ``dtype.str`` alone would turn a
    structured leaf into ``|V10`` and an aligned one into ``|V16``."""
    packed = np.zeros(3, dtype=[("x", "<f8"), ("y", "<i2")])
    packed["x"], packed["y"] = [1.5, 2.5, 3.5], [7, 8, 9]
    aligned = np.zeros(2, dtype=np.dtype([("a", "i1"), ("b", "<f8")],
                                         align=True))
    aligned["a"], aligned["b"] = [1, 2], [0.25, 0.5]
    [(_, _, out)] = decode_frame(encode_frame([(0, "m", (packed, aligned))]))
    for got, arr in zip(out, (packed, aligned)):
        assert got.dtype == arr.dtype
        assert got.dtype.itemsize == arr.dtype.itemsize
        assert got.tobytes() == arr.tobytes()
        assert _args_equal(got, arr)


def test_zero_dim_and_empty_arrays():
    z = np.array(3.5)
    e = np.zeros((0, 4), dtype=np.int32)
    decoded = decode_frame(encode_frame([(1, "m", (z, e))]))
    (zz, ee) = decoded[0][2]
    assert zz.shape == () and float(zz) == 3.5
    assert ee.shape == (0, 4) and ee.dtype == np.int32


def test_object_arrays_ride_the_header():
    arr = np.array([{"a": 1}, None], dtype=object)
    [(_, _, out)] = decode_frame(encode_frame([(0, "m", arr)]))
    assert out.dtype == object and out[0] == {"a": 1} and out[1] is None


def test_one_header_pickle_per_frame(monkeypatch):
    """The codec's entire point: batching N requests costs one pickle,
    not N (lint rule V107 enforces the same property statically)."""
    import pickle as _pickle

    calls = []
    real = _pickle.dumps

    def counting(obj, *a, **k):
        calls.append(obj)
        return real(obj, *a, **k)

    monkeypatch.setattr("repro.prmi.frames.pickle.dumps", counting)
    encode_frame([(i, "m", {"x": np.arange(i + 1)}) for i in range(16)])
    assert len(calls) == 1


def test_truncated_frame_raises():
    frame = encode_frame([(0, "m", np.arange(32, dtype=np.float64))])
    with pytest.raises(FrameError):
        decode_frame(frame[: len(frame) // 2])
    with pytest.raises(FrameError):
        decode_frame(np.zeros(4, dtype=np.uint8))


def test_decode_is_zero_copy():
    arr = np.arange(64, dtype=np.float64)
    frame = encode_frame([(0, "m", arr)])
    [(_, _, view)] = decode_frame(frame)
    assert view.base is not None  # a view into the frame, not a copy
    assert np.shares_memory(view, frame)
