import datetime as dt
import inspect
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgalab import checkpoint, policy
from dgalab.baselines import kraken_generate
from dgalab.corpora import LabeledCorpus, synthesize_benign
from dgalab.detectors import KINDS, load_detector, train_detector
from dgalab.detectors.base import KIND_TABLE, _detector_class
from dgalab.errors import DataError, NumericError
from dgalab.training import generate_domains

# small enough that every truncation of every checkpoint loads in seconds
TINY_HP = {"statistics": {"jaccard_refs": 8, "edit_refs": 4},
           "fanci": {"trees": 3, "max_depth": 3},
           "wordgraph": {"repeat_threshold": 1},
           "neural": {"epochs": 1, "d_e": 3, "d_h": 2}}
PROBE = ["example.com", "qzkxv0pwj3.net", "a-b.org", "x.y.co"]


def tiny_corpus(n=40):
    return LabeledCorpus(tuple(synthesize_benign(n, rng_seed=1)),
                         tuple(core + ".com" for core in kraken_generate(1, n)))


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """{kind: bytes} for a tiny policy and one checkpoint of each detector
    kind."""
    root = tmp_path_factory.mktemp("ckpts")
    corpus = tiny_corpus()
    out = {}
    for kind in KINDS:
        train_detector(kind, corpus, hp=TINY_HP[kind],
                       rng_seed=0).save(root / kind)
        out[kind] = (root / kind).read_bytes()
    checkpoint.save_policy(root / "policy",
                           policy.init_params(1, 3, 4, 37, rng_seed=0), 8)
    out["policy"] = (root / "policy").read_bytes()
    return out


def load_and_use(kind, path):
    """Load a checkpoint of ``kind`` and run it once."""
    if kind == "policy":
        params, T = checkpoint.load_policy(path)
        generate_domains(params, 4, dt.date(2030, 1, 1), T=T, per_date=4)
    else:
        load_detector(path).score_many(PROBE)


def node_edit(edit):
    """Damage to the word-graph node list: ``edit`` changes the list of
    node byte strings in place."""
    def nodes(blob):
        listed = blob.split(b"\n")
        edit(listed)
        return b"\n".join(listed)
    return nodes


class TestPolicyContainer:
    def test_round_trip_byte_exact(self, tmp_path):
        p = policy.init_params(2, 8, 16, 37, rng_seed=42)
        path = tmp_path / "policy.ckpt"
        checkpoint.save_policy(path, p, 12)
        loaded, length = checkpoint.load_policy(path)
        assert length == 12
        path2 = tmp_path / "again.ckpt"
        checkpoint.save_policy(path2, loaded, length)
        assert path.read_bytes() == path2.read_bytes()
        for name, tensor in p.tensors().items():
            assert np.array_equal(tensor, loaded.tensors()[name])

    def test_header_layout(self, tmp_path):
        p = policy.init_params(1, 4, 6, 5, rng_seed=0)
        path = tmp_path / "p.ckpt"
        checkpoint.save_policy(path, p, 9)
        blob = path.read_bytes()
        assert blob[:4] == b"PKDG"
        assert struct.unpack_from("<H4I", blob, 4) == (2, 5, 0, 0, 0)
        # first record: "dims" as five i64 (n_layers, d_e, d_h, d_y, T)
        assert struct.unpack_from("<I4sBQ", blob, 22) == (4, b"dims", 1, 5)
        assert struct.unpack_from("<5q", blob, 39) == (1, 4, 6, 5, 9)
        # then the tensors in canonical order, each as f32
        off = 39 + 40
        for name, tensor in p.tensors().items():
            (nlen,) = struct.unpack_from("<I", blob, off)
            assert blob[off + 4:off + 4 + nlen] == name.encode()
            off += 4 + nlen
            assert struct.unpack_from("<BQ", blob, off) == (0, tensor.size)
            off += 9 + 4 * tensor.size
        assert off == len(blob)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            checkpoint.load_policy(path)

    def test_version_1_file_refused(self, tmp_path):
        p = policy.init_params(1, 4, 6, 5, rng_seed=0)
        path = tmp_path / "v1.ckpt"
        parts = [b"PKDG", struct.pack("<H4I", 1, 1, 4, 6, 5)]
        for name, tensor in p.tensors().items():
            parts += [struct.pack("<I", len(name)), name.encode(),
                      tensor.astype("<f4").tobytes()]
        path.write_bytes(b"".join(parts))
        with pytest.raises(DataError, match="version 1"):
            checkpoint.load_policy(path)

    @pytest.mark.parametrize("damage", [
        "drop w_out", "short layer0.b", "int embedding", "T 0", "T 64",
        "n_layers 2", "n_layers huge", "d_e 0", "d_y 5"])
    def test_damaged_records_are_data_errors(self, tmp_path, damage):
        what, arg = damage.split(" ")
        # a d_y case is a well-formed policy over another alphabet
        d_y = int(arg) if what == "d_y" else 37
        p = policy.init_params(1, 4, 6, d_y, rng_seed=0)
        blobs = {"dims": np.array([1, 4, 6, d_y, 10]), **p.tensors()}
        if what == "drop":
            del blobs[arg]
        elif what == "short":
            blobs[arg] = blobs[arg][:-1]
        elif what == "int":
            blobs[arg] = np.zeros(blobs[arg].shape, dtype=np.int64)
        elif what != "d_y":
            slot = {"n_layers": 0, "d_e": 1, "T": 4}[what]
            blobs["dims"][slot] = 2 ** 62 if arg == "huge" else int(arg)
        path = tmp_path / "bad.ckpt"
        checkpoint.save_blobs(path, checkpoint.POLICY_ID, blobs)
        with pytest.raises(DataError):
            checkpoint.load_policy(path)

    def test_non_finite_weight_is_numeric_error(self, tmp_path):
        p = policy.init_params(1, 4, 6, 37, rng_seed=0)
        p.w_out[2, 3] = np.nan
        path = tmp_path / "nan.ckpt"
        checkpoint.save_policy(path, p, 10)
        with pytest.raises(NumericError, match="w_out"):
            checkpoint.load_policy(path)


class TestBlobContainer:
    def test_round_trip(self, tmp_path):
        blobs = {
            "weights": np.array([1.5, -2.25, 3.0], dtype=np.float32),
            "sizes": np.array([3, 1, 4], dtype=np.int64),
            "names": b"alpha\nbeta\n",
        }
        path = tmp_path / "det.ckpt"
        checkpoint.save_blobs(path, KIND_TABLE["statistics"].id, blobs)
        kind_id, loaded = checkpoint.load_blobs(path)
        assert kind_id == KIND_TABLE["statistics"].id
        assert np.array_equal(loaded["weights"], blobs["weights"])
        assert np.array_equal(loaded["sizes"], blobs["sizes"])
        assert loaded["names"] == blobs["names"]
        path2 = tmp_path / "det2.ckpt"
        checkpoint.save_blobs(path2, kind_id, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_cross_check(self, tmp_path, checkpoints):
        pol, det = tmp_path / "p.ckpt", tmp_path / "d.ckpt"
        pol.write_bytes(checkpoints["policy"])
        det.write_bytes(checkpoints["fanci"])
        with pytest.raises(DataError, match="not a detector kind"):
            load_detector(pol)
        with pytest.raises(DataError, match="expected a policy"):
            checkpoint.load_policy(det)

    def test_kind_ids_are_pinned(self, checkpoints):
        # the u32 after the magic and version: README "Checkpoints"
        ids = {kind: struct.unpack_from("<I", blob, 6)[0]
               for kind, blob in checkpoints.items()}
        assert ids == {"statistics": 1, "fanci": 2, "wordgraph": 3,
                       "neural": 4, "policy": 5}

    def test_unknown_kind_id(self, tmp_path, checkpoints):
        blob = bytearray(checkpoints["fanci"])
        struct.pack_into("<I", blob, 6, 9)
        path = tmp_path / "nine.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="not a detector kind"):
            load_detector(path)
        with pytest.raises(DataError, match="expected a policy"):
            checkpoint.load_policy(path)

    def test_every_truncation_is_a_data_error(self, tmp_path, checkpoints):
        cut = tmp_path / "cut.ckpt"
        for kind, blob in checkpoints.items():
            for size in range(len(blob)):
                cut.write_bytes(blob[:size])
                with pytest.raises(DataError):
                    load_and_use(kind, cut)

    def test_non_finite_record_is_numeric_error(self, tmp_path):
        path = tmp_path / "inf.ckpt"
        checkpoint.save_blobs(path, KIND_TABLE["fanci"].id,
                              {"prob": np.array([0.5, np.inf])})
        with pytest.raises(NumericError, match="'prob'"):
            checkpoint.load_blobs(path)

    @pytest.mark.parametrize("kind", ("policy",) + KINDS)
    def test_repeated_record_is_a_data_error(self, tmp_path, checkpoints,
                                             kind):
        # save_blobs takes a dict, so only damage repeats a name: here a
        # copy of the first record, appended after the last
        path = tmp_path / "d.ckpt"
        path.write_bytes(checkpoints[kind])
        kind_id, blobs = checkpoint.load_blobs(path)
        name = next(iter(blobs))
        checkpoint.save_blobs(path, kind_id, {name: blobs[name]})
        path.write_bytes(checkpoints[kind] + path.read_bytes()[22:])
        with pytest.raises(DataError, match=f"repeated record '{name}'"):
            load_and_use(kind, path)

    @pytest.mark.parametrize("kind, name, damage", [
        ("neural", "dims", lambda a: a.__setitem__(4, 0)),       # max_len
        ("neural", "dims", lambda a: a.__setitem__(3, 2)),       # bidir
        ("neural", "dims", lambda a: a.__setitem__(2, 0)),       # layers
        ("fanci", "tree_sizes", lambda a: a[:0]),                # no trees
        ("fanci", "tree_sizes", lambda a: np.r_[a, 0]),          # empty tree
        ("fanci", "tree_sizes", lambda a: np.r_[a[:-1], a[-1] - 1]),
        ("fanci", "feature", lambda a: a.__setitem__(0, 21)),
        ("fanci", "feature", lambda a: a.__setitem__(0, -2)),
        ("fanci", "left", lambda a: a.__setitem__(0, 0)),        # self loop
        ("fanci", "right", lambda a: a.__setitem__(0, 10 ** 6)),
        ("wordgraph", "nodes", node_edit(lambda n: n.__setitem__(0, b"ab"))),
        ("wordgraph", "nodes",
         node_edit(lambda n: n.__setitem__(0, b"a" * 11))),
        ("wordgraph", "nodes", node_edit(lambda n: n.__setitem__(0, b"abC"))),
        ("wordgraph", "nodes", node_edit(lambda n: n.__setitem__(1, n[0]))),
        ("wordgraph", "degrees", lambda a: a.__setitem__(0, -1)),
        ("wordgraph", "max_degree", lambda a: a.__setitem__(0, a[0] + 1)),
        *(pytest.param(kind, "threshold", lambda a, v=value: np.full_like(a, v),
                       id=f"{kind}-threshold-{value}")
          for kind in KINDS for value in (1.5, -0.5)),
    ])
    def test_damaged_detector_records(self, tmp_path, checkpoints, kind,
                                      name, damage):
        path = tmp_path / "d.ckpt"
        path.write_bytes(checkpoints[kind])
        kind_id, blobs = checkpoint.load_blobs(path)
        changed = damage(blobs[name])
        if changed is not None:
            blobs[name] = changed
        checkpoint.save_blobs(path, kind_id, blobs)
        with pytest.raises(DataError):
            load_detector(path)


# each kind's records in the order it saves them; neural's threshold sits
# before its layers, which keeps its checkpoints' bytes
RECORDS = {
    "statistics": ["profile", "jaccard_refs", "edit_refs", "logistic",
                   "standardize", "threshold"],
    "fanci": ["tree_sizes", "feature", "threshold_arr", "left", "right",
              "prob", "threshold"],
    "wordgraph": ["nodes", "degrees", "max_degree", "logistic",
                  "standardize", "threshold"],
    "neural": ["dims", "embedding", "w", "b", "threshold", "s0.l0.w_x",
               "s0.l0.w_h", "s0.l0.b"],
}


@pytest.mark.parametrize("kind", KINDS)
class TestThreshold:
    def test_record_names_in_order(self, tmp_path, checkpoints, kind):
        path = tmp_path / "d.ckpt"
        path.write_bytes(checkpoints[kind])
        assert list(checkpoint.load_blobs(path)[1]) == RECORDS[kind]

    @pytest.mark.parametrize("threshold", [0.25, 0.0, 1.0])
    def test_saves_and_loads(self, tmp_path, checkpoints, kind, threshold):
        path = tmp_path / "d.ckpt"
        path.write_bytes(checkpoints[kind])
        model = load_detector(path)
        assert model.threshold == 0.5
        model.save(path)
        assert path.read_bytes() == checkpoints[kind]
        model.threshold = threshold
        model.save(path)
        assert load_detector(path).threshold == threshold

    def test_no_kind_takes_a_threshold(self, kind):
        assert "threshold" not in inspect.signature(
            _detector_class(kind)).parameters


class TestRecord:
    BLOBS = {"f": np.zeros(6, dtype=np.float32), "i": np.arange(3),
             "t": "héllo".encode(), "bad": b"\xff\xfe"}

    def test_checked_reads(self):
        assert checkpoint.record(self.BLOBS, "f", checkpoint.F32,
                                 (2, 3)).shape == (2, 3)
        assert checkpoint.record(self.BLOBS, "i", checkpoint.I64).tolist() \
            == [0, 1, 2]
        assert checkpoint.record(self.BLOBS, "t", checkpoint.TEXT) == "héllo"

    @pytest.mark.parametrize("name, tag, shape, message", [
        ("gone", 0, None, "missing"),
        ("f", 1, None, "not i64"),
        ("i", 0, 3, "not f32"),
        ("t", 0, None, "not f32"),
        ("f", 2, None, "not text"),
        ("f", 0, 5, "holds 6 values, expected 5"),
        ("i", 1, (2, 2), "holds 3 values, expected 4"),
        ("bad", 2, None, "not UTF-8"),
    ])
    def test_rejections(self, name, tag, shape, message):
        with pytest.raises(DataError, match=message):
            checkpoint.record(self.BLOBS, name, tag, shape)


class TestFuzz:
    @given(kind=st.sampled_from(("policy",) + KINDS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_flips_load_or_fail_cleanly(self, tmp_path_factory,
                                            checkpoints, kind, data):
        blob = bytearray(checkpoints[kind])
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path = tmp_path_factory.getbasetemp() / "flipped.ckpt"
        path.write_bytes(bytes(blob))
        try:
            with np.errstate(all="ignore"):
                load_and_use(kind, path)
        except (DataError, NumericError):
            pass
