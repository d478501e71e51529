import numpy as np
import pytest

from dgalab import checkpoint, policy
from dgalab.baselines import kraken_generate
from dgalab.corpora import LabeledCorpus, synthesize_benign
from dgalab.detectors import load_detector, train_detector
from dgalab.errors import DataError


class TestPolicyContainer:
    def test_round_trip_byte_exact(self, tmp_path):
        p = policy.init_params(2, 8, 16, 37, rng_seed=42)
        path = tmp_path / "policy.ckpt"
        checkpoint.save_policy(path, p)
        loaded = checkpoint.load_policy(path)
        path2 = tmp_path / "again.ckpt"
        checkpoint.save_policy(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()
        for name, tensor in p.tensors().items():
            assert np.array_equal(tensor, loaded.tensors()[name])

    def test_header_layout(self, tmp_path):
        p = policy.init_params(1, 4, 6, 5, rng_seed=0)
        path = tmp_path / "p.ckpt"
        checkpoint.save_policy(path, p)
        blob = path.read_bytes()
        assert blob[:4] == b"PKDG"
        assert int.from_bytes(blob[4:6], "little") == 1
        dims = [int.from_bytes(blob[6 + 4 * i:10 + 4 * i], "little")
                for i in range(4)]
        assert dims == [1, 4, 6, 5]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            checkpoint.load_policy(path)


class TestBlobContainer:
    def test_round_trip(self, tmp_path):
        blobs = {
            "weights": np.array([1.5, -2.25, 3.0], dtype=np.float32),
            "sizes": np.array([3, 1, 4], dtype=np.int64),
            "names": b"alpha\nbeta\n",
        }
        path = tmp_path / "det.ckpt"
        checkpoint.save_blobs(path, "statistics", blobs)
        kind, loaded = checkpoint.load_blobs(path)
        assert kind == "statistics"
        assert np.array_equal(loaded["weights"], blobs["weights"])
        assert np.array_equal(loaded["sizes"], blobs["sizes"])
        assert loaded["names"] == blobs["names"]
        path2 = tmp_path / "det2.ckpt"
        checkpoint.save_blobs(path2, kind, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_cross_check(self, tmp_path):
        p = policy.init_params(1, 4, 6, 5, rng_seed=0)
        path = tmp_path / "p.ckpt"
        checkpoint.save_policy(path, p)
        with pytest.raises(DataError):
            checkpoint.load_blobs(path)

    def test_every_truncation_is_a_data_error(self, tmp_path):
        corpus = LabeledCorpus(tuple(synthesize_benign(40, rng_seed=1)),
                               tuple(d.core + ".com"
                                     for d in kraken_generate(1, 40)))
        path = tmp_path / "det.ckpt"
        train_detector("statistics", corpus, rng_seed=0).save(path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(DataError):
                load_detector(cut)
