import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dgalab import domains
from dgalab.detectors.features import extract_many
from dgalab.dnsenv import feedback_records
from dgalab.errors import QueryBudgetError
from dgalab.policy import params_from_tensors
from dgalab.rng import stream_key

# CI selects this with --hypothesis-profile=ci: the same examples on every
# run, and no example database carried between runs
settings.register_profile("ci", derandomize=True, database=None)


def count_validations(monkeypatch, refuse: bool = False) -> list:
    """From now on, every name that ``validate_domain`` checks is appended
    to the returned list, or with ``refuse`` fails the test; wrapped in
    every dgalab module that binds it."""
    calls = []
    validate = domains.validate_domain

    def counted(name):
        assert not refuse, f"{name!r} was checked"
        calls.append(name)
        return validate(name)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "dgalab" \
                and getattr(module, "validate_domain", None) is validate:
            monkeypatch.setattr(module, "validate_domain", counted)
    return calls


def numpy_stream(*parts) -> np.random.Generator:
    """numpy's own Generator over the Philox stream that ``rng.stream``
    keys with ``parts``: its draws are the ones the package must make."""
    return np.random.Generator(np.random.Philox(key=stream_key(*parts)))


def extract_features(domain: str) -> np.ndarray:
    """The 21 features of one name: ``extract_many`` of one."""
    return extract_many([domain])[0]


class StubEnv:
    """Deterministic rule-based environment without novelty.

    ``rule(fqdn) -> bool`` decides the detector factor; novelty is always 1,
    so repeated registration of a rewarded name keeps succeeding.  Used by
    closed-world trainer tests where the optimum must stay reachable.  The
    budget, unlimited by default, refuses a whole batch as ``FeedbackEnv``
    does.
    """

    def __init__(self, rule, budget=math.inf):
        self.rule = rule
        self.budget = budget
        self.query_count = 0

    def register(self, fqdn):
        return self.register_many([fqdn])[0]

    def register_many(self, fqdns):
        if self.query_count + len(fqdns) > self.budget:
            raise QueryBudgetError(f"budget {self.budget} exhausted")
        self.query_count += len(fqdns)
        return feedback_records([bool(self.rule(f)) for f in fqdns],
                                [1] * len(fqdns))

    def resolve(self, fqdn):
        return None


class FixedScoreDetector:
    """Detector stand-in with a deterministic score function."""

    kind = "stub"

    def __init__(self, fn, threshold=0.5):
        self.fn = fn
        self.threshold = threshold

    def score(self, domain):
        return float(self.fn(domain))

    def score_many(self, domains):
        return np.array([self.fn(d) for d in domains], dtype=np.float64)


@pytest.fixture
def stub_env_factory():
    return StubEnv


@pytest.fixture
def fixed_detector_factory():
    return FixedScoreDetector


def pairwise_auc(pos_scores, neg_scores) -> float:
    """Brute-force rank statistic: P(pos > neg) + 0.5 P(tie)."""
    sp = np.asarray(pos_scores, dtype=np.float64)
    sn = np.asarray(neg_scores, dtype=np.float64)
    gt = (sp[:, None] > sn[None, :]).mean()
    eq = (sp[:, None] == sn[None, :]).mean()
    return float(gt + 0.5 * eq)


def cast(params, dtype):
    """``params`` with every tensor converted to ``dtype``."""
    arrays = {name: t.astype(dtype) for name, t in params.tensors().items()}
    return params_from_tensors(arrays, params.n_layers)


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text("utf-8"))


REPO_ROOT = Path(__file__).resolve().parent.parent


def python_subprocess(args, hash_seed=None, preexec_fn=None, extra_env=None):
    """Run ``python *args`` in a child with a scrubbed env.

    The env holds only ``PATH``, ``HOME``, ``PYTHONPATH`` pointing at this
    checkout's ``src``, ``PYTHONHASHSEED`` if given and the entries of
    ``extra_env`` (such as ``OPENBLAS_NUM_THREADS``), so the child runs
    the repo's ``dgalab`` whether or not the package is pip-installed and
    whatever the parent's env holds.  ``preexec_fn`` runs in the child
    before it starts Python.
    """
    env = {"PATH": "/usr/bin:/bin", "HOME": "/tmp",
           "PYTHONPATH": str(REPO_ROOT / "src"), **(extra_env or {})}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=str(REPO_ROOT),
                          preexec_fn=preexec_fn)


def cli_subprocess(argv, hash_seed=None, preexec_fn=None, extra_env=None):
    """Run ``python -m dgalab.cli *argv`` through ``python_subprocess``."""
    return python_subprocess(["-m", "dgalab.cli", *argv], hash_seed,
                             preexec_fn, extra_env)
