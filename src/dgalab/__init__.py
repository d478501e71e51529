"""dgalab: a desk-scale laboratory for adversarial domain-generation research.

A reinforcement-learned domain generator trains against black-box detectors
using only binary registration feedback; a zoo of detectors (statistical,
feature-forest, word-graph, neural) and an evaluation harness reproduce
anti-detection experiments end to end, deterministically.
"""

from .baselines import gozi_generate, kraken_generate, suppobox_generate
from .corpora import (LabeledCorpus, bundled_benign, load_domains,
                      synthesize_benign)
from .detectors import load_detector, train_detector
from .dnsenv import FeedbackEnv, fluxing_round
from .domains import (DEFAULT_TOKENS, SeedSpace, TokenDict, assemble_fqdn,
                      encode_seed, validate_domain)
from .evaluation import (GameConfig, MatrixConfig, anti_detection,
                         bench_inference, detection_auc, game_loop, roc_auc,
                         run_matrix, split_dataset)
from .policy import PolicyParams, init_params
from .training import TrainConfig, campaign, generate_domains, train

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOKENS", "FeedbackEnv", "GameConfig", "LabeledCorpus",
    "MatrixConfig", "PolicyParams", "SeedSpace", "TokenDict", "TrainConfig",
    "anti_detection", "assemble_fqdn", "bench_inference", "bundled_benign",
    "campaign", "detection_auc", "encode_seed", "fluxing_round", "game_loop",
    "generate_domains", "gozi_generate", "init_params", "kraken_generate",
    "load_detector", "load_domains", "roc_auc", "run_matrix",
    "split_dataset", "suppobox_generate", "synthesize_benign", "train",
    "train_detector", "validate_domain",
]
