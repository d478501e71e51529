"""Single executable for every workflow: data prep, detector training,
feedback training, generation, evaluation, the experiment matrix, the
game-based defense loop, and throughput benchmarks.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort.
Data goes to stdout or files under --out; logs go to stderr.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import sys
from pathlib import Path

from . import checkpoint, corpora, evaluation, training
from .baselines import gozi_generate, kraken_generate, suppobox_generate
from .config import (cfg_date, cfg_get, parse_config, resolve_data_path,
                     write_manifest)
from .detectors import KINDS, load_detector, train_detector
from .detectors.base import HP_DEFAULTS, typed_hp
from .dnsenv import FeedbackEnv
from .domains import SeedSpace, check_tld
from .errors import ContractError, DataError, DgaLabError, NumericError
from .rng import stream_key

# family -> generate(words, seed, count); entries look their generator up by
# module-level name at call time, so a wrapper installed there sees each call
BASELINES = {
    "kraken": lambda words, seed, count: kraken_generate(seed, count),
    "gozi": lambda words, seed, count: gozi_generate(words[0], seed, count),
    "suppobox": lambda words, seed, count: suppobox_generate(*words, seed,
                                                             count),
}
DGA_NAMES = (*BASELINES, "pkdga")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _batch_sizes(text: str) -> list[int]:
    return [_positive_int(b) for b in text.split(",")]


def _iso_date(text: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a YYYY-MM-DD date, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="dgalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p, out_required=True):
        p.add_argument("--out", required=out_required,
                       help="output directory (manifest + results)")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for existing scripts and ignored: "
                            "matrix runs one worker process per usable CPU, "
                            "every other command one thread")

    p = sub.add_parser("prep", help="write benign and baseline-DGA corpora")
    common(p)
    p.add_argument("--benign", type=_positive_int, default=5000)
    p.add_argument("--agd", type=_positive_int, default=5000)
    p.add_argument("--dga", choices=tuple(BASELINES), default="kraken")

    p = sub.add_parser("detector-train", help="train one detector kind")
    common(p)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--benign", required=True, help="benign corpus file")
    p.add_argument("--agd", required=True, help="AGD corpus file")

    p = sub.add_parser("train", help="feedback-train the generator")
    common(p)
    p.add_argument("--env", required=True, help="detector checkpoint")
    p.add_argument("--benign", required=True,
                   help="benign corpus seeding the registry")

    p = sub.add_parser("generate", help="emit domains to stdout")
    common(p, out_required=False)
    p.add_argument("--dga", required=True, choices=DGA_NAMES)
    p.add_argument("--count", type=_positive_int, default=10)
    p.add_argument("--ckpt", help="policy checkpoint (pkdga only)")
    p.add_argument("--start-date", type=_iso_date, default="2030-01-01")
    p.add_argument("--tld", default="com")
    p.add_argument("--mode", choices=("sample", "argmax"), default="sample")

    p = sub.add_parser("eval", help="score a corpus pair against a detector")
    common(p)
    p.add_argument("--detector", required=True)
    p.add_argument("--benign", required=True)
    p.add_argument("--agd", required=True)

    p = sub.add_parser("matrix", help="anti-detection experiment matrix")
    common(p)
    p.add_argument("--benign", required=True)

    p = sub.add_parser("game", help="game-based defense loop")
    common(p)
    p.add_argument("--detector", required=True, help="neural detector ckpt")
    p.add_argument("--benign", required=True)
    p.add_argument("--stages", type=int, default=3)

    p = sub.add_parser("bench", help="inference throughput")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--batches", type=_batch_sizes, default="8,32,128")
    return parser


# every key of these sections that some command reads; any other key there
# ends the run
_CONFIG_KEYS = {
    "train": ("lr", "batch", "mc", "length", "epochs", "n_layers", "d_e",
              "d_h"),
    "env": ("threshold", "budget", "audit"),
    "seeds": ("start_date", "end_date"),
    "data": ("tld",),
    "matrix": ("dgas", "detectors", "pkdga", "train_per_class",
               "eval_benign", "eval_agd", "include_mixed", "pkdga_budget"),
    "game": ("stage_budget", "fresh", "incr_epochs", "incr_lr"),
}
# detector.<kind>.<key> for a key the kind reads, and detector.<key> for the
# split or a key some kind reads (it goes to every kind that reads it)
_DETECTOR_KEYS = {"split", *(name for kind, keys in HP_DEFAULTS.items()
                             for key in keys
                             for name in (key, f"{kind}.{key}"))}


def _load_cfg(args) -> dict:
    cfg = parse_config(args.config) if args.config else {}
    for key in cfg:
        section, _, name = key.partition(".")
        known = (_DETECTOR_KEYS if section == "detector"
                 else _CONFIG_KEYS.get(section))
        if known is not None and name not in known:
            raise UsageError(f"config key {key!r} is not read by any command")
    return cfg


def _train_config(cfg: dict) -> training.TrainConfig:
    return training.TrainConfig(
        lr=cfg_get(cfg, "train.lr", 1.0, float),
        batch=cfg_get(cfg, "train.batch", 32, int),
        mc=cfg_get(cfg, "train.mc", 4, int),
        length=cfg_get(cfg, "train.length", 10, int),
        epochs=cfg_get(cfg, "train.epochs", 300, int),
        n_layers=cfg_get(cfg, "train.n_layers", 1, int),
        d_e=cfg_get(cfg, "train.d_e", 32, int),
        d_h=cfg_get(cfg, "train.d_h", 64, int),
        tld=cfg_get(cfg, "data.tld", "com"),
    )


def _game_config(cfg: dict) -> evaluation.GameConfig:
    return evaluation.GameConfig(
        train_cfg=_train_config(cfg),
        stage_budget=cfg_get(cfg, "game.stage_budget", 150_000, int),
        fresh_samples=cfg_get(cfg, "game.fresh", 400, int),
        incr_epochs=cfg_get(cfg, "game.incr_epochs", 8, int),
        incr_lr=cfg_get(cfg, "game.incr_lr", 0.3, float))


def _seed_space(cfg: dict) -> SeedSpace:
    return SeedSpace(cfg_date(cfg, "seeds.start_date", _dt.date(2020, 1, 1)),
                     cfg_date(cfg, "seeds.end_date", _dt.date(2039, 12, 31)))


def _detector_hp(cfg: dict, kind: str) -> dict:
    """The config's values for ``kind``'s hyperparameters, as text;
    ``detector.<kind>.<key>`` wins over ``detector.<key>`` on any line, and
    a key with an empty value counts as absent."""
    hp = {}
    for key in HP_DEFAULTS[kind]:
        for name in (f"detector.{kind}.{key}", f"detector.{key}"):
            if cfg.get(name, "") != "":   # an empty value is an absent line
                hp[key] = cfg[name]
                break
    return hp


def _wordlists():
    return (corpora.load_wordlist(bundled="words_a.txt"),
            corpora.load_wordlist(bundled="words_b.txt"))


def _baseline_names(family, words, seed, count, tld) -> list[str]:
    return [f"{core}.{tld}" for core in BASELINES[family](words, seed, count)]


def _emit(path: Path, text: str) -> None:
    path.write_text(text, "utf-8")
    print(f"wrote {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_prep(args, cfg):
    tld = check_tld(cfg_get(cfg, "data.tld", "com"))
    out = Path(args.out)
    write_manifest(out, "prep", {**cfg, "benign": str(args.benign),
                                 "agd": str(args.agd), "dga": args.dga},
                   args.seed)
    benign = corpora.synthesize_benign(args.benign, rng_seed=args.seed)
    corpora.save_domains(out / "benign.txt", benign)
    gen_seed = stream_key("prep", args.seed) % (2 ** 31)
    names = _baseline_names(args.dga, _wordlists(), gen_seed, args.agd, tld)
    corpora.save_domains(out / f"{args.dga}.txt", names)
    return 0


def _cmd_detector_train(args, cfg):
    benign_path = resolve_data_path(args.benign)
    agd_path = resolve_data_path(args.agd)
    out = Path(args.out)
    write_manifest(out, "detector-train",
                   {**cfg, "kind": args.kind}, args.seed,
                   inputs=[benign_path, agd_path])
    corpus = corpora.LabeledCorpus(tuple(corpora.load_domains(benign_path)),
                                   tuple(corpora.load_domains(agd_path)))
    ratio = cfg_get(cfg, "detector.split", 0.8, float)
    train_part, test_part = evaluation.split_dataset(corpus, ratio, args.seed)
    model = train_detector(args.kind, train_part,
                           hp=_detector_hp(cfg, args.kind), rng_seed=args.seed)
    model.save(out / "detector.ckpt")
    roc = evaluation.detection_auc(model, train_part.benign, train_part.agd)
    roc_test = evaluation.detection_auc(model, test_part.benign, test_part.agd)
    _emit(out / "metrics.tsv",
          "split\tauc\tanti_detection\n"
          f"train\t{roc.auc:.6f}\t{1 - roc.auc:.6f}\n"
          f"test\t{roc_test.auc:.6f}\t{1 - roc_test.auc:.6f}\n")
    print(f"wrote {out / 'detector.ckpt'}", file=sys.stderr)
    return 0


def _cmd_train(args, cfg):
    det_path = resolve_data_path(args.env)
    benign_path = resolve_data_path(args.benign)
    out = Path(args.out)
    write_manifest(out, "train", cfg, args.seed,
                   inputs=[det_path, benign_path])
    detector = load_detector(det_path)
    benign = corpora.load_domains(benign_path)
    tc = _train_config(cfg)
    env = FeedbackEnv(detector, seed_corpus=benign,
                      threshold=cfg_get(cfg, "env.threshold", None, float),
                      budget=cfg_get(cfg, "env.budget", 1_000_000, int),
                      audit_path=out / "audit.tsv"
                      if cfg_get(cfg, "env.audit", False, bool) else None)
    try:
        result = training.train(env, tc, master_seed=args.seed,
                                space=_seed_space(cfg))
    finally:
        env.close()
    checkpoint.save_policy(out / "policy.ckpt", result.best_params,
                           tc.length)
    curve = "".join(f"{i}\t{r:.6f}\n" for i, r in enumerate(result.curve))
    _emit(out / "reward_curve.tsv", "epoch\tmean_reward\n" + curve)
    best = (f"best reward {result.best_reward:.4f} at epoch "
            f"{result.best_epoch}" if result.curve else "no epoch completed")
    print(f"{best}; {result.queries_used} register calls; stopped: "
          f"{result.stopped}", file=sys.stderr)
    if result.stopped == "numeric":
        return 3
    return 0


def _cmd_generate(args, cfg):
    if args.dga == "pkdga":
        if not args.ckpt:
            raise UsageError("--ckpt is required for --dga pkdga")
        params, T = checkpoint.load_policy(resolve_data_path(args.ckpt))
        names = training.generate_domains(params, args.count, args.start_date,
                                          T=T, tld=args.tld, mode=args.mode)
    else:
        names = _baseline_names(args.dga, _wordlists(), args.seed,
                                args.count, check_tld(args.tld))
    sys.stdout.write("\n".join(names) + "\n")
    return 0


def _cmd_eval(args, cfg):
    det_path = resolve_data_path(args.detector)
    benign_path = resolve_data_path(args.benign)
    agd_path = resolve_data_path(args.agd)
    out = Path(args.out)
    write_manifest(out, "eval", cfg, args.seed,
                   inputs=[det_path, benign_path, agd_path])
    model = load_detector(det_path)
    benign = corpora.load_domains(benign_path)
    agd = corpora.load_domains(agd_path)
    roc = evaluation.detection_auc(model, benign, agd)
    points = "\n".join(f"{fpr:.6f},{tpr:.6f}" for fpr, tpr in roc.points)
    _emit(out / "roc.csv", "fpr,tpr\n" + points + "\n")
    _emit(out / "summary.tsv",
          "auc\tanti_detection\n"
          f"{roc.auc:.6f}\t{1 - roc.auc:.6f}\n")
    print(f"auc {roc.auc:.6f}", file=sys.stderr)
    return 0


def _matrix_dgas(cfg, words, tld):
    """matrix.dgas as {family: generator(count, rng_key) -> names}."""
    def generator(family):
        return lambda count, key: _baseline_names(
            family, words, stream_key(key) % 2 ** 31, count, tld)

    out = {}
    for name in cfg_get(cfg, "matrix.dgas", "kraken,gozi,suppobox").split(","):
        name = name.strip()
        if name not in BASELINES:
            raise DataError(f"matrix.dgas: unknown generator {name!r}")
        out[name] = generator(name)
    return out


def _cmd_matrix(args, cfg):
    tld = check_tld(cfg_get(cfg, "data.tld", "com"))
    benign_path = resolve_data_path(args.benign)
    detectors = tuple(s.strip() for s in
                      cfg_get(cfg, "matrix.detectors", "statistics,neural").split(","))
    for kind in detectors:
        if kind not in KINDS:
            raise DataError(
                f"matrix.detectors: unknown detector kind {kind!r}")
    hp = {kind: typed_hp(kind, _detector_hp(cfg, kind)) for kind in detectors}
    out = Path(args.out)
    write_manifest(out, "matrix", cfg, args.seed, inputs=[benign_path])
    benign = corpora.load_domains(benign_path)
    pkdga_cfg = _train_config(cfg) if cfg_get(cfg, "matrix.pkdga", True, bool) \
        else None
    mc = evaluation.MatrixConfig(
        detectors=detectors,
        train_per_class=cfg_get(cfg, "matrix.train_per_class", 1000, int),
        eval_benign=cfg_get(cfg, "matrix.eval_benign", 400, int),
        eval_agd=cfg_get(cfg, "matrix.eval_agd", 400, int),
        include_mixed=cfg_get(cfg, "matrix.include_mixed", True, bool),
        detector_hp=hp,
        pkdga=pkdga_cfg,
        pkdga_budget=cfg_get(cfg, "matrix.pkdga_budget", 150_000, int))
    matrix = evaluation.run_matrix(_matrix_dgas(cfg, _wordlists(), tld),
                                   benign, mc, master_seed=args.seed)
    for det in detectors:
        _emit(out / f"matrix_{det}.tsv", matrix.fig_tsv(det))
    if mc.include_mixed:
        _emit(out / "anti_detection_by_detector.tsv", matrix.table_tsv())
    for cell, err in sorted(matrix.failures.items()):
        print(f"cell {cell} failed: {err}", file=sys.stderr)
    if matrix.failures:
        raise DataError(f"{len(matrix.failures)} of "
                        f"{len(matrix.rows) * len(detectors)} matrix cells "
                        "failed")
    return 0


def _cmd_game(args, cfg):
    det_path = resolve_data_path(args.detector)
    benign_path = resolve_data_path(args.benign)
    out = Path(args.out)
    write_manifest(out, "game", {**cfg, "stages": str(args.stages)},
                   args.seed, inputs=[det_path, benign_path])
    detector = load_detector(det_path)
    benign = corpora.load_domains(benign_path)
    cut = max(1, int(len(benign) * 0.8))
    results = evaluation.game_loop(detector, benign[:cut], benign[cut:],
                                   stages=args.stages, cfg=_game_config(cfg),
                                   master_seed=args.seed)
    lines = ["stage\tdetector_auc\tpkdga_reward\tagds"]
    for r in results:
        reward = "" if r.reward is None else f"{r.reward:.6f}"
        lines.append(f"{r.stage}\t{r.detector_auc:.6f}\t{reward}\t{r.agds_used}")
    _emit(out / "stages.tsv", "\n".join(lines) + "\n")
    return 0


def _cmd_bench(args, cfg):
    ckpt = resolve_data_path(args.ckpt)
    out = Path(args.out)
    write_manifest(out, "bench",
                   {**cfg, "batches": ",".join(map(str, args.batches))},
                   args.seed, inputs=[ckpt])
    params, T = checkpoint.load_policy(ckpt)
    rows = evaluation.bench_inference(params, args.batches, T=T)
    _emit(out / "bench.tsv", evaluation.bench_tsv(rows))
    return 0


_COMMANDS = {
    "prep": _cmd_prep,
    "detector-train": _cmd_detector_train,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "matrix": _cmd_matrix,
    "game": _cmd_game,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.error("a subcommand is required")
        cfg = _load_cfg(args)
        return _COMMANDS[args.command](args, cfg)
    except (UsageError, ContractError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except (DataError, DgaLabError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
