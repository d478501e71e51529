"""Single executable for every workflow: data prep, detector training,
feedback training, generation, evaluation, the experiment matrix, the
game-based defense loop, and throughput benchmarks.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort.
Data goes to stdout or files under --out; logs go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import sys
from pathlib import Path

from . import checkpoint, corpora, evaluation, training
from .baselines import FAMILIES
from .config import (cast_setting, parse_config, resolve_data_path,
                     write_manifest)
from .detectors import KINDS, load_detector, train_detector
from .detectors.base import KIND_TABLE, typed_hp
from .domains import CheckedNames, SeedSpace, check_tld
from .errors import ContractError, DataError, DgaLabError, NumericError
from .rng import stream_key

DGA_NAMES = (*FAMILIES, "pkdga")
# generate's flags that only pkdga reads -> default; a baseline refuses them
_PKDGA_FLAGS = {"ckpt": None, "start_date": _dt.date(2030, 1, 1),
                "mode": "sample"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _count(text: str, low: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(
            f"expected a {('non-negative', 'positive')[low]} integer, "
            f"got {text!r}")
    return value


def _batch_sizes(text: str) -> list[int]:
    return [_count(b) for b in text.split(",")]


class _InputFile(str):
    """An input file option as typed; ``main`` resolves it, against the
    working directory and then ``$DGALAB_DATA``, before the command runs."""


def _iso_date(text: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a YYYY-MM-DD date, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="dgalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, run, help, out_required=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out", type=Path, required=out_required,
                       help="output directory (manifest + results)")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        return p

    p = command("prep", _cmd_prep, "write benign and baseline-DGA corpora")
    p.add_argument("--benign", type=_count, default=5000)
    p.add_argument("--agd", type=_count, default=5000)
    p.add_argument("--dga", choices=tuple(FAMILIES), default="kraken")

    p = command("detector-train", _cmd_detector_train,
                "train one detector kind")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--benign", type=_InputFile, required=True,
                   help="benign corpus file")
    p.add_argument("--agd", type=_InputFile, required=True,
                   help="AGD corpus file")

    p = command("train", _cmd_train, "feedback-train the generator")
    p.add_argument("--env", type=_InputFile, required=True,
                   help="detector checkpoint")
    p.add_argument("--benign", type=_InputFile, required=True,
                   help="benign corpus seeding the registry")

    p = command("generate", _cmd_generate, "emit domains to stdout",
                out_required=False)
    p.add_argument("--dga", required=True, choices=DGA_NAMES)
    p.add_argument("--count", type=_count, default=10)
    p.add_argument("--ckpt", type=_InputFile,
                   help="policy checkpoint (pkdga only)")
    p.add_argument("--start-date", type=_iso_date,
                   help="first date seed (pkdga only); default 2030-01-01")
    p.add_argument("--tld", help="TLD of the names; default: data.tld")
    p.add_argument("--mode", choices=("sample", "argmax"), help="pkdga only")

    p = command("eval", _cmd_eval, "score a corpus pair against a detector")
    p.add_argument("--detector", type=_InputFile, required=True)
    p.add_argument("--benign", type=_InputFile, required=True)
    p.add_argument("--agd", type=_InputFile, required=True)

    p = command("matrix", _cmd_matrix, "anti-detection experiment matrix")
    p.add_argument("--benign", type=_InputFile, required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: the benchmark's matrix-zoo "
                        "command line passes it")

    p = command("game", _cmd_game, "game-based defense loop")
    p.add_argument("--detector", type=_InputFile, required=True,
                   help="neural detector ckpt")
    p.add_argument("--benign", type=_InputFile, required=True)
    p.add_argument("--stages", type=lambda text: _count(text, 0), default=3)

    p = command("bench", _cmd_bench, "inference throughput")
    p.add_argument("--ckpt", type=_InputFile, required=True)
    p.add_argument("--batches", type=_batch_sizes, default="8,32,128")
    return parser


def _keyed_fields(cls, section: str, **keys) -> dict:
    """{config key: field} for the fields of ``cls`` with a plain default:
    ``section.<field>``, or the key ``keys`` gives it (``None``: no key)."""
    return {key: f for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
            and (key := keys.get(f.name, f"{section}.{f.name}"))}


# dataclass -> {config key: the field it sets}
_FIELD_KEYS = {
    training.TrainConfig: _keyed_fields(training.TrainConfig, "train",
                                        tld="data.tld"),
    evaluation.GameConfig: _keyed_fields(evaluation.GameConfig, "game",
                                         fresh_samples="game.fresh"),
    evaluation.MatrixConfig: _keyed_fields(evaluation.MatrixConfig, "matrix",
                                           pkdga=None),
}
# every config key some command reads -> its default, whose type is the
# key's type (a comma list for a tuple)
SETTINGS = {
    **{key: f.default for keyed in _FIELD_KEYS.values()
       for key, f in keyed.items()},
    "matrix.dgas": tuple(FAMILIES),
    "matrix.pkdga": True,
    "env.budget": 1_000_000,
    "env.audit": False,
    "seeds.start_date": _dt.date(2020, 1, 1),
    "seeds.end_date": _dt.date(2039, 12, 31),
    "detector.split": 0.8,
}
# the config file's vocabulary: every setting, and detector.<kind>.<key>
# for each hyperparameter of each kind; any other key ends the run
_KNOWN_KEYS = {*SETTINGS, *(f"detector.{kind}.{key}"
                            for kind, entry in KIND_TABLE.items()
                            for key in entry.hp)}


def _config(cls, settings: dict, **fields):
    """``cls`` with each keyed field set from ``settings``."""
    return cls(**{f.name: settings[key]
                  for key, f in _FIELD_KEYS[cls].items()}, **fields)


def _load_cfg(path) -> tuple[dict, dict, dict]:
    """The config file's lines, raw; every setting, cast from them or its
    default; and each kind's typed hyperparameters, once each check that
    needs only the config has passed."""
    cfg = parse_config(path) if path else {}
    for key in cfg:
        if key not in _KNOWN_KEYS:
            raise UsageError(f"config key {key!r} is not read by any command")
    settings = {key: cast_setting(key, cfg.get(key, ""), default)
                for key, default in SETTINGS.items()}
    hp = {kind: typed_hp(kind, _detector_hp(cfg, kind)) for kind in KINDS}
    _config(evaluation.GameConfig, settings,
            train_cfg=_config(training.TrainConfig, settings))
    _config(evaluation.MatrixConfig, settings)
    SeedSpace(settings["seeds.start_date"], settings["seeds.end_date"])
    check_tld(settings["data.tld"])
    if not 0 < settings["detector.split"] < 1:
        raise ContractError("detector.split must lie in (0, 1)")
    if settings["env.budget"] < 0:
        raise ContractError("env.budget must be at least 0")
    for key, known, what in (("matrix.detectors", KINDS, "detector kind"),
                             ("matrix.dgas", FAMILIES, "generator")):
        for i, name in enumerate(settings[key]):
            if name not in known:
                raise DataError(f"{key}: unknown {what} {name!r}")
            if name in settings[key][:i]:
                raise DataError(f"{key}: repeated {what} {name!r}")
    return cfg, settings, hp


def _detector_hp(cfg: dict, kind: str) -> dict:
    """The config's ``detector.<kind>.<key>`` values, as text; a key with an
    empty value counts as absent."""
    return {key: value for key in KIND_TABLE[kind].hp
            if (value := cfg.get(f"detector.{kind}.{key}", "")) != ""}


def _baseline_names(family, seed, count, tld) -> CheckedNames:
    # every core is 1-63 characters of a-z and 0-9; check_tld passed tld
    return CheckedNames(f"{core}.{tld}"
                        for core in FAMILIES[family](seed, count))


def _emit(path: Path, text) -> None:     # a str, or str pieces
    with path.open("w", encoding="utf-8") as out:
        out.writelines([text] if isinstance(text, str) else text)
    print(f"wrote {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands: ``main`` has resolved every input file in ``args`` and written
# the manifest under ``args.out``; each also gets the settings and every
# kind's typed hyperparameters

def _cmd_prep(args, settings, hp):
    benign = corpora.synthesize_benign(args.benign, rng_seed=args.seed)
    corpora.save_domains(args.out / "benign.txt", benign)
    gen_seed = stream_key("prep", args.seed) % (2 ** 31)
    names = _baseline_names(args.dga, gen_seed, args.agd, settings["data.tld"])
    corpora.save_domains(args.out / f"{args.dga}.txt", names)
    return 0


def _cmd_detector_train(args, settings, hp):
    corpus = corpora.LabeledCorpus(corpora.load_domains(args.benign),
                                   corpora.load_domains(args.agd))
    train_part, test_part = evaluation.split_dataset(
        corpus, settings["detector.split"], args.seed)
    model = train_detector(args.kind, train_part, hp=hp[args.kind],
                           rng_seed=args.seed)
    model.save(args.out / "detector.ckpt")
    roc = evaluation.detection_auc(model, train_part.benign, train_part.agd)
    roc_test = evaluation.detection_auc(model, test_part.benign, test_part.agd)
    _emit(args.out / "metrics.tsv",
          "split\tauc\tanti_detection\n"
          f"train\t{roc.auc:.6f}\t{1 - roc.auc:.6f}\n"
          f"test\t{roc_test.auc:.6f}\t{1 - roc_test.auc:.6f}\n")
    print(f"wrote {args.out / 'detector.ckpt'}", file=sys.stderr)
    return 0


def _cmd_train(args, settings, hp):
    tc = _config(training.TrainConfig, settings)
    result = training.campaign(
        load_detector(args.env),
        training.Registry(corpora.load_domains(args.benign)), tc,
        settings["env.budget"], args.seed,
        space=SeedSpace(settings["seeds.start_date"],
                        settings["seeds.end_date"]),
        audit=args.out / "audit.tsv" if settings["env.audit"] else None)
    checkpoint.save_policy(args.out / "policy.ckpt", result.best_params,
                           tc.length)
    curve = "".join(f"{i}\t{r:.6f}\n" for i, r in enumerate(result.curve))
    _emit(args.out / "reward_curve.tsv", "epoch\tmean_reward\n" + curve)
    best = (f"best reward {result.best_reward:.4f} at epoch "
            f"{result.best_epoch}" if result.curve else "no epoch completed")
    print(f"{best}; {result.queries_used} register calls; stopped: "
          f"{result.stopped}", file=sys.stderr)
    return 3 if result.stopped == "numeric" else 0


def _cmd_generate(args, settings, hp):
    if args.dga == "pkdga":
        params, T = checkpoint.load_policy(args.ckpt)
        names = training.generate_domains(params, args.count, args.start_date,
                                          T=T, tld=args.tld, mode=args.mode)
    else:
        names = _baseline_names(args.dga, args.seed, args.count,
                                check_tld(args.tld))
    sys.stdout.write("\n".join(names) + "\n")
    return 0


def _cmd_eval(args, settings, hp):
    model = load_detector(args.detector)
    roc = evaluation.detection_auc(model, corpora.load_domains(args.benign),
                                   corpora.load_domains(args.agd))
    _emit(args.out / "roc.csv", roc.csv())
    _emit(args.out / "summary.tsv",
          "auc\tanti_detection\n"
          f"{roc.auc:.6f}\t{1 - roc.auc:.6f}\n")
    print(f"auc {roc.auc:.6f}", file=sys.stderr)
    return 0


def _cmd_matrix(args, settings, hp):
    benign = corpora.load_domains(args.benign)
    detectors = settings["matrix.detectors"]
    pkdga = (_config(training.TrainConfig, settings)
             if settings["matrix.pkdga"] else None)
    mc = _config(evaluation.MatrixConfig, settings, pkdga=pkdga,
                 detector_hp=hp)
    dgas = {family: lambda count, key, family=family: _baseline_names(
        family, stream_key(key) % 2 ** 31, count, settings["data.tld"])
        for family in settings["matrix.dgas"]}
    matrix = evaluation.run_matrix(dgas, benign, mc, master_seed=args.seed)
    for det in detectors:
        _emit(args.out / f"matrix_{det}.tsv", matrix.fig_tsv(det))
    if mc.include_mixed:
        _emit(args.out / "anti_detection_by_detector.tsv", matrix.table_tsv())
    for cell, err in sorted(matrix.failures.items()):
        print(f"cell {cell} failed: {err}", file=sys.stderr)
    if matrix.failures:
        raise DataError(f"{len(matrix.failures)} of "
                        f"{len(matrix.rows) * len(detectors)} matrix cells "
                        "failed")
    return 0


def _cmd_game(args, settings, hp):
    detector = load_detector(args.detector)
    benign = corpora.load_domains(args.benign)
    cut = max(1, int(len(benign) * 0.8))
    game_cfg = _config(evaluation.GameConfig, settings,
                       train_cfg=_config(training.TrainConfig, settings))
    results = evaluation.game_loop(detector, benign[:cut], benign[cut:],
                                   stages=args.stages, cfg=game_cfg,
                                   master_seed=args.seed)
    lines = ["stage\tdetector_auc\tpkdga_reward\tagds"]
    for r in results:
        reward = "" if r.reward is None else f"{r.reward:.6f}"
        lines.append(f"{r.stage}\t{r.detector_auc:.6f}\t{reward}\t{r.agds_used}")
    _emit(args.out / "stages.tsv", "\n".join(lines) + "\n")
    return 0


def _cmd_bench(args, settings, hp):
    params, T = checkpoint.load_policy(args.ckpt)
    rows = evaluation.bench_inference(params, args.batches, T=T)
    _emit(args.out / "bench.tsv", evaluation.bench_tsv(rows))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.error("a subcommand is required")
        cfg, settings, hp = _load_cfg(args.config)
        if args.command == "generate":
            for flag, default in _PKDGA_FLAGS.items():
                if args.dga == "pkdga":
                    setattr(args, flag, getattr(args, flag) or default)
                elif getattr(args, flag) is not None:
                    raise UsageError(f"--{flag.replace('_', '-')} applies "
                                     "to --dga pkdga only")
            if args.dga == "pkdga" and not args.ckpt:
                raise UsageError("--ckpt is required for --dga pkdga")
            if args.tld is None:        # the flag overrides the file
                args.tld = settings["data.tld"]
        options = {k: v for k, v in vars(args).items()
                   if k not in ("command", "run")}
        inputs = {name: resolve_data_path(value)
                  for name, value in options.items()
                  if isinstance(value, _InputFile)}
        if args.out is not None:
            write_manifest(args.out, args.command, args.seed, config=cfg,
                           options=options, settings=settings,
                           hyperparameters=hp, inputs=inputs.values(),
                           blas_thread_setter=(
                               evaluation.blas_thread_setter() is not None))
        vars(args).update(inputs)
        return args.run(args, settings, hp)
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
