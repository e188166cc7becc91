"""Command-line entry points: gen, run, report, diff.

Seed precedence: --seed flag, then the config file, then the MSR_SEED
environment variable, then 42. The master seed fans out to every module
stream through labeled derivation, so one flag reproduces a whole experiment.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .config import RunConfig
from .dataset import MODALITIES, generate, save
from .diff import differences
from .errors import ConfigError, MsrError, ParseError
from .evaluation import markdown_from_values, parse_report_csv
from .pipeline import execute_run

SEED_ENV = "MSR_SEED"


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _load_config(path: str | None) -> tuple:
    """(RunConfig, raw mapping) for the given path, defaults when absent."""
    if path is None:
        return RunConfig(), {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, an integer too long to read
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError(f"{path}: invalid JSON: nesting too deep") from None
    return RunConfig.from_mapping(raw), raw


def _resolve_seed(flag_seed, raw_config: dict, cfg: RunConfig) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in raw_config:
        return cfg.seed
    env = _env_seed()
    if env is not None:
        return env
    return cfg.seed


def _apply_seed(cfg: RunConfig, seed: int, raw: dict) -> RunConfig:
    """Master seed onto the run; the generator follows unless the config file
    pinned its own generator seed."""
    generator = cfg.generator
    if "seed" not in raw.get("generator", {}):
        generator = dataclasses.replace(generator, seed=seed)
    return dataclasses.replace(cfg, seed=seed, generator=generator)


def check_out_file(path: str) -> None:
    """Fail unless `save` can write a file at `path`: it is not a directory
    and its parent is one, so that `gen` fails before it generates anything.
    Creates nothing."""
    if os.path.isdir(path):
        raise ConfigError(f"output file {path} is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ConfigError(f"output file {path}: {parent} is not a directory")


def cmd_gen(args) -> int:
    check_out_file(args.out)
    cfg, raw = _load_config(args.config)
    seed = _resolve_seed(args.seed, raw, cfg)
    cfg = _apply_seed(cfg, seed, raw)
    generator = cfg.generator
    if args.n is not None:
        generator = dataclasses.replace(generator, n_per_modality=args.n)
    dataset = generate(generator)
    save(dataset, args.out)
    for modality in MODALITIES:
        print(f"{modality}: {dataset.meta['counts'][modality]} records")
    print(f"total: {sum(dataset.meta['counts'].values())} records -> {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg, raw = _load_config(args.config)
    seed = _resolve_seed(args.seed, raw, cfg)
    cfg = _apply_seed(cfg, seed, raw)
    updates = {}
    if args.data is not None:
        updates["dataset_path"] = args.data
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.modality is not None:
        updates["modalities"] = (args.modality,)
    if args.out is not None:
        updates["out_dir"] = args.out
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    result = execute_run(cfg)
    for modality in cfg.modalities:
        print(f"{modality}: report_{modality}.csv")
    print(f"trace: {result.trace_path}")
    print(f"alignment holdout accuracy: {result.alignment_accuracy:.3f}")
    print(f"outputs in {result.out_dir}")
    return 0


def cmd_report(args) -> int:
    # every comparison with nan is false, so a nan band would flag nothing
    if args.band is not None and math.isnan(args.band):
        raise ConfigError(f"--band must be a number, got {args.band}")
    directory = args.out
    wanted = (args.modality,) if args.modality else MODALITIES
    values = {}
    for modality in wanted:
        path = os.path.join(directory, f"report_{modality}.csv")
        if not os.path.exists(path):
            if args.modality:
                raise ConfigError(f"missing report file {path}")
            continue
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values[modality] = parse_report_csv(fh.read())
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not values:
        raise ConfigError(f"no report_<modality>.csv files found in {directory}")
    print(markdown_from_values(values, band=args.band))
    return 0


def cmd_diff(args) -> int:
    lines = differences(args.run_a, args.run_b)
    for line in lines:
        print(line)
    if not lines:
        print(f"no difference between {args.run_a} and {args.run_b}")
    return 1 if lines else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msr",
        description="Deterministic multi-scenario reasoning harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset file")
    gen.add_argument("--config", help="run config JSON (generator section used)")
    gen.add_argument("--seed", type=int, help="master seed")
    gen.add_argument("--n", type=int, help="records per modality")
    gen.add_argument("--out", default="dataset.json", help="output dataset path")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run the pipeline and write reports")
    run.add_argument("--config", help="run config JSON")
    run.add_argument("--data", help="dataset file (otherwise generated in memory)")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--out", help="output directory")
    run.add_argument("--modality", choices=MODALITIES, help="restrict to one modality")
    run.add_argument("--workers", type=int, help="parallel workers for scoring")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="render Markdown from report CSVs")
    rep.add_argument("--out", required=True, help="directory holding report_<modality>.csv")
    rep.add_argument("--modality", choices=MODALITIES, help="restrict to one modality")
    rep.add_argument("--band", type=float, help="flag metric cells below this value")
    rep.set_defaults(func=cmd_report)

    diff = sub.add_parser("diff", help="name the first difference between two run directories")
    diff.add_argument("run_a", metavar="RUN_A", help="output directory of one run")
    diff.add_argument("run_b", metavar="RUN_B", help="output directory of another run")
    diff.set_defaults(func=cmd_diff)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MsrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid or a generator config too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
