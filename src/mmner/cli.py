"""Command-line surface: train, eval, predict, stats, kappa, gradcheck,
selftest.

Exit codes: 0 on success, 1 on runtime failure (message on stderr), 2 on
usage errors (argparse). A --config file uses line-oriented `key = value`
pairs with TrainConfig field names, each key at most once; explicit flags
override file values. Each train flag's dest is its TrainConfig field.
Every text file mmner reads goes through `data.read_text`: UTF-8, a leading
byte-order mark dropped; bytes that are not UTF-8 fail naming the file and
line. Its lines end at "\n", "\r\n" or "\r" only; other Unicode line breaks
(U+2028, U+0085, form feed, ...) are line content.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from mmner import __version__
from mmner.autodiff import ContractError, NumericError
from mmner.checkpoint import write_atomic
from mmner.data import (Corpus, CorpusError, ImageStore, SentenceExample, cohens_kappa,
                        dataset_stats, iob2_blocks, read_text, serialize_iob2)
from mmner.training import TrainConfig, evaluate_model, load_run, load_split, read_config, train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmner",
        description="Multilingual/multimodal NER: train, evaluate, predict, corpus tooling.",
    )
    parser.add_argument("--version", action="version", version=f"mmner {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p):
        p.add_argument("--config", type=Path, help="key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None, help="CRF loss weight")
        p.add_argument("--tau", type=float, default=None, help="contrastive temperature")
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--batch", dest="batch_size", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--dropout", type=float, default=None)
        p.add_argument("--no-vit", dest="use_vit", action="store_const",
                       const=False, default=None)
        p.add_argument("--no-resnet", dest="use_resnet", action="store_const",
                       const=False, default=None)
        p.add_argument("--no-contrastive", dest="use_contrastive", action="store_const",
                       const=False, default=None)
        p.add_argument("--mask-invalid-transitions", dest="mask_invalid_transitions",
                       action="store_const", const=True, default=None)
        p.add_argument("--repair", dest="repair", action="store_const",
                       const=True, default=None)
        p.add_argument("--stop-at-f1", dest="stop_at_f1", type=float, default=None)

    p_train = sub.add_parser("train", help="train a model on <root>/{train,dev}.iob2")
    p_train.add_argument("data_root", type=Path)
    p_train.add_argument("--images", type=Path, default=None)
    p_train.add_argument("--out", type=Path, default=None)
    add_train_flags(p_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on one corpus split")
    p_eval.add_argument("data_root", type=Path)
    p_eval.add_argument("--checkpoint", type=Path, required=True,
                        help="run directory written by train --out")
    p_eval.add_argument("--split", default="test")
    p_eval.add_argument("--images", type=Path, default=None)
    p_eval.add_argument("--repair", action="store_true")

    p_pred = sub.add_parser("predict", help="label sentences with a trained model")
    p_pred.add_argument("input", type=Path,
                        help="IOB2 blocks (labels optional) or, with --raw, "
                             "one whitespace-tokenized sentence per line")
    p_pred.add_argument("--checkpoint", type=Path, required=True)
    p_pred.add_argument("--images", type=Path, default=None)
    p_pred.add_argument("--raw", action="store_true")
    p_pred.add_argument("--out", type=Path, default=None)

    p_stats = sub.add_parser("stats", help="entity/sentence counts per language and split")
    p_stats.add_argument("data_root", type=Path)
    p_stats.add_argument("--splits", default="train,dev,test")
    p_stats.add_argument("--repair", action="store_true")

    p_kappa = sub.add_parser("kappa", help="Cohen's kappa from an agreement count table")
    p_kappa.add_argument("table", type=Path,
                         help="text file, one whitespace-separated count row per line")

    sub.add_parser("gradcheck", help="finite-difference checks for ops and blocks")
    sub.add_parser("selftest", help="enumeration/direct-summation oracle checks")
    return parser


def merged_train_config(args) -> TrainConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
                 if getattr(args, f.name) is not None}
    return TrainConfig(**overrides) if args.config is None else read_config(args.config, overrides)


def cmd_train(args) -> int:
    config = merged_train_config(args)
    result = train(config, args.data_root, images_dir=args.images, out_dir=args.out)
    print(result.report_text())
    print()
    print(result.kv_lines())
    return 0


def cmd_eval(args) -> int:
    model, vocab, _config = load_run(args.checkpoint)
    corpus = load_split(Path(args.data_root), args.split, repair=args.repair)
    if corpus is None:
        raise ContractError(f"no {args.split}.iob2 under {args.data_root}")
    images = ImageStore(args.images if args.images is not None else Path(args.data_root) / "images",
                        model.config.image_size)
    report = evaluate_model(model, corpus, vocab, images)
    print(report.format_table())
    print()
    print(report.kv_lines())
    return 0


def read_predict_input(path: Path, raw: bool) -> list[SentenceExample]:
    """Sentences to label; gold labels, if present, are ignored."""
    text = read_text(path)
    examples: list[SentenceExample] = []
    if raw:
        for line in text.split("\n"):
            tokens = line.split()
            if tokens:
                examples.append(SentenceExample(tokens, ["O"] * len(tokens), ""))
        return examples
    return [
        SentenceExample([row.split("\t")[0] for _, row in block.rows], ["O"] * len(block.rows),
                        block.image_ref or "", block.language)
        for block in iob2_blocks(text) if block.rows
    ]


def cmd_predict(args) -> int:
    if args.out is not None and args.out.is_dir():
        raise ContractError(f"--out {args.out} is a directory")
    if args.out is not None and not args.out.parent.is_dir():
        raise ContractError(f"--out {args.out}: {args.out.parent} is not a directory")
    model, vocab, _config = load_run(args.checkpoint)
    examples = read_predict_input(args.input, args.raw)
    images = ImageStore(args.images, model.config.image_size)
    tags = model.decode([vocab.encode(ex.tokens) for ex in examples],
                        [images.load(ex.image_ref) for ex in examples])
    output = serialize_iob2(Corpus([
        SentenceExample(ex.tokens, t, ex.image_ref or "none", ex.language)
        for ex, t in zip(examples, tags)]))
    if args.out is not None:
        write_atomic(args.out, output.encode("utf-8"))
    else:
        sys.stdout.write(output)
    return 0


def cmd_stats(args) -> int:
    corpora = {}
    for split in args.splits.split(","):
        split = split.strip()
        corpus = load_split(Path(args.data_root), split, repair=args.repair)
        if corpus is not None:
            corpora[split] = corpus
    if not corpora:
        corpora = {"train": Corpus([])}
    print(dataset_stats(corpora).format_table())
    return 0


def cmd_kappa(args) -> int:
    rows = []
    for line_no, line in enumerate(read_text(args.table).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            raise ContractError(f"{args.table}:{line_no}: non-numeric count in {line!r}") from None
        if not np.isfinite(row).all():
            raise ContractError(f"{args.table}:{line_no}: non-finite count in {line!r}")
        if rows and len(row) != len(rows[0]):
            raise ContractError(
                f"{args.table}:{line_no}: {len(row)} counts, first row has {len(rows[0])}")
        rows.append(row)
    try:
        kappa = cohens_kappa(np.array(rows))
    except ContractError as exc:
        raise ContractError(f"{args.table}: {exc}") from None
    print(kappa)
    return 0


def cmd_check(args) -> int:
    """gradcheck or selftest: one line per check case, exit 1 if any fails."""
    from mmner import selftest
    results = selftest.gradient_suite() if args.command == "gradcheck" else selftest.oracle_suite()
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "stats": cmd_stats,
    "kappa": cmd_kappa,
    "gradcheck": cmd_check,
    "selftest": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return COMMANDS[args.command](args)
    except (ContractError, CorpusError, NumericError, FloatingPointError, ValueError,
            OSError) as exc:
        print(f"mmner: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
