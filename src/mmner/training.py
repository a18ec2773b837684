"""Training assembly: composite loss, Adam with linear decay, the
train/eval loops, run reports, and checkpoint/sidecar handling.

A run directory holds three files: `model.ckpt` (binary checkpoint),
`vocab.txt` (one token per line, id order), and `config.cfg` (the same
`key = value` grammar the CLI's --config flag accepts), which together
are sufficient to rebuild the model for eval/predict. Each file is
replaced atomically (`checkpoint.write_atomic`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import ConfigError, ContractError, NumericError, Tensor, backward
from mmner.checkpoint import canonicalize, load_checkpoint, save_checkpoint, write_atomic
from mmner.data import Corpus, ImageStore, Vocabulary, make_batches, parse_iob2, read_text
from mmner.metrics import EvalReport, evaluate
from mmner.model import ModelConfig, MultimodalNerModel


@dataclass
class TrainConfig:
    alpha: float = 0.8
    lr: float = 5e-5
    batch_size: int = 16
    dropout: float = 0.1
    tau: float = 0.07
    epochs: int = 10
    seed: int = 0
    use_vit: bool = True
    use_resnet: bool = True
    use_contrastive: bool = True
    mask_invalid_transitions: bool = False
    repair: bool = False
    stop_at_f1: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ContractError(f"tau must be finite and > 0, got {self.tau}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.stop_at_f1 is not None and not 0.0 <= self.stop_at_f1 <= 1.0:
            raise ContractError(f"stop_at_f1 must be in [0, 1], got {self.stop_at_f1}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            dropout=self.dropout,
            use_vit=self.use_vit,
            use_resnet=self.use_resnet,
            use_contrastive=self.use_contrastive,
            mask_invalid_transitions=self.mask_invalid_transitions,
        )


_CONFIG_TYPES = {f.name: f.type for f in fields(TrainConfig)}
_KIND_NAMES = {"bool": "boolean", "int": "integer", "float": "number",
               "float | None": "number or none"}


def parse_config_text(text: str, path: str | Path) -> dict:
    """Line-oriented `key = value` (# comments and blank lines ignored);
    each key at most once. An error names `path` and the line."""
    values: dict = {}
    key_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = _CONFIG_TYPES.get(key)
        if kind is None:
            raise ContractError(f"{path}:{line_no}: unknown key {key!r}")
        if key in key_lines:
            raise ContractError(f"{path}:{line_no}: key {key} repeats line {key_lines[key]}")
        key_lines[key] = line_no
        try:
            values[key] = _coerce(kind, value)
        except ValueError:
            raise ContractError(f"{path}:{line_no}: key {key}: "
                                f"expected {_KIND_NAMES[kind]}, got {value!r}") from None
    return values


def read_config(path: str | Path, overrides: dict) -> TrainConfig:
    """The config file at `path` with `overrides` replacing its values; a file
    value out of range that no override replaces fails naming the file."""
    values = parse_config_text(read_text(path), path)
    try:
        TrainConfig(**{k: v for k, v in values.items() if k not in overrides})
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None
    return TrainConfig(**{**values, **overrides})


def _coerce(kind: str, value: str):
    """`value` as a field of type `kind`; ValueError if it is not one."""
    if kind == "bool":
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(value)
    if kind == "int":
        return int(value)
    if kind == "float | None" and value.lower() == "none":
        return None
    return float(value)


def format_config(config: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# optimization

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MAX_GRAD_NORM = 1.0


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear decay from base_lr at step 0 to exactly 0 at total_steps."""
    if total_steps < 1:
        raise ContractError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0:
        raise ContractError(f"step must be >= 0, got {step}")
    if step > total_steps:
        warnings.warn(f"lr_at: step {step} past total {total_steps}; clamping to 0")
        return 0.0
    return base_lr * (1.0 - step / total_steps)


class Adam:
    """Standard bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p.grad = None


def clip_global_norm(params: dict[str, Tensor]) -> float:
    """Scale all gradients so their joint L2 norm is at most MAX_GRAD_NORM."""
    total_sq = 0.0
    for p in params.values():
        if p.grad is not None:
            total_sq += float((p.grad * p.grad).sum())
    norm = math.sqrt(total_sq)
    if norm > MAX_GRAD_NORM:
        scale = MAX_GRAD_NORM / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def total_loss(crf_nll: Tensor, cl_vit: Tensor, cl_conv: Tensor, alpha: float) -> Tensor:
    """alpha * L_crf + (1 - alpha) * (L_cl' + L_cl'').

    The alpha = 1 and alpha = 0 endpoints return the respective terms
    themselves, so the identities hold bitwise.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 1.0:
        return crf_nll
    contrastive = ad.add(cl_vit, cl_conv)
    if alpha == 0.0:
        return contrastive
    return ad.add(ad.mul(Tensor(alpha), crf_nll),
                  ad.mul(Tensor(1.0 - alpha), contrastive))


# ---------------------------------------------------------------------------
# evaluation


def evaluate_model(model: MultimodalNerModel, corpus: Corpus,
                   vocab: Vocabulary, images: ImageStore) -> EvalReport:
    """Viterbi-decode every sentence and score spans against gold."""
    tags = model.decode([vocab.encode(ex.tokens) for ex in corpus.examples],
                        [images.load(ex.image_ref) for ex in corpus.examples])
    return evaluate([ex.labels for ex in corpus.examples], tags)


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class EpochLog:
    epoch: int
    loss: float
    crf_nll: float
    cl_vit: float
    cl_conv: float
    eval_f1: float


@dataclass
class TrainResult:
    epoch_logs: list[EpochLog]
    best_epoch: int
    best_f1: float
    final_report: EvalReport
    counters: dict[str, int]
    eval_split: str

    def report_text(self) -> str:
        lines = []
        for log in self.epoch_logs:
            lines.append(
                f"epoch {log.epoch}: loss={log.loss:.6f} crf={log.crf_nll:.6f} "
                f"cl_vit={log.cl_vit:.6f} cl_conv={log.cl_conv:.6f} "
                f"{self.eval_split}_f1={log.eval_f1:.4f}"
            )
        lines.append(f"best epoch {self.best_epoch} ({self.eval_split} F1 {self.best_f1:.4f})")
        lines.append("counters: " + " ".join(f"{k}={v}" for k, v in self.counters.items()))
        lines.append(self.final_report.format_table())
        return "\n".join(lines)

    def kv_lines(self) -> str:
        lines = []
        for log in self.epoch_logs:
            prefix = f"epoch.{log.epoch}"
            lines += [f"{prefix}.{f}={getattr(log, f):.12g}"
                      for f in ("loss", "crf_nll", "cl_vit", "cl_conv")]
            lines.append(f"{prefix}.{self.eval_split}_f1={log.eval_f1:.12g}")
        lines.append(f"best.epoch={self.best_epoch}")
        lines.append(f"best.f1={self.best_f1:.12g}")
        for key, value in self.counters.items():
            lines.append(f"counter.{key}={value}")
        lines.append(self.final_report.kv_lines())
        return "\n".join(lines)


def save_run_artifacts(out_dir: Path, model: MultimodalNerModel,
                       vocab: Vocabulary, config: TrainConfig) -> dict[str, np.ndarray]:
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab_text = "\n".join(vocab.tokens_in_order()) + "\n"
    write_atomic(out_dir / "vocab.txt", vocab_text.encode("utf-8"))
    write_atomic(out_dir / "config.cfg", format_config(config).encode("utf-8"))
    return save_checkpoint(model.parameters(), out_dir / "model.ckpt")


def load_run(out_dir: str | Path) -> tuple[MultimodalNerModel, Vocabulary, TrainConfig]:
    """Rebuild the trained model from a run directory's three artifacts.

    The model is built undrawn (seed None: no random init, no generator)
    and `load_parameters`, the one check of names, order and shapes, fills
    every parameter from the checkpoint; a mismatch error names its file."""
    out_dir = Path(out_dir)
    config = read_config(out_dir / "config.cfg", {})
    tokens = read_text(out_dir / "vocab.txt").split("\n")
    vocab = Vocabulary([t for t in tokens if t])
    model = MultimodalNerModel(config.model_config(), len(vocab), None)
    arrays = load_checkpoint(out_dir / "model.ckpt")
    try:
        model.load_parameters(arrays)
    except ConfigError as exc:
        raise ConfigError(f"{out_dir / 'model.ckpt'}: {exc}") from None
    return model, vocab, config


def load_split(root: Path, split: str, repair: bool = False) -> Corpus | None:
    path = root / f"{split}.iob2"
    if not path.exists():
        return None
    return parse_iob2(path, repair=repair, split=split)


def train(config: TrainConfig, data_root: str | Path,
          images_dir: str | Path | None = None,
          out_dir: str | Path | None = None) -> TrainResult:
    """Full training run; returns per-epoch logs and the best-model report.

    Model selection is by dev-split overall F1 (train-split F1 when no dev
    file exists), ties broken toward the earlier epoch. At each new best the
    live parameters are canonicalized to float32 precision (as a checkpoint
    stores them) and copied in memory, and, with an out_dir, the checkpoint
    and sidecars are written there; training goes on from the canonicalized
    state either way, so out_dir never changes the numbers. At the end the
    model is restored from the in-memory copy.

    A non-finite loss term raises NumericError naming the epoch and optimizer
    step before any parameter is updated. A NumericError or FloatingPointError
    (under the CLI's `np.errstate`) anywhere in a step, clipping and Adam
    included, gets that prefix too; one in an epoch's eval names that epoch,
    and one in the final eval says "final eval". The counters
    are facts about the data: eval-split tokens outside the vocabulary,
    distinct train/eval sentences longer than max_len - 2 tokens, missing
    images, repaired labels. An out_dir that cannot become a directory fails
    before any work.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        existing = next(p for p in (out_path, *out_path.parents) if p.exists())
        if not existing.is_dir():
            raise ContractError(f"{out_path}: {existing} is not a directory")
    root = Path(data_root)
    train_corpus = load_split(root, "train", repair=config.repair)
    if train_corpus is None or len(train_corpus) == 0:
        raise ContractError(f"no training data at {root / 'train.iob2'}")
    dev_corpus = load_split(root, "dev", repair=config.repair)
    eval_corpus = dev_corpus if dev_corpus is not None and len(dev_corpus) else train_corpus
    eval_split = "dev" if eval_corpus is dev_corpus else "train"

    vocab = Vocabulary.from_corpus(train_corpus)
    model_cfg = config.model_config()
    model = MultimodalNerModel(model_cfg, len(vocab), config.seed)
    images = ImageStore(Path(images_dir) if images_dir is not None else root / "images",
                        model_cfg.image_size)
    params = model.parameters()
    optimizer = Adam(params)

    steps_per_epoch = math.ceil(len(train_corpus) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch

    logs: list[EpochLog] = []
    best_f1 = -1.0
    best_epoch = -1
    best_arrays: dict[str, np.ndarray] = {}
    step = 0
    for epoch in range(1, config.epochs + 1):
        rows = []  # (loss, crf_nll, cl_vit, cl_conv) per step
        for batch in make_batches(train_corpus, config.batch_size,
                                  [config.seed, epoch], True, vocab, images):
            # one dropout stream per sentence, so masks do not depend on the batch's layout
            rngs = [np.random.default_rng([config.seed, 104729, step, i])
                    for i in range(len(batch.token_ids))]
            try:
                crf_nll, cl_vit, cl_conv = model.batch_losses(batch, rngs, tau=config.tau)
                terms = {"crf_nll": crf_nll.item(), "cl_vit": cl_vit.item(),
                         "cl_conv": cl_conv.item()}
                for name, value in terms.items():
                    if not math.isfinite(value):
                        raise NumericError(f"non-finite {name} = {value}")
                loss = total_loss(crf_nll, cl_vit, cl_conv, config.alpha)
                backward(loss)
                clip_global_norm(params)
                optimizer.step(lr_at(step, total_steps, config.lr))
            except (NumericError, FloatingPointError) as exc:
                raise NumericError(f"epoch {epoch} step {step}: {exc}") from None
            step += 1
            rows.append((loss.item(), *terms.values()))
        try:
            report = evaluate_model(model, eval_corpus, vocab, images)
        except (NumericError, FloatingPointError) as exc:
            raise NumericError(f"epoch {epoch} eval: {exc}") from None
        f1 = report.overall.f1
        logs.append(EpochLog(epoch, *(sum(column) / len(rows) for column in zip(*rows)), f1))
        if f1 > best_f1:
            best_f1 = f1
            best_epoch = epoch
            best_arrays = (canonicalize(params) if out_path is None  # as the save rounds them
                           else save_run_artifacts(out_path, model, vocab, config))
        if config.stop_at_f1 is not None and f1 >= config.stop_at_f1:
            break

    model.load_parameters(best_arrays)  # the best state, for the final report
    try:
        final_report = evaluate_model(model, eval_corpus, vocab, images)
    except (NumericError, FloatingPointError) as exc:
        raise NumericError(f"final eval: {exc}") from None

    counters = {
        "unk_tokens": sum(tok not in vocab for ex in eval_corpus.examples for tok in ex.tokens),
        "truncated_sentences": len({
            tuple(ex.tokens) for corpus in (train_corpus, eval_corpus) for ex in corpus.examples
            if model.text.lengths([ex.tokens])[0] < len(ex.tokens)
        }),
        "missing_images": images.missing_count,
        "repaired_labels": train_corpus.repaired_labels
        + (dev_corpus.repaired_labels if dev_corpus is not None else 0),
    }
    return TrainResult(logs, best_epoch, best_f1, final_report, counters, eval_split)
