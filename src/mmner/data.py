"""Corpus ingestion and tooling: IOB2 files, PPM images, vocabulary,
batching, dataset statistics, inter-annotator kappa.

IOB2 file grammar (one sentence block, repeated, blank-line separated):

    LANG:<code>          optional, one of en/fr/es/de (else "unk")
    IMGID:<stem>         required; names <stem>.ppm in the image directory
    <token>\t<label>     one line per token
    <blank line>

`iob2_blocks` is the one reader of this grammar. Headers count only in
header position: any LANG lines, then at most one IMGID line; every later
line of the block is a token row, even one that starts with LANG: or IMGID:.
`parse_iob2` validates its blocks against the grammar above. `mmner predict`
reads the same blocks more loosely: the label column and the IMGID line are
optional (a row's token is its first tab field), and a LANG code is kept as
written.

Images are binary PPM (P6, maxval 255) only. A sentence with several
images appears as several duplicated blocks, one per IMGID.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from mmner.autodiff import ContractError
from mmner.crf import ENTITY_TYPES, LabelSchema
from mmner.metrics import extract_spans

LANGUAGES = ("en", "fr", "es", "de")
PAD_ID = 0
UNK_ID = 1
SCHEMA = LabelSchema()


class CorpusError(ValueError):
    """Malformed corpus or image file."""


@dataclass
class SentenceExample:
    tokens: list[str]
    labels: list[str]
    image_ref: str
    language: str = "unk"

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ContractError(
                f"{len(self.tokens)} tokens vs {len(self.labels)} labels"
            )
        if len(self.tokens) < 1:
            raise ContractError("empty sentence")


@dataclass
class Corpus:
    examples: list[SentenceExample]
    split: str = "train"
    repaired_labels: int = 0

    def __len__(self) -> int:
        return len(self.examples)


class Iob2Block(NamedTuple):
    line: int                    # the block's first line
    language: str                # LANG code as written, or "unk"
    image_ref: str | None        # IMGID stem, None without an IMGID line
    image_line: int              # the IMGID line (0 without one)
    rows: list[tuple[int, str]]  # (line, text) of every line after the headers


def iob2_blocks(text: str) -> Iterator[Iob2Block]:
    """Split IOB2 text into its non-empty blocks, in file order.

    Header lines count only in header position: any LANG lines (the last
    one wins), then at most one IMGID line. Every later line of the block
    is a row, whatever it starts with. Rows are not parsed.
    """
    block: list[tuple[int, str]] = []
    for line_no, line in enumerate(text.splitlines() + [""], start=1):
        if line.strip():
            block.append((line_no, line))
            continue
        if not block:
            continue
        language, image_ref, image_line = "unk", None, 0
        i = 0
        while i < len(block) and block[i][1].startswith("LANG:"):
            language = block[i][1][len("LANG:"):].strip()
            i += 1
        if i < len(block) and block[i][1].startswith("IMGID:"):
            image_line, header = block[i]
            image_ref = header[len("IMGID:"):].strip()
            i += 1
        yield Iob2Block(block[0][0], language, image_ref, image_line, block[i:])
        block = []


def parse_iob2(path: str | Path, repair: bool = False, split: str = "train") -> Corpus:
    """Parse one IOB2 file into a Corpus, examples in file order.

    Every block needs an IMGID and `token<TAB>label` rows. A block of LANG
    lines alone is skipped. Label strings outside the tag set fail with the
    offending line number. A dangling I-X fails validation (or becomes B-X
    under repair=True, counted in Corpus.repaired_labels).
    """
    path = Path(path)
    examples: list[SentenceExample] = []
    repaired = 0
    for start, language, image_ref, image_line, rows in iob2_blocks(
            path.read_text(encoding="utf-8")):
        if image_ref is None:
            if not rows:
                continue
            raise CorpusError(f"{path}:{rows[0][0]}: expected IMGID line, got {rows[0][1]!r}")
        if not image_ref:
            raise CorpusError(f"{path}:{image_line}: empty IMGID")
        tokens, labels = [], []
        for line_no, line in rows:
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0]:
                raise CorpusError(f"{path}:{line_no}: expected 'token<TAB>label', got {line!r}")
            if fields[1] not in SCHEMA.tags:
                raise CorpusError(f"{path}:{line_no}: unknown label {fields[1]!r}")
            tokens.append(fields[0])
            labels.append(fields[1])
        if not tokens:
            raise CorpusError(f"{path}:{start}: IMGID block without token lines")
        bad = SCHEMA.iob2_violations(labels)
        if bad:
            if not repair:
                raise CorpusError(
                    f"{path}: sentence {len(examples)} (line {start}): "
                    f"I- tag without same-type opener at token position(s) {bad}"
                )
            labels, n = SCHEMA.repair(labels)
            repaired += n
        language = language if language in LANGUAGES else "unk"
        examples.append(SentenceExample(tokens, labels, image_ref, language))
    return Corpus(examples, split=split, repaired_labels=repaired)


def serialize_iob2(corpus: Corpus) -> str:
    """Inverse of parse_iob2 (bit-exact round trip of content)."""
    out = io.StringIO()
    for ex in corpus.examples:
        if ex.language != "unk":
            out.write(f"LANG:{ex.language}\n")
        out.write(f"IMGID:{ex.image_ref}\n")
        for token, label in zip(ex.tokens, ex.labels):
            out.write(f"{token}\t{label}\n")
        out.write("\n")
    return out.getvalue()


class Vocabulary:
    """Token -> id map built from the train split; PAD=0, UNK=1, case kept."""

    def __init__(self, tokens: Sequence[str] = ()):
        self._index: dict[str, int] = {}
        for tok in tokens:
            if tok not in self._index:
                self._index[tok] = len(self._index) + 2

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "Vocabulary":
        return cls([tok for ex in corpus.examples for tok in ex.tokens])

    def __len__(self) -> int:
        return len(self._index) + 2

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self._index.get(tok, UNK_ID) for tok in tokens]

    def tokens_in_order(self) -> list[str]:
        return sorted(self._index, key=self._index.__getitem__)


# ---------------------------------------------------------------------------
# PPM images


def read_ppm(path: str | Path) -> np.ndarray:
    """Binary PPM (P6, maxval 255) -> float array (3, H, W) in [0, 1]."""
    path = Path(path)
    blob = path.read_bytes()

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos:pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CorpusError(f"{path}: truncated PPM header")
        return blob[start:pos]

    magic = next_token()
    if magic != b"P6":
        raise CorpusError(f"{path}: not a binary PPM (magic {magic!r})")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError:
        raise CorpusError(f"{path}: non-numeric PPM header field") from None
    if maxval != 255:
        raise CorpusError(f"{path}: unsupported maxval {maxval} (need 255)")
    if width < 1 or height < 1:
        raise CorpusError(f"{path}: bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    data = blob[pos:pos + 3 * width * height]
    if len(data) != 3 * width * height:
        raise CorpusError(f"{path}: pixel payload truncated")
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.float64) / 255.0
    return arr.reshape(height, width, 3).transpose(2, 0, 1)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """float (3, H, W) in [0, 1] -> binary PPM file."""
    _, h, w = image.shape
    body = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(body.transpose(1, 2, 0).tobytes())


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center bilinear resampling: src = (dst + 0.5) * scale - 0.5,
    edge-clamped (the align_corners=False convention)."""
    c, h, w = image.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    out = np.empty((c, out_h, out_w))
    for ch in range(c):
        plane = image[ch]
        top = plane[np.ix_(y0, x0)] * (1 - wx) + plane[np.ix_(y0, x1)] * wx
        bot = plane[np.ix_(y1, x0)] * (1 - wx) + plane[np.ix_(y1, x1)] * wx
        out[ch] = top * (1 - wy) + bot * wy
    return out


DEFAULT_IMAGE_VALUE = 0.5  # mid-gray; normalizes to exactly zero


class ImageStore:
    """Loads <stem>.ppm files, resizing and normalizing to (3, R, R).

    Values land in [-1, 1] via (x - 0.5) / 0.5. A missing stem is replaced
    by flat mid-gray (all zeros after normalization), one array shared by
    every missing stem, and counted, never raised.
    """

    def __init__(self, directory: str | Path | None, resolution: int):
        self.directory = Path(directory) if directory is not None else None
        self.resolution = resolution
        self.missing_count = 0
        self._cache: dict[str, np.ndarray] = {}
        self._default = np.zeros((3, resolution, resolution))

    def _normalize(self, raw: np.ndarray) -> np.ndarray:
        r = self.resolution
        if raw.shape[1:] != (r, r):
            raw = bilinear_resize(raw, r, r)
        return (raw - DEFAULT_IMAGE_VALUE) / DEFAULT_IMAGE_VALUE

    def load(self, stem: str) -> np.ndarray:
        if stem in self._cache:
            return self._cache[stem]
        path = self.directory / f"{stem}.ppm" if self.directory is not None else None
        if path is None or not path.exists():
            self.missing_count += 1
            img = self._default
        else:
            img = self._normalize(read_ppm(path))
        self._cache[stem] = img
        return img


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    examples: list[SentenceExample]
    token_ids: list[list[int]]
    label_ids: list[list[int]]
    images: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.examples)


def make_batches(
    corpus: Corpus,
    batch_size: int,
    seed: int,
    shuffle: bool,
    vocab: Vocabulary,
    images: ImageStore,
) -> Iterator[Batch]:
    """Deterministic batch stream; file order when shuffle is off.

    Sequences are kept ragged per sentence (the model consumes sentences
    one at a time); padding to rectangular arrays happens in to_arrays().
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(corpus.examples))
    if shuffle:
        order = np.random.default_rng(seed).permutation(order)
    for lo in range(0, len(order), batch_size):
        chunk = [corpus.examples[i] for i in order[lo:lo + batch_size]]
        yield Batch(
            examples=chunk,
            token_ids=[vocab.encode(ex.tokens) for ex in chunk],
            label_ids=[SCHEMA.encode(ex.labels) for ex in chunk],
            images=[images.load(ex.image_ref) for ex in chunk],
        )


IGNORE_LABEL = -1


def to_arrays(batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rectangular views: padded ids (PAD), lengths, labels (IGNORE_LABEL
    on padding), stacked images."""
    n = len(batch)
    lengths = np.array([len(t) for t in batch.token_ids], dtype=np.intp)
    width = int(lengths.max()) if n else 0
    ids = np.full((n, width), PAD_ID, dtype=np.intp)
    labels = np.full((n, width), IGNORE_LABEL, dtype=np.intp)
    for i, (t, l) in enumerate(zip(batch.token_ids, batch.label_ids)):
        ids[i, :len(t)] = t
        labels[i, :len(l)] = l
    images = np.stack(batch.images) if batch.images else np.zeros((0, 3, 0, 0))
    return ids, lengths, labels, images


# ---------------------------------------------------------------------------
# statistics and agreement


@dataclass
class StatsReport:
    # (language, split) -> {entity_type: count}
    span_counts: dict[tuple[str, str], dict[str, int]]
    sentence_counts: dict[tuple[str, str], int]
    splits: tuple[str, ...]
    languages: tuple[str, ...]

    def total_spans(self, etype: str | None = None) -> int:
        total = 0
        for counts in self.span_counts.values():
            total += counts[etype] if etype else sum(counts.values())
        return total

    def format_table(self) -> str:
        cols = [(lang, split) for lang in self.languages for split in self.splits]
        header = ["Class".ljust(8)]
        header += [f"{lang}/{split}".rjust(10) for lang, split in cols]
        header.append("Total".rjust(10))
        lines = ["".join(header)]
        for etype in ENTITY_TYPES:
            row = [etype.ljust(8)]
            row += [str(self.span_counts.get(c, {}).get(etype, 0)).rjust(10) for c in cols]
            row.append(str(self.total_spans(etype)).rjust(10))
            lines.append("".join(row))
        total_row = ["Total".ljust(8)]
        total_row += [str(sum(self.span_counts.get(c, {}).values())).rjust(10) for c in cols]
        total_row.append(str(self.total_spans()).rjust(10))
        lines.append("".join(total_row))
        sent_row = ["Sents".ljust(8)]
        sent_row += [str(self.sentence_counts.get(c, 0)).rjust(10) for c in cols]
        sent_row.append(str(sum(self.sentence_counts.values())).rjust(10))
        lines.append("".join(sent_row))
        return "\n".join(lines)


def dataset_stats(corpora: Mapping[str, Corpus]) -> StatsReport:
    """Per-language x per-split entity-span and sentence counts."""
    span_counts: dict[tuple[str, str], dict[str, int]] = {}
    sentence_counts: dict[tuple[str, str], int] = {}
    languages: list[str] = []
    for split, corpus in corpora.items():
        for ex in corpus.examples:
            key = (ex.language, split)
            if ex.language not in languages:
                languages.append(ex.language)
            counts = span_counts.setdefault(key, {t: 0 for t in ENTITY_TYPES})
            sentence_counts[key] = sentence_counts.get(key, 0) + 1
            for span in extract_spans(ex.labels):
                counts[span.type] += 1
    return StatsReport(
        span_counts=span_counts,
        sentence_counts=sentence_counts,
        splits=tuple(corpora.keys()),
        languages=tuple(languages),
    )


def cohens_kappa(table: np.ndarray) -> float:
    """Chance-corrected agreement from a square label-pair count table.

    k = (p_o - p_e) / (1 - p_e) with p_o the diagonal mass and p_e the
    product of the marginals.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ContractError(f"agreement table must be square, got {table.shape}")
    if (table < 0).any():
        raise ContractError("agreement counts must be >= 0")
    total = table.sum()
    if total <= 0:
        raise ContractError("agreement table is empty")
    p_o = np.trace(table) / total
    p_e = float((table.sum(axis=1) * table.sum(axis=0)).sum()) / (total * total)
    if p_e == 1.0:
        raise ContractError("kappa undefined: expected agreement is 1")
    return float((p_o - p_e) / (1.0 - p_e))
