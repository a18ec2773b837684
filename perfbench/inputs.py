"""Seeded input generators for the benchmark workloads.

Everything the program under test reads is written here: IOB2 corpora,
raw-text input and binary PPM images. The generators use only numpy and
the standard library, so a change to the program or to its test fixtures
cannot change a workload's inputs. The same seed always gives the same
bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The train_short corpus reproduces tests/fixtures_util.build_overfit_fixture
# byte for byte (same word lists, same token and label pattern, same noise
# images for the same seed).
FIRST_NAMES = ["Ana", "Boris", "Carla", "Derek", "Elena", "Farid", "Gina", "Hugo"]
LAST_NAMES = ["Moreno", "Keller", "Ostrov", "Pujols", "Quinn", "Ruiz"]
PLACES = ["Paris", "Lima", "Oslo", "Kyoto", "Quito", "Hanoi", "Reno", "Turin"]
FILLERS = [
    "visited", "near", "today", "crowds", "cheered", "in", "quiet", "morning",
    "the", "reporters", "gathered", "at", "sunset", "while", "locals", "watched",
    "a", "parade", "passed", "by", "slowly", "then", "stopped",
]

# Extra entity vocabulary for the long and raw sentences.
ORGS = [["United", "Nations"], ["Red", "Cross"], ["Acme", "Corp"], ["FIFA"],
        ["World", "Health", "Organization"], ["Nordbank"], ["Lumen", "Labs"]]
MISCS = [["Olympic", "Games"], ["Euro"], ["Nobel", "Prize"], ["Tour", "de", "France"],
         ["Ramadan"], ["Open"]]
# Tokens that never enter the vocabulary, so raw input exercises UNK.
UNKNOWN = ["zyxt", "qwopr", "blarn"]

IMAGE_SIZE = 32


def lexicon() -> list[str]:
    """Every in-vocabulary token the generators emit, in a fixed order."""
    tokens: list[str] = []
    for group in (FIRST_NAMES, LAST_NAMES, PLACES, FILLERS,
                  [t for span in ORGS for t in span], [t for span in MISCS for t in span]):
        for tok in group:
            if tok not in tokens:
                tokens.append(tok)
    return tokens


def write_ppm(path: Path, image: np.ndarray) -> None:
    """float (3, H, W) in [0, 1] -> binary PPM (P6, maxval 255)."""
    _, h, w = image.shape
    body = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(body.transpose(1, 2, 0).tobytes())


def noise_image(rng: np.random.Generator, base_rgb, size: int) -> np.ndarray:
    img = np.empty((3, size, size))
    for c in range(3):
        img[c] = base_rgb[c] + rng.uniform(-0.05, 0.05, (size, size))
    return np.clip(img, 0.0, 1.0)


def _write_blocks(path: Path, blocks: list[str]) -> None:
    path.write_text("\n\n".join(blocks) + "\n\n", encoding="utf-8")


def overfit_corpus(root: Path, seed: int, n_sentences: int = 32) -> Path:
    """5-token PER/LOC sentences, one colour-coded 16x16 image each,
    written as root/train.iob2 and root/images/."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n_sentences):
        first = FIRST_NAMES[i % len(FIRST_NAMES)]
        last = LAST_NAMES[i % len(LAST_NAMES)]
        place = PLACES[i % len(PLACES)]
        f1 = FILLERS[i % len(FILLERS)]
        f2 = FILLERS[(i * 7 + 3) % len(FILLERS)]
        if i % 2 == 0:
            tokens = [first, last, f1, place, f2]
            labels = ["B-PER", "I-PER", "O", "B-LOC", "O"]
            base = (0.85, 0.2, 0.2)
        else:
            tokens = [place, f1, first, last, f2]
            labels = ["B-LOC", "O", "B-PER", "I-PER", "O"]
            base = (0.2, 0.2, 0.85)
        stem = f"ov{i:03d}"
        write_ppm(root / "images" / f"{stem}.ppm", noise_image(rng, base, 16))
        lines = ["LANG:en", f"IMGID:{stem}"]
        lines += [f"{t}\t{l}" for t, l in zip(tokens, labels)]
        blocks.append("\n".join(lines))
    _write_blocks(root / "train.iob2", blocks)
    return root


def _entity(rng: np.random.Generator) -> tuple[str, list[str]]:
    kind = ("PER", "LOC", "ORG", "MISC")[int(rng.integers(4))]
    if kind == "PER":
        span = [FIRST_NAMES[int(rng.integers(len(FIRST_NAMES)))]]
        if rng.random() < 0.6:
            span.append(LAST_NAMES[int(rng.integers(len(LAST_NAMES)))])
    elif kind == "LOC":
        span = [PLACES[int(rng.integers(len(PLACES)))]]
    elif kind == "ORG":
        span = ORGS[int(rng.integers(len(ORGS)))]
    else:
        span = MISCS[int(rng.integers(len(MISCS)))]
    return kind, list(span)


def tagged_sentence(rng: np.random.Generator, length: int) -> tuple[list[str], list[str]]:
    """Exactly `length` tokens of fillers and PER/LOC/ORG/MISC spans (IOB2)."""
    tokens: list[str] = []
    labels: list[str] = []
    while len(tokens) < length:
        if rng.random() < 0.3:
            kind, span = _entity(rng)
            tokens += span
            labels += [f"B-{kind}"] + [f"I-{kind}"] * (len(span) - 1)
        else:
            tokens.append(FILLERS[int(rng.integers(len(FILLERS)))])
            labels.append("O")
    return tokens[:length], labels[:length]


def long_corpus(root: Path, seed: int, n_sentences: int,
                min_len: int = 30, max_len: int = 62) -> Path:
    """Ragged min_len..max_len-token sentences with a distinct 32x32 image
    each, written as root/test.iob2 and root/images/."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n_sentences):
        tokens, labels = tagged_sentence(rng, int(rng.integers(min_len, max_len + 1)))
        stem = f"long{i:04d}"
        write_ppm(root / "images" / f"{stem}.ppm",
                  noise_image(rng, rng.uniform(0.1, 0.9, 3), IMAGE_SIZE))
        lines = ["LANG:en", f"IMGID:{stem}"]
        lines += [f"{t}\t{l}" for t, l in zip(tokens, labels)]
        blocks.append("\n".join(lines))
    _write_blocks(root / "test.iob2", blocks)
    return root


def raw_text(path: Path, seed: int, n_sentences: int,
             min_len: int = 5, max_len: int = 12) -> Path:
    """One whitespace-tokenized sentence per line, some with unknown words."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_sentences):
        tokens, _ = tagged_sentence(rng, int(rng.integers(min_len, max_len + 1)))
        if rng.random() < 0.3:
            tokens[int(rng.integers(len(tokens)))] = UNKNOWN[int(rng.integers(len(UNKNOWN)))]
        lines.append(" ".join(tokens))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)
