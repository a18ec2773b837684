"""Synthetic corpus builders shared by training/CLI/acceptance tests."""

from pathlib import Path

import numpy as np

from mmner.autodiff import Tensor
from mmner.crf import NEG_INF
from mmner.data import write_ppm

FIRST_NAMES = ["Ana", "Boris", "Carla", "Derek", "Elena", "Farid", "Gina", "Hugo"]
LAST_NAMES = ["Moreno", "Keller", "Ostrov", "Pujols", "Quinn", "Ruiz"]
PLACES = ["Paris", "Lima", "Oslo", "Kyoto", "Quito", "Hanoi", "Reno", "Turin"]
FILLERS = [
    "visited", "near", "today", "crowds", "cheered", "in", "quiet", "morning",
    "the", "reporters", "gathered", "at", "sunset", "while", "locals", "watched",
    "a", "parade", "passed", "by", "slowly", "then", "stopped",
]


def bare_fusion_layout(params: dict) -> dict:
    """Named parameters (Tensors or arrays) as Tensors, with each fusion
    block's attention maps in the layout checkpoints held before every
    `SublayerBlock` drew its own maps: named `{key}_fusion.w{q,k,v,o}`,
    without the `attn.` prefix, and transposed, as each was drawn as a
    (d_out, d_in) matrix and stored as its transpose."""
    old = {}
    for name, value in params.items():
        w = value.data if isinstance(value, Tensor) else value
        key, _, role = name.partition(".")
        if key.endswith("_fusion") and role.startswith("attn."):
            name, w = f"{key}.{role.removeprefix('attn.')}", w.T
        old[name] = Tensor(w)
    return old


def stacked_fusion_layout(params: dict, heads: int) -> dict:
    """Named parameters (Tensors or arrays) as Tensors, with each fusion
    block's maps in the layout checkpoints held before the maps were stored
    as `ad.linear` reads them: wq, wk and wv as (heads, d/heads, d) stacks of
    per-head maps, that is w.T split by rows, and wo transposed."""
    stacked = {}
    for name, value in params.items():
        w = value.data if isinstance(value, Tensor) else value
        key, _, role = name.partition(".")
        if key.endswith("_fusion") and role in ("wq", "wk", "wv"):
            w = w.T.reshape(heads, w.shape[0] // heads, w.shape[0])
        elif key.endswith("_fusion") and role == "wo":
            w = w.T
        stacked[name] = Tensor(w)
    return stacked


def begin_end_crf_layout(params: dict) -> dict:
    """Named parameters (Tensors or arrays) as Tensors, with the CRF table in
    the (L+2)x(L+2) layout checkpoints held before one boundary tag took the
    place of BEGIN and END: a NEG_INF BEGIN column at L, a NEG_INF END row,
    and the end scores (column L of the (L+1)x(L+1) table) in column L+1."""
    old = {}
    for name, value in params.items():
        w = value.data if isinstance(value, Tensor) else value
        if name == "crf.transitions":
            table = np.full((len(w) + 1, len(w) + 1), NEG_INF)
            table[:-1, :-2] = w[:, :-1]
            table[:-1, -1] = w[:, -1]
            w = table
        old[name] = Tensor(w)
    return old


def _noise_image(rng, base_rgb, size=16):
    img = np.empty((3, size, size))
    for c in range(3):
        img[c] = base_rgb[c] + rng.uniform(-0.05, 0.05, (size, size))
    return np.clip(img, 0.0, 1.0)


def build_overfit_fixture(root: Path, n_sentences: int = 32, seed: int = 0) -> Path:
    """Small PER/LOC corpus (vocab around 50) with color-coded images.

    Images carry a class-correlated color field: red-leaning when the
    sentence leads with a person, blue-leaning when it leads with a place.
    """
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
        write_ppm(root / "images" / f"{stem}.ppm", _noise_image(rng, base))
        lines = [f"LANG:en", f"IMGID:{stem}"]
        lines += [f"{t}\t{l}" for t, l in zip(tokens, labels)]
        blocks.append("\n".join(lines))
    (root / "train.iob2").write_text("\n\n".join(blocks) + "\n\n", encoding="utf-8")
    return root


AMBIGUOUS_TOKEN = "Alex"

_TEMPLATES = [
    (["press", "met", AMBIGUOUS_TOKEN, "today"], 2),
    (["crowds", "saw", AMBIGUOUS_TOKEN, "arrive"], 2),
    ([AMBIGUOUS_TOKEN, "waved", "at", "dawn"], 0),
]


def build_multimodal_fixture(root: Path, n_train: int = 48, n_held_out: int = 16,
                             seed: int = 0) -> Path:
    """Corpus where the ambiguous token's tag is decidable only from the
    image: B-PER iff the image is red-dominant, O otherwise.

    Token sequences repeat across both classes, so a text-only model
    cannot beat chance on the ambiguous position. The held-out pairs go
    into dev.iob2 with fresh image noise, class-balanced.
    """
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    def build_block(index: int, stem: str) -> str:
        tokens, amb_pos = _TEMPLATES[index % len(_TEMPLATES)]
        red = index % 2 == 0
        labels = ["O"] * len(tokens)
        labels[amb_pos] = "B-PER" if red else "O"
        base = (0.9, 0.15, 0.15) if red else (0.15, 0.15, 0.9)
        write_ppm(root / "images" / f"{stem}.ppm", _noise_image(rng, base))
        lines = [f"IMGID:{stem}"]
        lines += [f"{t}\t{l}" for t, l in zip(tokens, labels)]
        return "\n".join(lines)

    train_blocks = [build_block(i, f"mm{i:03d}") for i in range(n_train)]
    dev_blocks = [build_block(i, f"mmdev{i:03d}") for i in range(n_held_out)]
    (root / "train.iob2").write_text("\n\n".join(train_blocks) + "\n\n", encoding="utf-8")
    (root / "dev.iob2").write_text("\n\n".join(dev_blocks) + "\n\n", encoding="utf-8")
    return root


def ambiguous_accuracy(model, vocab, images, corpus) -> float:
    """Fraction of held-out sentences whose ambiguous-token tag is right."""
    right = 0
    total = 0
    for ex in corpus.examples:
        amb = ex.tokens.index(AMBIGUOUS_TOKEN)
        tags = model.predict(vocab.encode(ex.tokens), images.load(ex.image_ref))
        right += tags[amb] == ex.labels[amb]
        total += 1
    return right / total
