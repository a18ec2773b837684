"""Seeded mutation fuzzing of IOB2 input through the CLI.

Each case mutates a valid corpus (byte flips, truncation, duplicated,
swapped or reordered lines, tabs removed, a header moved) and runs `mmner
stats` and `mmner predict` on it. Either command must exit 0, or exit 1
with exactly one `mmner: error:` line on stderr; nothing may escape `main`.
The run directory is not mutated, so `predict` loads it once: rebuilding the
desk model on every call would cost more than all the rest of a case.
"""

import functools
import random

import pytest

from fixtures_util import build_overfit_fixture

import mmner.cli
from mmner.cli import main
from mmner.data import Vocabulary, parse_iob2
from mmner.model import MultimodalNerModel
from mmner.training import TrainConfig, load_run, save_run_artifacts

CASES = 200


def flip_byte(rng, data):
    if not data:
        return data
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]


def truncate(rng, data):
    return data[:rng.randrange(len(data) + 1)]


def duplicate_line(rng, lines):
    i = rng.randrange(len(lines))
    return lines[:i + 1] + lines[i:]


def swap_lines(rng, lines):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def reorder_lines(rng, lines):
    rng.shuffle(lines)
    return lines


def remove_tabs(rng, lines):
    i = rng.randrange(len(lines))
    return lines[:i] + [line.replace(b"\t", b"") for line in lines[i:]]


def move_header(rng, lines):
    headers = [i for i, line in enumerate(lines) if line.startswith((b"LANG:", b"IMGID:"))]
    if not headers:
        return lines
    header = lines.pop(rng.choice(headers))
    lines.insert(rng.randrange(len(lines) + 1), header)
    return lines


BYTE_MUTATIONS = (flip_byte, truncate)
LINE_MUTATIONS = (duplicate_line, swap_lines, reorder_lines, remove_tabs, move_header)


def mutate(rng, data):
    """One to three mutations, each on the bytes or on a fresh list of lines."""
    for _ in range(rng.randint(1, 3)):
        mutation = rng.choice(BYTE_MUTATIONS + LINE_MUTATIONS)
        if mutation in BYTE_MUTATIONS:
            data = mutation(rng, data)
        else:
            data = b"\n".join(mutation(rng, data.split(b"\n")))
    return data


@pytest.fixture(scope="module")
def seed_corpus(tmp_path_factory):
    """A 2-sentence corpus and a fixed-seed desk model saved beside it."""
    root = build_overfit_fixture(tmp_path_factory.mktemp("corpus"), n_sentences=2)
    config = TrainConfig(seed=0)
    vocab = Vocabulary.from_corpus(parse_iob2(root / "train.iob2"))
    run = root / "run"
    save_run_artifacts(run, MultimodalNerModel(config.model_config(), len(vocab), 0),
                       vocab, config)
    return root, run, (root / "train.iob2").read_bytes()


def test_mutated_iob2_exits_cleanly(seed_corpus, capsys, monkeypatch):
    root, run, valid = seed_corpus
    monkeypatch.setattr(mmner.cli, "load_run", functools.cache(load_run))
    rng = random.Random(0)
    target = root / "train.iob2"
    exits = set()
    for case in range(CASES):
        data = mutate(rng, valid)
        target.write_bytes(data)
        for argv in (["stats", str(root)],
                     ["predict", str(target), "--checkpoint", str(run),
                      "--images", str(root / "images")]):
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"case {case}: {argv[0]} raised {exc!r} on {data!r}")
            _, err = capsys.readouterr()
            assert code in (0, 1), (case, argv[0], data)
            if code == 1:
                assert len(err.splitlines()) == 1 and err.startswith("mmner: error: "), (
                    case, argv[0], err, data)
            else:
                assert err == "", (case, argv[0], err, data)
            exits.add((argv[0], code))
    # the mutations reach both outcomes of stats, and predict runs through
    assert {("stats", 0), ("stats", 1), ("predict", 0)} <= exits
