"""Seeded mutation fuzzing of IOB2 input and run directories through the CLI.

Each IOB2 case mutates a valid corpus (byte flips, truncation, duplicated,
swapped or reordered lines, tabs removed, a header moved) and runs `mmner
stats` and `mmner predict` on it. Each run-directory case mutates one of a
run's `config.cfg`, `vocab.txt` and `model.ckpt` and runs `mmner predict`
on one sentence, loading it afresh. Each PPM case rebuilds an image's
header with a field replaced or dropped, mutates the bytes (flips, in the
header too, and truncation), and reads the file through `ImageStore.load`
and `mmner eval`. Each kappa case replaces counts of an agreement table
with odd, non-finite or mistyped tokens and mutates its lines and bytes,
then runs `mmner kappa`, which must print a finite kappa or fail, with
no warning. Every command must exit 0, or exit 1 with exactly one
`mmner: error:` line on stderr, which for a bad image or kappa table
names the file; nothing may escape `main`.

The IOB2 cases leave the run directory as it is, so `predict` loads it once
for all of them. A fresh load made each of their `predict` calls about 11 ms
slower (16.3 against 5.6 ms on a 2-core host): 5-7 ms of `load_run`, the
rest the image encodes that a new model's empty inference memo repeats. Over
200 cases that is about 2 s, which the file's 5 s budget cannot hold.
"""

import functools
import hashlib
import math
import random

import numpy as np
import pytest

from fixtures_util import build_overfit_fixture

import mmner.cli
from mmner.checkpoint import MAGIC
from mmner.cli import main
from mmner.data import CorpusError, ImageStore, Vocabulary, parse_iob2
from mmner.model import MultimodalNerModel
from mmner.training import TrainConfig, load_run, save_run_artifacts

CASES = 200
RUN_CASES = 60
PPM_CASES = 60
KAPPA_CASES = 60


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


CONFIG_VALUES = (b"nan", b"-nan", b"inf", b"-inf", b"1e999", b"-1e999", b"0", b"-1",
                 b"1e-320", b"", b"none", b"true", b"0.5", b"12345678901234567890")


def set_value(rng, lines):
    """A line's value after '=' replaced by a non-finite, extreme or mistyped one."""
    i = rng.randrange(len(lines))
    key, sep, _ = lines[i].partition(b"=")
    if sep:
        lines[i] = key + b"= " + rng.choice(CONFIG_VALUES)
    return lines


def set_count(rng, lines):
    """One whitespace-separated count of a line replaced as `set_value` does."""
    i = rng.randrange(len(lines))
    counts = lines[i].split()
    if counts:
        counts[rng.randrange(len(counts))] = rng.choice(CONFIG_VALUES)
        lines[i] = b" ".join(counts)
    return lines


def drop_line(rng, lines):
    del lines[rng.randrange(len(lines))]
    return lines


def flip_head_byte(rng, data):
    """A byte flip in the magic, the version or the first record's header."""
    return flip_byte(rng, data[:48]) + data[48:]


BYTE_MUTATIONS = (flip_byte, truncate, flip_head_byte)
IOB2_MUTATIONS = (flip_byte, truncate, duplicate_line, swap_lines, reorder_lines,
                  remove_tabs, move_header)
RUN_MUTATIONS = {
    "config.cfg": (flip_byte, truncate, duplicate_line, swap_lines, set_value, drop_line),
    "vocab.txt": (flip_byte, truncate, duplicate_line, swap_lines, drop_line),
    "model.ckpt": (flip_byte, truncate, flip_head_byte),
}
# a count replacement is three times as likely as each line or byte mutation
KAPPA_MUTATIONS = (flip_byte, truncate, duplicate_line, swap_lines, drop_line,
                   set_count, set_count, set_count)


PPM_FIELDS = (b"P3", b"P6P6", b"", b"0", b"-16", b"+16", b"1e1", b"16.0", b"0x10", b"4",
              b"17", b"65535", b"256", b"99999999999999999999", b"nan", b"#16")


def ppm_with_header(rng, payload):
    """The 16x16 image's pixels under a header "P6 16 16 255" with one field
    replaced by an odd, extreme or mistyped token, or dropped."""
    fields = [b"P6", b"16", b"16", b"255"]
    i = rng.randrange(len(fields))
    if rng.random() < 0.2:
        del fields[i]
    else:
        fields[i] = rng.choice(PPM_FIELDS)
    return b" ".join(fields) + b"\n" + payload


def mutate(rng, data, mutations=IOB2_MUTATIONS):
    """One to three mutations, each on the bytes or on a fresh list of lines."""
    for _ in range(rng.randint(1, 3)):
        mutation = rng.choice(mutations)
        if mutation in BYTE_MUTATIONS:
            data = mutation(rng, data)
        else:
            data = b"\n".join(mutation(rng, data.split(b"\n")))
    return data


def resign(data):
    """The checkpoint with its checksum recomputed, so the reader gets past
    the checksum to the mutated records."""
    start = len(MAGIC) + 4
    if len(data) < start + 8:
        return data
    return data[:-8] + hashlib.blake2b(data[start:-8], digest_size=8).digest()


def run_cli(capsys, case, argv, data, names=None):
    """Exit code and stdout of `mmner argv`, after checking it exited
    cleanly and, on an error, that its line names the file `names` if one
    is given."""
    try:
        code = main(argv)
    except Exception as exc:
        pytest.fail(f"case {case}: {argv[0]} raised {exc!r} on {data[:200]!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1), (case, argv[0], data[:200])
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("mmner: error: "), (
            case, argv[0], err, data[:200])
        assert names is None or str(names) in err, (case, argv[0], err, data[:200])
    else:
        assert err == "", (case, argv[0], err, data[:200])
    return code, out


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
            exits.add((argv[0], run_cli(capsys, case, argv, data)[0]))
    # the mutations reach both outcomes of stats, and predict runs through
    assert {("stats", 0), ("stats", 1), ("predict", 0)} <= exits


def test_mutated_run_directory_exits_cleanly(seed_corpus, tmp_path, capsys):
    root, run, valid = seed_corpus
    sentence = tmp_path / "one.iob2"
    sentence.write_bytes(valid.split(b"\n\n")[0] + b"\n")
    saved = {name: (run / name).read_bytes() for name in RUN_MUTATIONS}
    mutated = tmp_path / "run"
    mutated.mkdir()
    rng = random.Random(1)
    exits = set()
    for case in range(RUN_CASES):
        name = rng.choice(sorted(RUN_MUTATIONS))
        data = mutate(rng, saved[name], RUN_MUTATIONS[name])
        if name == "model.ckpt" and rng.random() < 0.5:
            data = resign(data)
        for other, content in saved.items():
            (mutated / other).write_bytes(data if other == name else content)
        argv = ["predict", str(sentence), "--checkpoint", str(mutated),
                "--images", str(root / "images")]
        exits.add((name, run_cli(capsys, case, argv, data, names=name)[0]))
    # every file reaches a clean failure, and mutations that keep a run
    # valid predict through
    assert {(name, 1) for name in RUN_MUTATIONS} | {("config.cfg", 0), ("vocab.txt", 0)} <= exits


def test_mutated_ppm_exits_cleanly(seed_corpus, capsys, monkeypatch):
    root, run, _ = seed_corpus
    monkeypatch.setattr(mmner.cli, "load_run", functools.cache(load_run))
    target = root / "images" / f"{parse_iob2(root / 'train.iob2').examples[0].image_ref}.ppm"
    valid = target.read_bytes()
    payload = valid[len(b"P6\n16 16\n255\n"):]
    assert len(payload) == 3 * 16 * 16
    rng = random.Random(2)
    exits = set()
    for case in range(PPM_CASES):
        data = valid if rng.random() < 0.5 else ppm_with_header(rng, payload)
        data = mutate(rng, data, BYTE_MUTATIONS)
        target.write_bytes(data)
        try:
            image = ImageStore(target.parent, 32).load(target.stem)
            assert image.shape == (3, 32, 32) and np.all(np.abs(image) <= 1.0), (case, data[:40])
        except CorpusError as exc:
            assert str(exc).startswith(f"{target}: ") and "\n" not in str(exc), (case, exc)
        argv = ["eval", "--checkpoint", str(run), str(root), "--split", "train"]
        exits.add(run_cli(capsys, case, argv, data, names=target)[0])
    target.write_bytes(valid)
    assert exits == {0, 1}


def test_mutated_kappa_table_exits_cleanly(tmp_path, capsys):
    valid = b"# rater A rows, rater B columns\n20 5 1\n10 15 2\n\n0 3 9\n"
    table = tmp_path / "table.txt"
    rng = random.Random(3)
    exits = set()
    for case in range(KAPPA_CASES):
        data = mutate(rng, valid, KAPPA_MUTATIONS)
        table.write_bytes(data)
        code, out = run_cli(capsys, case, ["kappa", str(table)], data, names=table)
        if code == 0:
            assert math.isfinite(float(out)), (case, out, data)
        exits.add(code)
    assert exits == {0, 1}
