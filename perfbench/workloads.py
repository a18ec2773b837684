"""The four benchmark workloads: inputs, set-up, timed phases and checks.

Each workload drives the program only through its public functions. A
timed run (`measure`) repeats the workload's operations for a fixed time
with tracing off. A traced run (`trace`) runs one fixed job untraced, then
the same job under `tracing.Instrumentation`, checks that both give the
same outputs, and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import inputs
import tracing

clock = time.perf_counter


class Ledger:
    """Operations attempted and failed, with a reason for each failure.

    An operation is one optimizer step, one predict call, one checkpoint
    save or load, or one gradcheck/selftest case.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, ops: int, fn, *args, **kwargs):
        """Call fn as `ops` operations; if it raises, all of them failed."""
        self.attempted += ops
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(ops, f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def params_equal(a, b) -> bool:
    pa, pb = a.parameters(), b.parameters()
    return pa.keys() == pb.keys() and all(
        np.array_equal(pa[k].data, pb[k].data) for k in pa)


class Workload:
    name = ""
    setup_repeats = 9

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.ledger = Ledger()
        self.work.mkdir(parents=True, exist_ok=True)

    # Subclasses implement generate(), setup(), timed(deadline) and job(),
    # and set job_ops and job_items. timed() returns the items its main
    # phase processed, the seconds that took ("busy_s"), the session time,
    # raw samples and the named figures.

    def generate(self) -> None:
        """Write the workload's inputs under self.work."""

    def prepare(self) -> None:
        """Untimed work a job needs after the inputs exist."""

    def measure(self, seconds: float) -> dict:
        self.generate()
        self.setup_s: list[float] = []
        self.start, self.seconds = clock(), seconds
        self.setup_due()
        result = self.timed(self.start + seconds)
        while len(self.setup_s) < self.setup_repeats:
            self.take_setup()
        result["setup_s"] = self.setup_s
        return result

    def take_setup(self) -> None:
        start = clock()
        self.setup()
        self.setup_s.append(clock() - start)

    def setup_due(self) -> None:
        """Take the set-up samples due by now. They are spread evenly over
        the run, so that their median does not rest on one moment of a
        machine whose speed drifts."""
        while (len(self.setup_s) < self.setup_repeats and clock() >= self.start
               + len(self.setup_s) * self.seconds / self.setup_repeats):
            self.take_setup()

    def repeat(self, deadline: float, minimum: int, fn) -> list:
        """Call fn until the clock passes deadline and it has run `minimum`
        times, taking due set-up samples between calls."""
        samples = []
        while len(samples) < minimum or clock() < deadline:
            self.setup_due()
            samples.append(fn())
        return samples

    def trace(self) -> dict:
        """Untraced job, traced job, untraced job: all three must agree, and
        the overhead is the traced time over the faster untraced one."""
        self.generate()
        self.prepare()
        untraced = []
        start = clock()
        reference = self.job()
        untraced.append(clock() - start)

        tracer = self.tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer) as inst:
            start = clock()
            traced_out = self.job()
            traced = clock() - start
        live = tracing.live_tensors()
        start = clock()
        repeated = self.job()
        untraced.append(clock() - start)
        if traced_out != reference or repeated != reference:
            self.ledger.fail(self.job_ops, "traced and untraced runs gave different outputs")
        bwd = {label: [tracing.replay_backward(inst.originals[key], args) for key, args in captured]
               for label, captured in tracer.captures.items()}
        return tracing.layer_metrics(tracer, bwd, self.job_items, live,
                                     100.0 * (traced - min(untraced)) / min(untraced))


def mean(values) -> float:
    return statistics.fmean(values)


def median(unit: str, values) -> tuple[str, float, int]:
    values = list(values)
    return unit, statistics.median(values), len(values)


def pct(unit: str, values, q: float) -> tuple[str, float, int]:
    return unit, float(np.percentile(np.asarray(values, dtype=np.float64), q)), len(values)


# ---------------------------------------------------------------------------
# shared helpers for the predict workloads


def write_desk_run(run_dir: Path):
    """A fixed-seed desk model over the generators' lexicon, saved as a run
    directory; returns the in-memory model after saving."""
    from mmner.data import Vocabulary
    from mmner.model import MultimodalNerModel
    from mmner.training import TrainConfig, save_run_artifacts

    config = TrainConfig(seed=0)
    vocab = Vocabulary(inputs.lexicon())
    model = MultimodalNerModel(config.model_config(), len(vocab), config.seed)
    save_run_artifacts(run_dir, model, vocab, config)
    return model


def valid_tags(model, tags, n_tokens: int) -> bool:
    return len(tags) == n_tokens and all(t in model.schema.tags for t in tags)


# ---------------------------------------------------------------------------


class TrainShort(Workload):
    name = "train_short"
    setup_repeats = 11
    sentences = 32

    def generate(self):
        from mmner.training import TrainConfig
        self.data = inputs.overfit_corpus(self.work / "corpus", self.seed, self.sentences)
        # The full desk model: both visual paths, contrastive on, dropout 0.1.
        self.config = TrainConfig(batch_size=8, epochs=3, dropout=0.1, seed=0)
        self.steps_per_epoch = math.ceil(self.sentences / self.config.batch_size)
        self.steps = self.config.epochs * self.steps_per_epoch
        self.job_ops = self.steps + 2
        self.job_items = self.config.epochs * self.sentences
        self.reference_logs = None

    def setup(self):
        from mmner.data import ImageStore, Vocabulary, parse_iob2
        from mmner.model import MultimodalNerModel
        corpus = parse_iob2(self.data / "train.iob2")
        vocab = Vocabulary.from_corpus(corpus)
        model_config = self.config.model_config()
        MultimodalNerModel(model_config, len(vocab), self.config.seed)
        images = ImageStore(self.data / "images", model_config.image_size)
        for ex in corpus.examples:
            images.load(ex.image_ref)

    def train_once(self):
        """One timed `training.train()` call, checked; returns (seconds, logs)."""
        from mmner.training import train
        start = clock()
        result = self.ledger.run(self.steps, train, self.config, self.data)
        seconds = clock() - start
        if result is None:
            return seconds, None
        logs = [(l.loss, l.crf_nll, l.cl_vit, l.cl_conv, l.eval_f1) for l in result.epoch_logs]
        if not all(math.isfinite(v) for log in logs for v in log):
            self.ledger.fail(self.steps, f"non-finite epoch loss {logs}")
        elif self.reference_logs is None:
            self.reference_logs = logs
        elif logs != self.reference_logs:
            self.ledger.fail(self.steps, "same seed gave different epoch losses")
        return seconds, logs

    def prepare(self):
        """One untimed epoch with an output directory gives the trained desk
        model that the checkpoint phase saves and loads."""
        from mmner.training import load_run, train
        trained = self.work / "trained"
        self.ledger.run(self.steps_per_epoch, train, replace(self.config, epochs=1),
                        self.data, out_dir=trained)
        self.model, self.vocab, self.run_config = load_run(trained)

    def checkpoint_once(self):
        """One save and one load of the trained model, checked bit for bit."""
        from mmner.training import load_run, save_run_artifacts
        out = self.work / "ckpt"
        start = clock()
        self.ledger.run(1, save_run_artifacts, out, self.model, self.vocab, self.run_config)
        save_s = clock() - start
        start = clock()
        loaded = self.ledger.run(1, load_run, out)
        load_s = clock() - start
        same = loaded is not None and params_equal(self.model, loaded[0])
        if loaded is not None and not same:
            self.ledger.fail(1, "load_run(save) changed the parameters")
        return save_s, load_s, same

    def timed(self, deadline):
        # Checkpointing runs after the timed training, so that save's
        # rounding of live parameters can never reach a training metric.
        start = clock()
        train_s = [s for s, _ in self.repeat(start + 0.7 * (deadline - start), 2, self.train_once)]
        self.prepare()
        ckpt = self.repeat(deadline, 3, self.checkpoint_once)
        save_s = [c[0] for c in ckpt]
        load_s = [c[1] for c in ckpt]
        per_s = [self.job_items / s for s in train_s]
        return {
            "items": self.job_items * len(train_s),
            "busy_s": sum(train_s),
            "session_s": mean(train_s) + mean(save_s) + mean(load_s),
            "samples": {"train_s": train_s, "save_s": save_s, "load_s": load_s},
            "named": {
                "train_sent_per_s": median("1/s", per_s),
                "ckpt_save_s": median("s", save_s),
                "ckpt_load_s": median("s", load_s),
            },
        }

    def job(self):
        self.setup()
        _, logs = self.train_once()
        return logs, self.checkpoint_once()[2]


class PredictWorkload(Workload):
    """Predict on a fixed-seed desk run directory, one sentence per call."""

    def generate(self):
        self.run_dir = self.work / "run"
        self.saved = write_desk_run(self.run_dir)
        self.reference_tags = None
        self.checked_load = False

    def load(self):
        from mmner.training import load_run
        self.model, self.vocab, _ = load_run(self.run_dir)
        if not self.checked_load:
            self.checked_load = True
            if not params_equal(self.saved, self.model):
                self.ledger.fail(1, "load_run(save) changed the parameters")

    def predict_pass(self, examples, latencies: list):
        """Predict every sentence once (closed loop, one caller); checks the
        tags and that a repeat gives the same tags. Returns pass seconds."""
        tags_out = []
        start_pass = clock()
        for i, ex in enumerate(examples):
            ids = self.vocab.encode(ex.tokens)
            image = self.images.load(ex.image_ref)
            start = clock()
            tags = self.ledger.run(1, self.model.predict, ids, image)
            latencies.append(clock() - start)
            if tags is not None and not valid_tags(self.model, tags, len(ex.tokens)):
                self.ledger.fail(1, f"sentence {i}: invalid tags {tags}")
            tags_out.append(tags)
        seconds = clock() - start_pass
        if self.reference_tags is None:
            self.reference_tags = tags_out
        elif tags_out != self.reference_tags:
            self.ledger.fail(len(tags_out), "predict gave different tags on a repeat")
        return seconds, tags_out


class PredictLong(PredictWorkload):
    name = "predict_long"
    sentences = 40

    def generate(self):
        super().generate()
        self.data = inputs.long_corpus(self.work / "data", self.seed, self.sentences)
        self.job_ops = 2 * self.sentences
        self.job_items = 2 * self.sentences
        self.reference_report = None

    def setup(self):
        from mmner.data import ImageStore, parse_iob2
        self.load()
        self.images = ImageStore(self.data / "images", self.model.config.image_size)
        self.corpus = parse_iob2(self.data / "test.iob2", split="test")
        for ex in self.corpus.examples:
            self.images.load(ex.image_ref)

    def eval_once(self):
        from mmner.training import evaluate_model
        start = clock()
        report = self.ledger.run(len(self.corpus), evaluate_model,
                                 self.model, self.corpus, self.vocab, self.images)
        seconds = clock() - start
        text = report.kv_lines() if report is not None else None
        if self.reference_report is None:
            self.reference_report = text
        elif text != self.reference_report:
            self.ledger.fail(len(self.corpus), "evaluate_model gave a different report")
        return seconds, text

    def predict_checked(self, latencies: list):
        """A predict pass whose tags, scored, must give evaluate_model's report."""
        from mmner.metrics import evaluate
        first = self.reference_tags is None
        seconds, tags = self.predict_pass(self.corpus.examples, latencies)
        if first and None not in tags:
            gold = [ex.labels for ex in self.corpus.examples]
            if evaluate(gold, tags).kv_lines() != self.reference_report:
                self.ledger.fail(len(tags), "predict tags disagree with evaluate_model")
        return seconds, tags

    def timed(self, deadline):
        start = clock()
        eval_s = [s for s, _ in self.repeat(start + 0.45 * (deadline - start), 3, self.eval_once)]
        latencies: list[float] = []
        passes = self.repeat(deadline, math.ceil(200 / self.sentences),
                             lambda: self.predict_checked(latencies))
        ms = [1e3 * x for x in latencies]
        return {
            "items": self.sentences * (len(eval_s) + len(passes)),
            "busy_s": sum(eval_s) + sum(s for s, _ in passes),
            "session_s": mean(eval_s) + self.sentences * mean(latencies),
            "samples": {"eval_s": eval_s, "predict_s": latencies},
            "named": {
                "eval_sent_per_s": median("1/s", [self.sentences / s for s in eval_s]),
                "predict_ms_p50": median("ms", ms),
                "predict_ms_p95": pct("ms", ms, 95),
            },
        }

    def job(self):
        self.setup()
        _, report = self.eval_once()
        return report, self.predict_checked([])[1]


class PredictRaw(PredictWorkload):
    name = "predict_raw"
    sentences = 64

    def generate(self):
        super().generate()
        self.input = inputs.raw_text(self.work / "input.txt", self.seed, self.sentences)
        self.job_ops = self.sentences
        self.job_items = self.sentences

    def setup(self):
        from mmner.cli import read_predict_input
        from mmner.data import ImageStore
        self.load()
        self.examples = read_predict_input(self.input, raw=True)
        self.images = ImageStore(None, self.model.config.image_size)
        for ex in self.examples:
            self.images.load(ex.image_ref)

    def timed(self, deadline):
        latencies: list[float] = []
        passes = self.repeat(deadline, math.ceil(200 / self.sentences),
                             lambda: self.predict_pass(self.examples, latencies))
        pass_s = [s for s, _ in passes]
        ms = [1e3 * x for x in latencies]
        return {
            "items": self.sentences * len(pass_s),
            "busy_s": sum(pass_s),
            "session_s": mean(pass_s),
            "samples": {"pass_s": pass_s, "predict_s": latencies},
            "named": {
                "predict_ms_p50": median("ms", ms),
                "predict_ms_p95": pct("ms", ms, 95),
            },
        }

    def job(self):
        self.setup()
        return self.predict_pass(self.examples, [])[1]


class Verify(Workload):
    name = "verify"
    commands = ("gradcheck", "selftest")

    def setup(self):
        """A fresh interpreter importing what `mmner gradcheck` needs.

        No timeout: with one, the wait polls in steps of up to 50 ms and the
        measured time rounds up to them."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, "-c", "import mmner.cli, mmner.selftest"],
                       env=env, check=True)

    def command_once(self, command: str):
        """cli.main([command]); every printed case is one operation."""
        from mmner.cli import main
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.ledger.run(0, main, [command])
        cases = [l for l in buffer.getvalue().splitlines() if l.startswith(("PASS", "FAIL"))]
        self.ledger.attempted += max(len(cases), 1)
        failed = sum(1 for l in cases if l.startswith("FAIL"))
        if code != 0 and failed == 0:
            failed = max(len(cases), 1)
        if failed:
            self.ledger.fail(failed, f"{command}: exit code {code}, {failed} failing cases")
        return cases, code

    def verify_once(self):
        start = clock()
        results = [self.command_once(c) for c in self.commands]
        seconds = clock() - start
        self.job_ops = self.job_items = sum(len(cases) for cases, _ in results)
        return seconds, results

    def timed(self, deadline):
        passes = self.repeat(deadline, 1, self.verify_once)
        verify_s = [s for s, _ in passes]
        return {
            "items": sum(len(cases) for _, results in passes for cases, _ in results),
            "busy_s": sum(verify_s),
            "session_s": mean(verify_s),
            "samples": {"verify_s": verify_s},
            "named": {"verify_s": median("s", verify_s)},
        }

    def job(self):
        return self.verify_once()[1]


WORKLOADS = {w.name: w for w in (TrainShort, PredictLong, PredictRaw, Verify)}
