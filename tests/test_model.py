"""The assembled model: its parameter layout, the visual paths, the one
forward, the one decode, and the inference memo of visual-encoder
outputs, which may reuse only what an encode of the same image with the
same weights would give."""

import gc
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fixtures_util import begin_end_crf_layout, build_overfit_fixture, stacked_fusion_layout
from test_crf import batch_of_one

from mmner import autodiff as ad
from mmner.alignment import contrastive_loss
from mmner.checkpoint import load_checkpoint, save_checkpoint
from mmner.data import Batch, ImageStore, Vocabulary, make_batches, parse_iob2
from mmner.encoders import ConvEncoder, VitEncoder
from mmner.gradcheck import numeric_gradient
from mmner.model import DECODE_CHUNK, ModelConfig, MultimodalNerModel
from mmner.training import TrainConfig, total_loss

CONFIG = ModelConfig(d=8, text_layers=1, vit_layers=2, heads=2, max_len=12,
                     mlp_ratio=2, image_size=16, patch_size=8,
                     conv_stem_channels=4, conv_stage_channels=(4, 6, 8),
                     proj_hidden=8, proj_out=8)
IDS = [2, 5, 7, 3]


def make_model(seed=0):
    return MultimodalNerModel(CONFIG, vocab_size=12, seed=seed)


def make_images(n, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, (3, 16, 16)) for _ in range(n)]


def emissions_of(model, ids, image):
    """One sentence's (n, L) emissions, from a batch of one."""
    emissions, _, _ = model.forward_batch([ids], image[None])
    return emissions[0]


def inference_emissions(model, ids, image):
    with ad.no_grad():
        return emissions_of(model, ids, image).data.copy()


def memoized_emissions(model, ids, image):
    """Inference twice on one image, so the memo holds a weight snapshot."""
    first = inference_emissions(model, ids, image)
    np.testing.assert_array_equal(inference_emissions(model, ids, image), first)
    return first


def graph_emissions(model, ids, image):
    """The same forward while a graph is recorded, which never uses the memo."""
    return emissions_of(model, ids, image).data.copy()


@pytest.fixture
def encode_counts(monkeypatch):
    counts = {"vit": 0, "conv": 0}
    for key, cls in (("vit", VitEncoder), ("conv", ConvEncoder)):
        original = cls.encode

        def counted(self, *args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "encode", counted)
    return counts


def test_inference_matches_graph_forward_bitwise():
    model = make_model()
    a, b = make_images(2)
    for ids, image in [(IDS, a), ([4, 4], a), (IDS, b), ([9], b), (IDS, a)]:
        with ad.no_grad():
            emissions = emissions_of(model, ids, image)
            [(path, _)] = model.crf.viterbi(*batch_of_one(emissions))
        reference = graph_emissions(model, ids, image)
        np.testing.assert_array_equal(emissions.data, reference)
        assert model.predict(ids, image) == model.schema.decode(path)


@pytest.mark.parametrize("name", ["vit.patch_proj", "vit.layer1.mlp_b2", "conv.stem_w",
                                  "conv.proj_b"])
def test_in_place_weight_edit_is_seen(name):
    model = make_model()
    (image,) = make_images(1)
    before = memoized_emissions(model, IDS, image)
    model.parameters()[name].data += 0.05
    after = inference_emissions(model, IDS, image)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, graph_emissions(model, IDS, image))


def test_load_parameters_is_seen():
    model, twin = make_model(0), make_model(7)
    (image,) = make_images(1)
    before = memoized_emissions(model, IDS, image)
    model.load_parameters({k: p.data for k, p in twin.parameters().items()})
    after = inference_emissions(model, IDS, image)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, graph_emissions(twin, IDS, image))


def test_in_place_image_edit_is_seen():
    model = make_model()
    (image,) = make_images(1)
    before = memoized_emissions(model, IDS, image)
    image[0, 0, 0] += 0.5
    after = inference_emissions(model, IDS, image)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, graph_emissions(model, IDS, image))


def test_one_image_encodes_twice(encode_counts):
    # The first sighting stores no weight snapshot; the second encodes again
    # and stores one, which every later call hits.
    model = make_model()
    (image,) = make_images(1)
    tags = [model.predict(IDS, image) for _ in range(10)]
    assert encode_counts == {"vit": 2, "conv": 2}
    assert all(t == tags[0] for t in tags)
    model.predict(IDS, image.copy())  # equal by value, not the same object
    assert encode_counts == {"vit": 2, "conv": 2}
    model.paths["vit"].encoder.patch_proj.data += 0.05  # a miss on the ViT path only
    for _ in range(3):
        model.predict(IDS, image)
    assert encode_counts == {"vit": 3, "conv": 2}


@pytest.mark.parametrize("name", ["vit.patch_proj", "conv.stem_w"])
def test_view_write_then_touch_is_seen(name):
    # a write through a view of `data` bypasses its setter; `touch()` after
    # it stamps a new version, so the memo misses
    model = make_model()
    (image,) = make_images(1)
    before = memoized_emissions(model, IDS, image)
    param = model.parameters()[name]
    param.data[...] = param.data + 0.05
    param.touch()
    after = inference_emissions(model, IDS, image)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, graph_emissions(model, IDS, image))


def test_numeric_gradient_of_an_encoder_parameter_sees_every_write():
    # gradcheck perturbs an encoder parameter in place while the memo is live
    model = make_model()
    (image,) = make_images(1)
    memoized_emissions(model, IDS, image)
    param = model.parameters()["vit.layer1.mlp_b2"]

    def f():
        return float(inference_emissions(model, IDS, image).sum())

    def f_without_memo():
        model._encoded.clear()
        return f()

    grad = numeric_gradient(f, param)
    assert np.all(grad != 0.0)
    np.testing.assert_array_equal(grad, numeric_gradient(f_without_memo, param))


def test_a_memo_hit_reads_no_weight_bytes():
    # a hit compares version stamps, so its peak stays below one copy of the
    # largest ViT weight array
    model = MultimodalNerModel(ModelConfig(), vocab_size=50, seed=0)
    size = model.config.image_size
    images = np.random.default_rng(1).uniform(-1, 1, (1, 3, size, size))
    with ad.no_grad():
        for _ in range(2):  # the second sighting stores the stamps
            model._encode_image("vit", images, None)
        gc.collect()
        tracemalloc.start()
        try:
            out, peak = traced_peak(lambda: model._encode_image("vit", images, None))
        finally:
            tracemalloc.stop()
    assert out is model._encoded["vit"][2]
    weights = model.paths["vit"].encoder.parameters().values()
    assert peak < max(p.data.nbytes for p in weights)


def test_alternating_images_encode_every_call(encode_counts):
    model = make_model()
    images = make_images(2)
    for i in range(10):
        model.predict(IDS, images[i % 2])
    assert encode_counts == {"vit": 10, "conv": 10}


@pytest.mark.parametrize("train", [False, True])
def test_batch_losses_encode_once_per_sentence(encode_counts, train):
    model = make_model()
    (image,) = make_images(1)
    ids = [IDS, [3, 4], [5], IDS]
    batch = Batch(token_ids=ids,
                  label_ids=[[0] * len(t) for t in ids], images=[image] * 4)
    model.batch_losses(batch, streams(4) if train else None)
    assert encode_counts == {"vit": 1, "conv": 1}


def streams(n, seed=3):
    """One dropout generator per sentence, as `train` makes them."""
    return [np.random.default_rng([seed, i]) for i in range(n)]


def per_sentence_losses(model, batch, rngs, tau=0.07):
    """batch_losses composed from one-sentence forwards, each of which
    encodes its image through the conv stack on its own and draws its
    dropout masks from its own generator."""
    nlls, pooled = [], {"vit": [], "conv": []}
    for ids, labels, image, rng in zip(batch.token_ids, batch.label_ids, batch.images, rngs):
        emissions, (n,), pairs = model.forward_batch([ids], image[None], [rng])
        nlls.append(model.crf.nll(*batch_of_one(emissions[0, :n]), [labels[:n]]))
        for key, (text, visual) in pairs.items():
            pooled[key].append((text[0], visual[0]))

    def path_loss(key):
        path = model.paths[key]
        texts = ad.stack([path.text_head(t) for t, _ in pooled[key]])
        images = ad.stack([path.image_head(v) for _, v in pooled[key]])
        return contrastive_loss(texts, images, tau)

    return ad.mean(ad.stack(nlls)), path_loss("vit"), path_loss("conv")


def test_batch_losses_match_per_image_conv_encodes():
    model = make_model()
    assert model.config.dropout == 0.1
    ids = [IDS, [3, 4], [5], IDS, [9, 8, 7]]
    batch = Batch(token_ids=ids,
                  label_ids=[[i % 3 for i in range(len(t))] for t in ids], images=make_images(5))
    params = model.parameters()
    results = []
    for losses in (lambda rngs: model.batch_losses(batch, rngs),
                   lambda rngs: per_sentence_losses(model, batch, rngs)):
        terms = losses(streams(5))
        ad.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
        results.append([t.data for t in terms] + [params[k].grad for k in sorted(params)])
        for p in params.values():
            p.zero_grad()
    for batched, single in zip(*results):
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)


def loss_and_gradients(model, losses):
    """The three loss terms and every parameter gradient of their sum."""
    params = model.parameters()
    terms = losses()
    ad.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
    result = [t.data for t in terms] + [params[k].grad for k in sorted(params)]
    for p in params.values():
        p.zero_grad()
    return result


def test_ragged_batch_matches_batch_of_one_forwards():
    # lengths 1, 3, max_len - 2 and one truncated sentence, so the batch pads
    # every sentence but one and masks their padded keys; dropout is on
    limit = CONFIG.max_len - 2
    model = make_model()
    assert model.config.dropout == 0.1
    ids = [[5], [2, 9, 4], [2 + i % 10 for i in range(limit)],
           [3 + i % 9 for i in range(limit + 4)]]
    batch = Batch(token_ids=ids, label_ids=[[i % 3 for i in range(len(t))] for t in ids],
                  images=make_images(4))
    batched = loss_and_gradients(
        model, lambda: model.batch_losses(batch, streams(4)))
    single = loss_and_gradients(model, lambda: per_sentence_losses(model, batch, streams(4)))
    for a, b in zip(batched, single):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_sentence_nll_does_not_depend_on_its_neighbours():
    limit = CONFIG.max_len - 2
    model = make_model()
    target, labels = [2, 9, 4], [1, 2, 0]
    others = [[5], [2 + i % 10 for i in range(limit + 3)], [7, 7], [4] * limit]
    images = make_images(5)
    nlls = []
    for neighbours, position in (([], 0), ([0], 1), ([1, 2], 0), ([3, 0, 1], 2), ([2, 3], 1)):
        token_ids = [others[j] for j in neighbours]
        token_ids.insert(position, target)
        stack = [images[j + 1] for j in neighbours]
        stack.insert(position, images[0])
        rngs = [np.random.default_rng([5, 1 + j]) for j in neighbours]
        rngs.insert(position, np.random.default_rng([5, 0]))
        emissions, lengths, _ = model.forward_batch(token_ids, np.stack(stack), rngs)
        nlls.append(model.crf.nll(*batch_of_one(emissions[position, :lengths[position]]),
                                  [labels]).item())
    assert max(nlls) - min(nlls) < 1e-12, nlls


PATH_FLAGS = [(True, True), (True, False), (False, True), (False, False)]
LAYER = ["attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo", "attn.bo",
         "ln1_g", "ln1_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "ln2_g", "ln2_b"]
FUSION = ["wq", "wk", "wv", "wo", "ln1_g", "ln1_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
          "ln2_g", "ln2_b"]
HEAD = ["w1", "b1", "w2", "b2"]
# each stage's first block changes width and carries a shortcut projection
CONV = ["stem_w", "stem_b", "proj_w", "proj_b"] + [
    f"block{i}.{w}" for i in range(6)
    for w in ["w1", "b1", "w2", "b2"] + (["ws", "bs"] if i % 2 == 0 else [])]


def prefixed(prefix, names):
    return [f"{prefix}.{n}" for n in names]


def path_names(key, encoder_names):
    return (prefixed(key, encoder_names) + prefixed(f"{key}_fusion", FUSION)
            + prefixed(f"{key}_text_head", HEAD) + prefixed(f"{key}_image_head", HEAD))


@pytest.mark.parametrize("use_vit,use_resnet", PATH_FLAGS)
def test_parameter_names_in_order(use_vit, use_resnet):
    # checkpoints and the Adam state are keyed and ordered by these names
    model = MultimodalNerModel(replace(CONFIG, use_vit=use_vit, use_resnet=use_resnet),
                               vocab_size=12, seed=0)
    expected = prefixed("text", ["token_table", "position_table"] + prefixed("layer0", LAYER))
    expected += ["crf.emission_w", "crf.emission_b", "crf.transitions"]
    if use_vit:
        expected += path_names("vit", ["patch_proj", "position_table"]
                               + prefixed("layer0", LAYER) + prefixed("layer1", LAYER))
    if use_resnet:
        expected += path_names("conv", CONV)
    assert list(model.parameters()) == expected


def test_desk_model_checkpoint_bytes_are_pinned(tmp_path):
    # one digest pins the seed-0 desk model's init draws, its parameter
    # names, order and shapes, and the checkpoint format
    model = MultimodalNerModel(TrainConfig(seed=0).model_config(), vocab_size=50, seed=0)
    save_checkpoint(model.parameters(), tmp_path / "model.ckpt")
    data = (tmp_path / "model.ckpt").read_bytes()
    assert len(data) == 1_493_353
    assert hashlib.sha256(data).hexdigest() == (
        "bc2a86a0d6c01404494a5e004ca415d29092ea4504ae8bca2fa429301faff0c0")
    # rebuilt in each older layout, the same parameters give the file pinned
    # for that layout byte for byte, so every layout holds the same draws,
    # names and order: first the CRF table with BEGIN and END tags...
    begin_end = begin_end_crf_layout(model.parameters())
    save_checkpoint(begin_end, tmp_path / "begin_end.ckpt")
    data = (tmp_path / "begin_end.ckpt").read_bytes()
    assert len(data) == 1_493_437
    assert hashlib.sha256(data).hexdigest() == (
        "bb34a534e443cebee95daf977fbb875409c479f585ac5f491be9a6c32e8ab42b")
    # ...then, on top of it, the fusion maps re-stacked into per-head maps
    save_checkpoint(stacked_fusion_layout(begin_end, model.config.heads),
                    tmp_path / "stacked.ckpt")
    data = (tmp_path / "stacked.ckpt").read_bytes()
    assert len(data) == 1_493_461
    assert hashlib.sha256(data).hexdigest() == (
        "71b19640e21ae309bcf77b6f4e7b42dee9c82a00b6c51d0eec357a2f1effc5fe")


def traced_peak(fn):
    """`fn()`, and the bytes it allocated at its peak over what was live
    when it began."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, tracemalloc.get_traced_memory()[1] - before


def test_desk_model_save_and_load_hold_one_copy(tmp_path):
    # save converts each tensor to float32 once and hashes and writes those
    # arrays as they are, with no joined copy; load fills an undrawn model
    # from float32 views of the file's bytes, widening each as it assigns it
    config, path = TrainConfig(seed=0).model_config(), tmp_path / "model.ckpt"

    def build_and_load():
        twin = MultimodalNerModel(config, vocab_size=50, seed=None)
        twin.load_parameters(load_checkpoint(path))
        return twin

    gc.collect()
    tracemalloc.start()
    try:
        saved = MultimodalNerModel(config, vocab_size=50, seed=0).parameters()
        _, save_peak = traced_peak(lambda: save_checkpoint(saved, path))
        twin, load_peak = traced_peak(build_and_load)
    finally:
        tracemalloc.stop()
    model_bytes = sum(t.data.nbytes for t in saved.values())
    assert save_peak < 2.5 * path.stat().st_size
    assert load_peak < 2 * model_bytes
    for name, tensor in twin.parameters().items():
        data = tensor.data
        assert data.dtype == np.float64 and data.flags.c_contiguous and data.flags.writeable
        np.testing.assert_array_equal(data, saved[name].data)


@pytest.mark.parametrize("use_vit,use_resnet", PATH_FLAGS)
def test_fusion_aliases_follow_paths(use_vit, use_resnet):
    # perfbench's tracing looks the fusion blocks up as model.vit_fusion and
    # model.conv_fusion, so those names must track the paths dict
    model = MultimodalNerModel(replace(CONFIG, use_vit=use_vit, use_resnet=use_resnet),
                               vocab_size=12, seed=0)
    for key, alias, on in (("vit", model.vit_fusion, use_vit),
                           ("conv", model.conv_fusion, use_resnet)):
        if on:
            assert alias is model.paths[key].fusion
        else:
            assert alias is None and key not in model.paths


def test_overlong_sentence_matches_hand_truncation():
    limit = CONFIG.max_len - 2
    model = make_model()
    long_ids = [2 + i % 10 for i in range(limit + 5)]
    ids = [IDS, long_ids, [5]]
    labels = [[i % 3 for i in range(len(t))] for t in ids]
    images = make_images(3)
    params = model.parameters()
    results = []
    for cut in (None, limit):
        batch = Batch(token_ids=[t[:cut] for t in ids],
                      label_ids=[l[:cut] for l in labels], images=images)
        terms = model.batch_losses(batch, streams(3))
        ad.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
        results.append([t.data for t in terms] + [params[k].grad for k in sorted(params)])
        for p in params.values():
            p.zero_grad()
    for whole, truncated in zip(*results):
        np.testing.assert_array_equal(whole, truncated)


def test_decode_runs_bounded_chunks_and_keeps_input_order(monkeypatch):
    model = make_model()
    rng = np.random.default_rng(8)
    for p in model.parameters().values():  # tags that vary from token to token
        p.data += rng.uniform(-0.5, 0.5, p.shape)
    n = 2 * DECODE_CHUNK + 3
    # mixed lengths 1 to max_len + 1, unsorted, three of them truncated
    ids = [rng.integers(2, 12, 1 + (5 * i) % (CONFIG.max_len + 1)).tolist() for i in range(n)]
    images = make_images(n)
    expected = [model.predict(t, image) for t, image in zip(ids, images)]
    assert len({tag for tags in expected for tag in tags}) > 2
    sizes = []
    forward_batch = MultimodalNerModel.forward_batch

    def spy(self, token_ids, *args, **kwargs):
        sizes.append(len(token_ids))
        return forward_batch(self, token_ids, *args, **kwargs)

    monkeypatch.setattr(MultimodalNerModel, "forward_batch", spy)
    assert model.decode(ids, images) == expected
    assert max(sizes) <= DECODE_CHUNK and sum(sizes) == n


def test_predict_tags_every_token_of_an_overlong_sentence():
    model = make_model()
    (image,) = make_images(1)
    ids = [(i % 10) + 2 for i in range(CONFIG.max_len + 3)]
    kept = CONFIG.max_len - 2
    tags = model.predict(ids, image)
    assert len(tags) == len(ids)
    assert tags[:kept] == model.predict(ids[:kept], image)
    assert tags[kept:] == ["O"] * (len(ids) - kept)


def graph_bytes(loss, leaves):
    """Bytes of the distinct buffers the graph recorded under `loss` holds,
    per op: what each node's backward closure captures, through the
    functions and sequences it holds. Buffers of `leaves` (the parameters)
    are not the graph's."""
    def root(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    nodes, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if isinstance(node, ad._Node) and node not in seen:
            seen.add(node)
            nodes.append(node)
            stack.extend(node.parents)
    counted = {id(root(t.data)) for t in leaves}
    per_op = {}

    def count(op, held):
        if isinstance(held, np.ndarray):
            buffer = root(held)
            if id(buffer) not in counted:
                counted.add(id(buffer))
                per_op[op] = per_op.get(op, 0) + buffer.nbytes
        elif isinstance(held, (tuple, list)):
            for value in held:
                count(op, value)
        elif callable(held):
            for cell in getattr(held, "__closure__", None) or ():
                count(op, cell.cell_contents)

    for node in nodes:
        count(node.backward.__qualname__.split(".")[0], node.backward)
    return per_op


def desk_batch_loss(tmp_path):
    """A train-mode desk-model loss of one overfit-fixture batch of 8, as a
    function, and the model's parameters, whose gradients are unset."""
    root = build_overfit_fixture(tmp_path, n_sentences=8)
    corpus = parse_iob2(root / "train.iob2")
    vocab = Vocabulary.from_corpus(corpus)
    config = TrainConfig()
    model = MultimodalNerModel(config.model_config(), len(vocab), seed=0)
    batch = next(make_batches(corpus, 8, 0, False, vocab, ImageStore(root / "images", 32)))
    params = list(model.parameters().values())

    def loss():
        return total_loss(*model.batch_losses(batch, streams(8)), config.alpha)

    ad.backward(loss())  # first-call allocations are not the graph's
    for p in params:
        p.zero_grad()
    gc.collect()
    return loss, params


def test_training_graph_of_a_desk_batch_stays_bounded(tmp_path):
    """The graph a train-mode batch of 8 holds when backward starts. It was
    21.7 MB when conv2d kept its im2col columns for backward, 9.6 MB when
    each op's output was its graph node, and 6.5 MB since nodes keep only
    what their backward reads."""
    loss, params = desk_batch_loss(tmp_path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = loss()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_op = graph_bytes(graph, params)
    walked = sum(per_op.values())
    # the walk sees every array tracemalloc does; the rest is Python objects
    assert walked <= held < walked + 2_000_000, (walked, held)
    assert held < 7_500_000, per_op
    # conv2d keeps its inputs (1.5 MB here), not its im2col columns (10.7 MB)
    assert per_op["conv2d"] < 2_000_000, per_op


def test_backward_of_a_desk_batch_frees_as_it_sweeps(tmp_path):
    """backward's tracemalloc peak over its start stays within the
    parameters' gradients, which it creates, plus 1 MB of transients."""
    loss, params = desk_batch_loss(tmp_path)
    tracemalloc.start()  # before the forward, so that what backward frees counts
    try:
        graph = loss()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ad.backward(graph)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.grad.nbytes for p in params if p.grad is not None)
    assert peak < grad_bytes + 1_000_000, (peak, grad_bytes)


def test_no_parameter_reaches_its_op_through_a_reshape_or_transpose(tmp_path, monkeypatch):
    """Every parameter is stored in the layout the op that reads it takes:
    one desk-model training batch hands none to `ad.reshape` or
    `ad.transpose2d`."""
    loss, params = desk_batch_loss(tmp_path)
    ids = {id(p) for p in params}
    seen = []
    for name in ("reshape", "transpose2d"):
        def spy(a, *args, op=getattr(ad, name), name=name):
            seen.append((name, id(a) in ids))
            return op(a, *args)
        monkeypatch.setattr(ad, name, spy)
    loss()
    assert {name for name, _ in seen} == {"reshape", "transpose2d"}  # the spies saw calls
    assert [name for name, is_param in seen if is_param] == []
