"""The assembled model: its parameter layout, the visual paths, the one
forward, and the inference memo of visual-encoder outputs, which may reuse
only what an encode of the same image with the same weights would give."""

from dataclasses import replace

import numpy as np
import pytest

from mmner import autodiff as ad
from mmner.alignment import contrastive_loss
from mmner.data import Batch
from mmner.encoders import ConvEncoder, VitEncoder
from mmner.model import ModelConfig, MultimodalNerModel

CONFIG = ModelConfig(d=8, text_layers=1, vit_layers=2, heads=2, max_len=12,
                     mlp_ratio=2, image_size=16, patch_size=8, vit_embed_dim=8,
                     conv_stem_channels=4, conv_stage_channels=(4, 6, 8),
                     proj_hidden=8, proj_out=8)
IDS = [2, 5, 7, 3]


def make_model(seed=0):
    return MultimodalNerModel(CONFIG, vocab_size=12, seed=seed)


def make_images(n, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, (3, 16, 16)) for _ in range(n)]


def inference_emissions(model, ids, image):
    with ad.no_grad():
        return next(model.forward([ids], image[None]))[0].data.copy()


def memoized_emissions(model, ids, image):
    """Inference twice on one image, so the memo holds a weight snapshot."""
    first = inference_emissions(model, ids, image)
    np.testing.assert_array_equal(inference_emissions(model, ids, image), first)
    return first


def graph_emissions(model, ids, image):
    """The same forward while a graph is recorded, which never uses the memo."""
    return next(model.forward([ids], image[None]))[0].data.copy()


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
            emissions = next(model.forward([ids], image[None]))[0]
            path, _ = model.crf.viterbi(emissions)
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
    batch = Batch(examples=[None] * 4, token_ids=ids,
                  label_ids=[[0] * len(t) for t in ids], images=[image] * 4)
    model.batch_losses(batch, train=train, rng=np.random.default_rng(0))
    assert encode_counts == {"vit": 4, "conv": 1}


def per_sentence_losses(model, batch, rng, tau=0.07):
    """batch_losses composed from one-sentence forwards, each of which
    encodes its image through the conv stack on its own."""
    nlls, pooled = [], {"vit": [], "conv": []}
    for ids, labels, image in zip(batch.token_ids, batch.label_ids, batch.images):
        emissions, pairs = next(model.forward([ids], image[None], True, rng))
        nlls.append(model.crf.nll(emissions, labels))
        for key, pair in pairs.items():
            pooled[key].append(pair)

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
    batch = Batch(examples=[None] * 5, token_ids=ids,
                  label_ids=[[i % 3 for i in range(len(t))] for t in ids], images=make_images(5))
    params = model.parameters()
    results = []
    for losses in (lambda rng: model.batch_losses(batch, train=True, rng=rng),
                   lambda rng: per_sentence_losses(model, batch, rng)):
        terms = losses(np.random.default_rng(3))
        ad.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
        results.append([t.data for t in terms] + [params[k].grad for k in sorted(params)])
        for p in params.values():
            p.zero_grad()
    for batched, single in zip(*results):
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)


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
        batch = Batch(examples=[None] * 3, token_ids=[t[:cut] for t in ids],
                      label_ids=[l[:cut] for l in labels], images=images)
        terms = model.batch_losses(batch, train=True, rng=np.random.default_rng(3))
        ad.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
        results.append([t.data for t in terms] + [params[k].grad for k in sorted(params)])
        for p in params.values():
            p.zero_grad()
    for whole, truncated in zip(*results):
        np.testing.assert_array_equal(whole, truncated)


def test_predict_tags_every_token_of_an_overlong_sentence():
    model = make_model()
    (image,) = make_images(1)
    ids = [(i % 10) + 2 for i in range(CONFIG.max_len + 3)]
    kept = CONFIG.max_len - 2
    tags = model.predict(ids, image)
    assert len(tags) == len(ids)
    assert tags[:kept] == model.predict(ids[:kept], image)
    assert tags[kept:] == ["O"] * (len(ids) - kept)
