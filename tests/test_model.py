"""The inference memo of visual-encoder outputs: reuse only what an
encode of the same image with the same weights would give."""

import numpy as np
import pytest

from mmner import autodiff as ad
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
        return model.sentence_forward(ids, image)[0].data.copy()


def memoized_emissions(model, ids, image):
    """Inference twice on one image, so the memo holds a weight snapshot."""
    first = inference_emissions(model, ids, image)
    np.testing.assert_array_equal(inference_emissions(model, ids, image), first)
    return first


def graph_emissions(model, ids, image):
    """The same forward while a graph is recorded, which never uses the memo."""
    return model.sentence_forward(ids, image)[0].data.copy()


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
            emissions = model.sentence_forward(ids, image)[0]
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
    model.vit.patch_proj.data += 0.05  # a miss on the ViT path only
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
    assert encode_counts == {"vit": 4, "conv": 4}
