"""Built-in verification suites behind the gradcheck/selftest commands.

gradient_suite: central finite differences (h = 1e-4, float64) against the
analytic gradients of every differentiable operation and each composite
block, at 5 random points each. Points are redrawn (deterministically)
when a relu pre-activation sits near its kink, where finite differences
are invalid regardless of gradient correctness.

oracle_suite: brute-force reference computations — exhaustive path
enumeration for the CRF, direct summation for the contrastive loss, an
explicit per-head loop for cross-attention (`_loop_attention`, which the
self-attention unit test shares).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mmner import autodiff as ad
from mmner.autodiff import Tensor
from mmner.alignment import ProjectionHead, contrastive_loss
from mmner.collaboration import CrossAttentionBlock
from mmner.crf import LinearChainCrf
from mmner.encoders import TEXT_SUBLAYER, VIT_SUBLAYER, ResidualBlock, TransformerLayer
from mmner.gradcheck import check_gradients

GRAD_TOL = 1e-5
SEEDS = (0, 1, 2, 3, 4)
_KINK_MARGIN = 1e-3


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _min_relu_margin(fn) -> float:
    """Smallest |pre-activation| any relu sees while running fn()."""
    margins = [np.inf]
    original = ad.relu

    def spy(x):
        if x.data.size:
            margins.append(float(np.abs(x.data).min()))
        return original(x)

    ad.relu = spy
    try:
        fn()
    finally:
        ad.relu = original
    return min(margins)


def _check_case(build, seed: int) -> float:
    """Gradient-check one case at a generic (kink-free) point."""
    for attempt in range(10):
        loss_fn, params = build(np.random.default_rng(seed + 1000 * attempt))
        if _min_relu_margin(loss_fn) > _KINK_MARGIN:
            break
    errors = check_gradients(loss_fn, params)
    return max(errors.values(), default=0.0)


# ---------------------------------------------------------------------------
# gradient-suite cases


def _op_cases():
    def case(shapes, op, weight=None, scales=None):
        """op over U(-1, 1) leaves of the given shapes, leaf i times
        scales[i]; the loss sums op's output, weighted by a U(-1, 1) tensor
        of shape `weight` when one is given (drawn after the leaves)."""
        def build(rng):
            leaves = [Tensor(scale * rng.uniform(-1, 1, shape), requires_grad=True)
                      for shape, scale in zip(shapes, scales or [1.0] * len(shapes))]
            w = Tensor(rng.uniform(-1, 1, weight)) if weight is not None else None

            def loss():
                out = op(*leaves)
                return ad.tensor_sum(out if w is None else ad.mul(out, w))
            return loss, {f"p{i}": t for i, t in enumerate(leaves)}
        return build

    def dropout(rng):
        a = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        mask_seed = int(rng.integers(1 << 31))

        def loss():  # the same masks on every call
            rngs = [np.random.default_rng([mask_seed, i]) for i in range(4)]
            return ad.tensor_sum(ad.dropout(a, 0.5, rngs))
        return loss, {"p0": a}

    key_mask = np.arange(5) < np.array([[5], [2]])
    one = Tensor(np.ones(5))
    return {
        "op.add": case([(4, 3)] * 2, lambda a, b: ad.mul(ad.add(a, b), b)),
        "op.sub": case([(4, 3)] * 2, lambda a, b: ad.mul(ad.sub(a, b), a)),
        "op.mul": case([(4, 3)] * 2, ad.mul),
        "op.neg": case([(4, 3)], lambda a: ad.mul(ad.neg(a), a)),
        "op.matmul": case([(3, 4), (4, 2)], ad.matmul),
        # looked up per call, so _min_relu_margin's spy sees it
        "op.relu": case([(4, 3)], lambda a: ad.relu(a), (4, 3)),
        "op.gelu": case([(4, 3)], ad.gelu, (4, 3)),
        # the square root of a positive base, as in the cosine norms
        "op.pow_scalar": case([(5,)], lambda a: ad.pow_scalar(ad.add(ad.mul(a, a), one), 0.5),
                              (5,)),
        "op.maximum_scalar": case([(4, 3)], lambda a: ad.maximum_scalar(a, 0.25), (4, 3)),
        "op.softmax": case([(4, 5)], lambda a: ad.softmax(a, axis=-1), (4, 5)),
        "op.attention": case([(3, 4), (5, 4), (5, 4)],
                             lambda q, k, v: ad.attention(q, k, v, 2), (3, 4), [2.0, 2.0, 1.0]),
        "op.attention_masked_batch": case(
            [(2, 3, 4), (2, 5, 4), (2, 5, 4)],
            lambda q, k, v: ad.attention(q, k, v, 2, key_mask), (2, 3, 4), [2.0, 2.0, 1.0]),
        "op.log_sum_exp": case([(4, 5)], lambda a: ad.log_sum_exp(a, axis=-1)),
        "op.layer_norm": case([(4, 5), (5,), (5,)], ad.layer_norm, (4, 5)),
        "op.concat": case([(4, 3)] * 2, lambda a, b: ad.concat([a, b], axis=1), (4, 6)),
        "op.stack": case([(5,)] * 2, lambda a, b: ad.stack([a, b]), (2, 5)),
        "op.mean": case([(4, 5)], lambda a: ad.mean(a, axis=0), (5,)),
        "op.mean_all": case([(4, 5)], ad.mean),
        "op.tensor_sum": case([(4, 5)], lambda a: ad.tensor_sum(a, axis=1), (4,)),
        "op.embedding_gather": case([(5, 3)], lambda t: ad.embedding_gather(t, [4, 0, 4]),
                                    (3, 3)),
        "op.linear": case([(3, 4), (4, 2), (2,)], ad.linear),
        "op.linear_1d": case([(6,), (6, 2), (2,)], ad.linear, (2,)),
        "op.transpose2d": case([(2, 3, 4)], ad.transpose2d, (2, 4, 3)),
        "op.reshape": case([(3, 4)], lambda a: ad.reshape(a, (4, 3)), (4, 3)),
        "op.slice": case([(4, 5)], lambda a: a[1:3, 1:4], (2, 3)),
        "op.take_pairs": case([(4, 5)], lambda a: ad.take_pairs(a, [0, 2, 2], [1, 4, 4])),
        "op.dropout": dropout,
        "op.conv2d": case([(2, 2, 5, 5), (3, 2, 3, 3), (3,)],
                          lambda x, w, b: ad.conv2d(x, w, b, stride=2, padding=1)),
    }


def _perturbed(params: dict[str, Tensor], rng, scale=0.3):
    for p in params.values():
        p.data += rng.uniform(-scale, scale, p.shape)


def _composite_cases():
    def weighted(make, inputs, weight, perturb=True):
        """The block make(rng), perturbed unless perturb is False, over U(-1, 1) inputs;
        the loss sums its output times a fixed U(-1, 1) tensor of shape `weight`.
        The rng draws block init, perturbation, inputs and weight, in that order."""
        def build(rng):
            block = make(rng)
            params = dict(block.parameters())
            if perturb:
                _perturbed(params, rng)
            xs = {name: Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                  for name, shape in inputs.items()}
            w = Tensor(rng.uniform(-1, 1, weight))
            params.update(xs)
            return lambda: ad.tensor_sum(ad.mul(block(*xs.values()), w)), params
        return build

    def contrastive(rng):
        t = Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
        i = Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
        return lambda: contrastive_loss(t, i, tau=0.4), {"t": t, "i": i}

    def crf_nll(rng):
        crf = LinearChainCrf(4, 4, rng)
        feats = Tensor(rng.uniform(-1, 1, (3, 3, 4)))  # a ragged batch: lengths 3, 1, 2
        paths = [[2, 0, 3], [1], [3, 3]]
        params = dict(crf.parameters())
        _perturbed(params, rng, scale=0.2)
        return lambda: crf.nll(crf.emissions(feats), [3, 1, 2], paths), params

    return {
        "block.text_layer": weighted(
            lambda rng: TransformerLayer(8, 2, rng, TEXT_SUBLAYER, mlp_ratio=2),
            {"x": (4, 8)}, (4, 8)),
        "block.vit_layer": weighted(
            lambda rng: TransformerLayer(8, 2, rng, VIT_SUBLAYER, mlp_ratio=2),
            {"x": (4, 8)}, (4, 8)),
        "block.conv_block": weighted(
            lambda rng: ResidualBlock(2, 3, stride=2, rng=rng),
            {"x": (2, 2, 4, 4)}, (2, 3, 2, 2), perturb=False),
        "block.projection_head": weighted(
            lambda rng: ProjectionHead(4, 6, 3, rng), {"x": (4,)}, (3,)),
        "block.contrastive_loss": contrastive,
        "block.cross_attention": weighted(
            lambda rng: CrossAttentionBlock(4, 2, rng),
            {"text": (3, 4), "visual": (2, 4)}, (3, 4)),
        "block.crf_nll": crf_nll,
    }


def gradient_suite() -> list[CheckResult]:
    results = []
    for name, build in {**_op_cases(), **_composite_cases()}.items():
        worst = max(_check_case(build, seed) for seed in SEEDS)
        results.append(CheckResult(
            name=name,
            passed=worst < GRAD_TOL,
            detail=f"max rel err {worst:.3e} over {len(SEEDS)} seeds (tol {GRAD_TOL:.0e})",
        ))
    return results


# ---------------------------------------------------------------------------
# enumeration / direct-summation oracles


def _enum_scores(em, trans, begin, end):
    n, L = em.shape
    for path in itertools.product(range(L), repeat=n):
        s = trans[begin, path[0]] + em[0, path[0]]
        for i in range(1, n):
            s = s + trans[path[i - 1], path[i]]
            s = s + em[i, path[i]]
        yield path, s + trans[path[-1], end]


def oracle_log_partition(scores) -> float:
    """log Z: the log-sum-exp of an enumeration's (path, score) pairs."""
    values = np.array([s for _, s in scores])
    m = values.max()
    return m + math.log(np.exp(values - m).sum())


def oracle_best_path(scores) -> tuple[list[int], float]:
    """The max-score path of an enumeration's (path, score) pairs; ties
    resolve to the path whose reversed tuple is smallest, matching
    lowest-index backpointer decisions."""
    path, score = min(scores, key=lambda pair: (-pair[1], pair[0][::-1]))
    return list(path), score


def _crf_instance(n: int, L: int, trial: int) -> tuple[LinearChainCrf, np.ndarray]:
    """Random L-label CRF (normal BEGIN, END and label-to-label transitions)
    and (n, L) emissions N(0, 1) times 2; oracle_suite runs trials 0-19."""
    rng = np.random.default_rng(7000 + 100 * n + 10 * L + trial)
    crf = LinearChainCrf(2, L, np.random.default_rng(trial))
    crf.transitions.data[crf.begin, :L] = rng.normal(size=L)
    crf.transitions.data[:L, crf.end] = rng.normal(size=L)
    crf.transitions.data[:L, :L] = rng.normal(size=(L, L))
    return crf, rng.normal(size=(n, L)) * 2.0


def _bound(name: str, what: str, err: float, tol: float) -> CheckResult:
    """A check that passes when err < tol, reporting both."""
    return CheckResult(name, err < tol, f"{what} = {err:.3e} (tol {tol:.0e})")


def oracle_suite() -> list[CheckResult]:
    results = []

    worst = 0.0
    prob_worst = 0.0
    viterbi_ok = True
    for n, L, trial in itertools.product(range(1, 6), range(2, 6), range(20)):
        crf, em = _crf_instance(n, L, trial)
        scores = list(_enum_scores(em, crf.transitions.data, crf.begin, crf.end))
        log_z = crf.log_partition(Tensor(em[None]), [len(em)]).item()
        worst = max(worst, abs(log_z - oracle_log_partition(scores)))
        values = np.array([s for _, s in scores])
        prob_worst = max(prob_worst, abs(np.exp(values - log_z).sum() - 1.0))
        [viterbi] = crf.viterbi(Tensor(em[None]), [len(em)])
        viterbi_ok = viterbi_ok and viterbi == oracle_best_path(scores)
    results.append(_bound("oracle.crf_log_partition", "max |forward - enumeration|", worst, 1e-8))
    results.append(CheckResult(
        "oracle.crf_viterbi", viterbi_ok,
        "paths and scores match enumeration argmax with lowest-index ties"))
    results.append(_bound("oracle.crf_path_probabilities", "max |sum p - 1|", prob_worst, 1e-8))

    worst = 0.0
    scale_worst = 0.0
    for n in (2, 4, 8):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            t = rng.normal(size=(n, 16))
            i = rng.normal(size=(n, 16))
            got = contrastive_loss(Tensor(t), Tensor(i), tau=0.07).item()
            worst = max(worst, abs(got - _direct_contrastive(t, i, 0.07)))
            scaled = contrastive_loss(Tensor(t * rng.uniform(0.1, 10, (n, 1))),
                                      Tensor(i * rng.uniform(0.1, 10, (n, 1))), tau=0.07).item()
            scale_worst = max(scale_worst, abs(got - scaled))
    results.append(_bound("oracle.contrastive_direct_sum", "max |loss - direct sum|", worst, 1e-10))
    results.append(_bound("oracle.contrastive_scale_invariance", "|loss - scaled loss|",
                          scale_worst, 1e-10))

    eye = np.eye(2)
    closed = contrastive_loss(Tensor(eye), Tensor(eye), tau=1.0).item()
    expected = -math.log(math.e / (math.e + 1.0))
    results.append(_bound("oracle.contrastive_closed_form",
                          "N=2 orthonormal case: |loss - (-log(e/(e+1)))|",
                          abs(closed - expected), 1e-12))

    worst = 0.0
    perm_worst = 0.0
    for heads in (1, 2, 4):
        rng = np.random.default_rng(600 + heads)
        block = CrossAttentionBlock(8, heads, np.random.default_rng(heads))
        for p in block.parameters().values():
            p.data += rng.normal(0.0, 0.2, p.shape)
        text = rng.normal(size=(2, 4, 8))
        visual = rng.normal(size=(2, 5, 8))
        got = block(Tensor(text), Tensor(visual)).data
        for b in range(2):
            ref = _loop_cross_attention(block, text[b], visual[b])
            worst = max(worst, float(np.max(np.abs(got[b] - ref))))
        permuted = block(Tensor(text), Tensor(visual[:, rng.permutation(5)])).data
        perm_worst = max(perm_worst, float(np.max(np.abs(got - permuted))))
    results.append(_bound("oracle.cross_attention_per_head_loop", "max |block - loop oracle|",
                          worst, 1e-10))
    results.append(_bound("oracle.cross_attention_key_permutation",
                          "max |block - permuted keys|", perm_worst, 1e-10))

    worst = 0.0
    rng = np.random.default_rng(700)
    lengths = [1, 4, 6, 3]
    q, k, v = (rng.normal(size=(4, 6, 8)) for _ in range(3))
    mask = np.arange(6) < np.array(lengths)[:, None]
    got = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2, mask).data
    for b, n in enumerate(lengths):
        ref = ad.attention(Tensor(q[b, :n]), Tensor(k[b, :n]), Tensor(v[b, :n]), 2).data
        worst = max(worst, float(np.max(np.abs(got[b, :n] - ref))))
    results.append(_bound("oracle.attention_masked_batch", "max |masked batch - unpadded call|",
                          worst, 1e-12))
    return results


def _direct_contrastive(text, image, tau):
    """Symmetric InfoNCE by direct summation over every anchor and every
    denominator term."""
    n = text.shape[0]
    tn = text / np.linalg.norm(text, axis=1, keepdims=True)
    im = image / np.linalg.norm(image, axis=1, keepdims=True)
    total = 0.0
    for a in range(n):  # text anchors against every image
        den = sum(math.exp(float(tn[a] @ im[j]) / tau) for j in range(n))
        total += -math.log(math.exp(float(tn[a] @ im[a]) / tau) / den)
    for a in range(n):  # image anchors against every text
        den = sum(math.exp(float(tn[j] @ im[a]) / tau) for j in range(n))
        total += -math.log(math.exp(float(tn[a] @ im[a]) / tau) / den)
    return total / (2 * n)


def _loop_attention(queries, keys, maps, heads, biases=None) -> np.ndarray:
    """Multi-head attention with plain loops: one head and one query row at a
    time, explicit softmax rows, head outputs concatenated. maps = (wq, wk, wv)
    are (d, d) and biases, if given, (bq, bk, bv) are (d,); head h reads
    columns h*dh:(h+1)*dh of each, dh = d / heads."""
    d = len(maps[0])
    dh = d // heads
    (wq, wk, wv), (bq, bk, bv) = maps, biases or [np.zeros(d)] * 3
    head_outs = np.zeros((len(queries), d))
    for h, t in itertools.product(range(heads), range(len(queries))):
        c = slice(h * dh, (h + 1) * dh)
        q = queries[t] @ wq[:, c] + bq[c]
        logits = np.array([q @ (row @ wk[:, c] + bk[c]) for row in keys]) / math.sqrt(dh)
        e = np.exp(logits - logits.max())
        a = e / e.sum()
        out = np.zeros(dh)
        for s, row in enumerate(keys):
            out += a[s] * (row @ wv[:, c] + bv[c])
        head_outs[t, c] = out
    return head_outs


def _loop_cross_attention(block: CrossAttentionBlock, text, visual):
    def ln(x, g, b, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + eps) + b

    maps = (block.wq.data, block.wk.data, block.wv.data)
    ia = _loop_attention(text, visual, maps, block.heads) @ block.wo.data
    fused = ln(ia + text, block.ln1_g.data, block.ln1_b.data)
    c = math.sqrt(2.0 / math.pi)
    hmid = fused @ block.mlp_w1.data + block.mlp_b1.data
    hact = 0.5 * hmid * (1.0 + np.tanh(c * (hmid + 0.044715 * hmid**3)))
    h2 = hact @ block.mlp_w2.data + block.mlp_b2.data
    return ln(fused + h2, block.ln2_g.data, block.ln2_b.data)
