"""Built-in verification suites behind the gradcheck/selftest commands.

gradient_suite: central finite differences (h = 1e-4, float64) against the
analytic gradients of every differentiable operation and each composite
block, at 5 random points each. Points are redrawn (deterministically)
when a relu pre-activation sits near its kink, where finite differences
are invalid regardless of gradient correctness.

oracle_suite: brute-force reference computations — exhaustive path
enumeration for the CRF, direct summation for the contrastive loss, an
explicit per-head loop for cross-attention.
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
from mmner.gradcheck import check_gradients, max_error

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
    return max_error(errors.values())


# ---------------------------------------------------------------------------
# gradient-suite cases


def _op_cases():
    def u(rng, shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    def simple(op_builder):
        def build(rng):
            tensors, loss_fn = op_builder(rng, u)
            return loss_fn, {f"p{i}": t for i, t in enumerate(tensors)}
        return build

    def c_add(rng, u):
        a = Tensor(u(rng, (4, 3)), requires_grad=True)
        b = Tensor(u(rng, (4, 3)), requires_grad=True)
        return (a, b), lambda: ad.tensor_sum(ad.mul(ad.add(a, b), b))

    def c_sub(rng, u):
        a = Tensor(u(rng, (4, 3)), requires_grad=True)
        b = Tensor(u(rng, (4, 3)), requires_grad=True)
        return (a, b), lambda: ad.tensor_sum(ad.mul(ad.sub(a, b), a))

    def c_mul(rng, u):
        a = Tensor(u(rng, (4, 3)), requires_grad=True)
        b = Tensor(u(rng, (4, 3)), requires_grad=True)
        return (a, b), lambda: ad.tensor_sum(ad.mul(a, b))

    def c_matmul(rng, u):
        a = Tensor(u(rng, (3, 4)), requires_grad=True)
        b = Tensor(u(rng, (4, 2)), requires_grad=True)
        return (a, b), lambda: ad.tensor_sum(ad.matmul(a, b))

    def c_relu(rng, u):
        a = Tensor(u(rng, (4, 3)), requires_grad=True)
        w = Tensor(u(rng, (4, 3)))
        return (a,), lambda: ad.tensor_sum(ad.mul(ad.relu(a), w))

    def c_gelu(rng, u):
        a = Tensor(u(rng, (4, 3)), requires_grad=True)
        w = Tensor(u(rng, (4, 3)))
        return (a,), lambda: ad.tensor_sum(ad.mul(ad.gelu(a), w))

    def c_softmax(rng, u):
        a = Tensor(u(rng, (4, 5)), requires_grad=True)
        w = Tensor(u(rng, (4, 5)))
        return (a,), lambda: ad.tensor_sum(ad.mul(ad.softmax(a, axis=-1), w))

    def c_attention(rng, u):
        q = Tensor(2.0 * u(rng, (3, 4)), requires_grad=True)
        k = Tensor(2.0 * u(rng, (5, 4)), requires_grad=True)
        v = Tensor(u(rng, (5, 4)), requires_grad=True)
        w = Tensor(u(rng, (3, 4)))
        return (q, k, v), lambda: ad.tensor_sum(ad.mul(ad.attention(q, k, v, 2), w))

    def c_lse(rng, u):
        a = Tensor(u(rng, (4, 5)), requires_grad=True)
        return (a,), lambda: ad.tensor_sum(ad.log_sum_exp(a, axis=-1))

    def c_layer_norm(rng, u):
        x = Tensor(u(rng, (4, 5)), requires_grad=True)
        g = Tensor(u(rng, (5,)), requires_grad=True)
        b = Tensor(u(rng, (5,)), requires_grad=True)
        w = Tensor(u(rng, (4, 5)))
        return (x, g, b), lambda: ad.tensor_sum(ad.mul(ad.layer_norm(x, g, b), w))

    def c_concat(rng, u):
        a = Tensor(u(rng, (4, 3)), requires_grad=True)
        b = Tensor(u(rng, (4, 3)), requires_grad=True)
        w = Tensor(u(rng, (4, 6)))
        return (a, b), lambda: ad.tensor_sum(ad.mul(ad.concat([a, b], axis=1), w))

    def c_mean(rng, u):
        a = Tensor(u(rng, (4, 5)), requires_grad=True)
        w = Tensor(u(rng, (5,)))
        return (a,), lambda: ad.tensor_sum(ad.mul(ad.mean(a, axis=0), w))

    def c_gather(rng, u):
        t = Tensor(u(rng, (5, 3)), requires_grad=True)
        w = Tensor(u(rng, (3, 3)))
        return (t,), lambda: ad.tensor_sum(ad.mul(ad.embedding_gather(t, [4, 0, 4]), w))

    def c_linear(rng, u):
        x = Tensor(u(rng, (3, 4)), requires_grad=True)
        w = Tensor(u(rng, (4, 2)), requires_grad=True)
        b = Tensor(u(rng, (2,)), requires_grad=True)
        return (x, w, b), lambda: ad.tensor_sum(ad.linear(x, w, b))

    def c_slice(rng, u):
        a = Tensor(u(rng, (4, 5)), requires_grad=True)
        w = Tensor(u(rng, (2, 3)))
        return (a,), lambda: ad.tensor_sum(ad.mul(a[1:3, 1:4], w))

    def c_take_pairs(rng, u):
        a = Tensor(u(rng, (4, 5)), requires_grad=True)
        return (a,), lambda: ad.tensor_sum(ad.take_pairs(a, [0, 2, 2], [1, 4, 4]))

    def c_dropout(rng, u):
        a = Tensor(u(rng, (4, 5)), requires_grad=True)
        mask_seed = int(rng.integers(1 << 31))
        def loss():
            return ad.tensor_sum(
                ad.dropout(a, 0.5, True, np.random.default_rng(mask_seed)))
        return (a,), loss

    def c_conv2d(rng, u):
        x = Tensor(u(rng, (2, 5, 5)), requires_grad=True)
        w = Tensor(u(rng, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(u(rng, (3,)), requires_grad=True)
        return (x, w, b), lambda: ad.tensor_sum(ad.conv2d(x, w, b, stride=2, padding=1))

    return {
        "op.add": simple(c_add), "op.sub": simple(c_sub), "op.mul": simple(c_mul),
        "op.matmul": simple(c_matmul), "op.relu": simple(c_relu),
        "op.gelu": simple(c_gelu), "op.softmax": simple(c_softmax),
        "op.attention": simple(c_attention),
        "op.log_sum_exp": simple(c_lse), "op.layer_norm": simple(c_layer_norm),
        "op.concat": simple(c_concat), "op.mean": simple(c_mean),
        "op.embedding_gather": simple(c_gather), "op.linear": simple(c_linear),
        "op.slice": simple(c_slice), "op.take_pairs": simple(c_take_pairs),
        "op.dropout": simple(c_dropout), "op.conv2d": simple(c_conv2d),
    }


def _perturbed(params: dict[str, Tensor], rng, scale=0.3):
    for p in params.values():
        p.data += rng.uniform(-scale, scale, p.shape)


def _composite_cases():
    def text_layer(rng):
        layer = TransformerLayer(8, 2, rng, TEXT_SUBLAYER, mlp_ratio=2)
        params = dict(layer.parameters())
        _perturbed(params, rng)
        x = Tensor(rng.uniform(-1, 1, (4, 8)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 8)))
        params["x"] = x
        return lambda: ad.tensor_sum(ad.mul(layer(x), w)), params

    def vit_layer(rng):
        layer = TransformerLayer(8, 2, rng, VIT_SUBLAYER, mlp_ratio=2)
        params = dict(layer.parameters())
        _perturbed(params, rng)
        x = Tensor(rng.uniform(-1, 1, (4, 8)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 8)))
        params["x"] = x
        return lambda: ad.tensor_sum(ad.mul(layer(x), w)), params

    def conv_block(rng):
        block = ResidualBlock(2, 3, stride=2, rng=rng)
        params = dict(block.parameters())
        x = Tensor(rng.uniform(-1, 1, (2, 4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 2, 2)))
        params["x"] = x
        return lambda: ad.tensor_sum(ad.mul(block(x), w)), params

    def projection_head(rng):
        head = ProjectionHead(4, 6, 3, rng)
        params = dict(head.parameters())
        _perturbed(params, rng)
        x = Tensor(rng.uniform(-1, 1, (4,)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3,)))
        params["x"] = x
        return lambda: ad.tensor_sum(ad.mul(head(x), w)), params

    def contrastive(rng):
        t = Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
        i = Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
        return lambda: contrastive_loss(t, i, tau=0.4), {"t": t, "i": i}

    def cross_attention(rng):
        block = CrossAttentionBlock(4, 2, rng)
        params = dict(block.parameters())
        _perturbed(params, rng)
        t = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        v = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 4)))
        params.update({"text": t, "visual": v})
        return lambda: ad.tensor_sum(ad.mul(block(t, v), w)), params

    def crf_nll(rng):
        crf = LinearChainCrf(4, 4, rng)
        feats = Tensor(rng.uniform(-1, 1, (3, 4)))
        path = [2, 0, 3]
        params = dict(crf.parameters())
        _perturbed(params, rng, scale=0.2)
        return lambda: crf.nll(crf.emissions(feats), path), params

    return {
        "block.text_layer": text_layer,
        "block.vit_layer": vit_layer,
        "block.conv_block": conv_block,
        "block.projection_head": projection_head,
        "block.contrastive_loss": contrastive,
        "block.cross_attention": cross_attention,
        "block.crf_nll": crf_nll,
    }


def gradient_suite(seeds=SEEDS) -> list[CheckResult]:
    results = []
    cases = dict(_op_cases())
    cases.update(_composite_cases())
    for name, build in cases.items():
        worst = max(_check_case(build, seed) for seed in seeds)
        results.append(CheckResult(
            name=name,
            passed=worst < GRAD_TOL,
            detail=f"max rel err {worst:.3e} over {len(seeds)} seeds (tol {GRAD_TOL:.0e})",
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


def _crf_instances():
    for n in range(1, 6):
        for L in range(2, 6):
            for trial in range(20):
                rng = np.random.default_rng(7000 + 100 * n + 10 * L + trial)
                crf = LinearChainCrf(2, L, np.random.default_rng(trial))
                crf.transitions.data[crf.begin, :L] = rng.normal(size=L)
                crf.transitions.data[:L, crf.end] = rng.normal(size=L)
                crf.transitions.data[:L, :L] = rng.normal(size=(L, L))
                em = rng.normal(size=(n, L)) * 2.0
                yield crf, em


def oracle_suite() -> list[CheckResult]:
    results = []

    worst = 0.0
    prob_worst = 0.0
    viterbi_ok = True
    for crf, em in _crf_instances():
        scores = dict(_enum_scores(em, crf.transitions.data, crf.begin, crf.end))
        values = np.array(list(scores.values()))
        m = values.max()
        log_z_ref = m + math.log(np.exp(values - m).sum())
        log_z = crf.log_partition(Tensor(em)).item()
        worst = max(worst, abs(log_z - log_z_ref))
        prob_worst = max(prob_worst, abs(np.exp(values - log_z).sum() - 1.0))
        best_path, best_score = None, None
        for path, s in scores.items():
            if best_path is None or s > best_score or (
                s == best_score and tuple(reversed(path)) < tuple(reversed(best_path))
            ):
                best_path, best_score = path, s
        got_path, got_score = crf.viterbi(Tensor(em))
        if got_path != list(best_path) or got_score != best_score:
            viterbi_ok = False
    results.append(CheckResult(
        "oracle.crf_log_partition", worst < 1e-8,
        f"max |forward - enumeration| = {worst:.3e} (tol 1e-08)"))
    results.append(CheckResult(
        "oracle.crf_viterbi", viterbi_ok,
        "paths and scores match enumeration argmax with lowest-index ties"))
    results.append(CheckResult(
        "oracle.crf_path_probabilities", prob_worst < 1e-8,
        f"max |sum p - 1| = {prob_worst:.3e} (tol 1e-08)"))

    worst = 0.0
    for n in (2, 4, 8):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            t = rng.normal(size=(n, 16))
            i = rng.normal(size=(n, 16))
            got = contrastive_loss(Tensor(t), Tensor(i), tau=0.07).item()
            ref = 0.0
            tn = t / np.linalg.norm(t, axis=1, keepdims=True)
            im = i / np.linalg.norm(i, axis=1, keepdims=True)
            for a in range(n):
                den = sum(math.exp(float(tn[a] @ im[j]) / 0.07) for j in range(n))
                ref += -math.log(math.exp(float(tn[a] @ im[a]) / 0.07) / den)
            for a in range(n):
                den = sum(math.exp(float(tn[j] @ im[a]) / 0.07) for j in range(n))
                ref += -math.log(math.exp(float(tn[a] @ im[a]) / 0.07) / den)
            worst = max(worst, abs(got - ref / (2 * n)))
    results.append(CheckResult(
        "oracle.contrastive_direct_sum", worst < 1e-10,
        f"max |loss - direct sum| = {worst:.3e} (tol 1e-10)"))

    rng = np.random.default_rng(77)
    t = rng.normal(size=(4, 16))
    i = rng.normal(size=(4, 16))
    base = contrastive_loss(Tensor(t), Tensor(i), tau=0.5).item()
    scaled = contrastive_loss(
        Tensor(t * rng.uniform(0.1, 10, (4, 1))),
        Tensor(i * rng.uniform(0.1, 10, (4, 1))), tau=0.5).item()
    err = abs(base - scaled)
    results.append(CheckResult(
        "oracle.contrastive_scale_invariance", err < 1e-10,
        f"|loss - scaled loss| = {err:.3e} (tol 1e-10)"))

    eye = np.eye(2)
    closed = contrastive_loss(Tensor(eye), Tensor(eye), tau=1.0).item()
    expected = -math.log(math.e / (math.e + 1.0))
    err = abs(closed - expected)
    results.append(CheckResult(
        "oracle.contrastive_closed_form", err < 1e-5,
        f"N=2 orthonormal case: |loss - (-log(e/(e+1)))| = {err:.3e} (tol 1e-05)"))

    worst = 0.0
    perm_worst = 0.0
    for heads in (1, 2, 4):
        rng = np.random.default_rng(600 + heads)
        block = CrossAttentionBlock(8, heads, np.random.default_rng(heads))
        for p in block.parameters().values():
            p.data += rng.normal(0.0, 0.2, p.shape)
        text = rng.normal(size=(4, 8))
        visual = rng.normal(size=(5, 8))
        got = block(Tensor(text), Tensor(visual)).data
        ref = _loop_cross_attention(block, text, visual)
        worst = max(worst, float(np.max(np.abs(got - ref))))
        permuted = block(Tensor(text), Tensor(visual[rng.permutation(5)])).data
        perm_worst = max(perm_worst, float(np.max(np.abs(got - permuted))))
    results.append(CheckResult(
        "oracle.cross_attention_per_head_loop", worst < 1e-10,
        f"max |block - loop oracle| = {worst:.3e} (tol 1e-10)"))
    results.append(CheckResult(
        "oracle.cross_attention_key_permutation", perm_worst < 1e-10,
        f"max |block - permuted keys| = {perm_worst:.3e} (tol 1e-10)"))
    return results


def _loop_cross_attention(block: CrossAttentionBlock, text, visual):
    def ln(x, g, b, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + eps) + b

    n = text.shape[0]
    dh = block.head_dim
    head_outs = np.zeros((n, block.heads * dh))
    for h in range(block.heads):
        wq, wk, wv = block.wq.data[h], block.wk.data[h], block.wv.data[h]
        for t in range(n):
            q = wq @ text[t]
            logits = np.array([q @ (wk @ row) for row in visual]) / math.sqrt(dh)
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            out = np.zeros(dh)
            for s, row in enumerate(visual):
                out += a[s] * (wv @ row)
            head_outs[t, h * dh:(h + 1) * dh] = out
    ia = head_outs @ block.wo.data.T
    fused = ln(ia + text, block.ln1_g.data, block.ln1_b.data)
    c = math.sqrt(2.0 / math.pi)
    hmid = fused @ block.mlp_w1.data + block.mlp_b1.data
    hact = 0.5 * hmid * (1.0 + np.tanh(c * (hmid + 0.044715 * hmid**3)))
    h2 = hact @ block.mlp_w2.data + block.mlp_b2.data
    return ln(fused + h2, block.ln2_g.data, block.ln2_b.data)
