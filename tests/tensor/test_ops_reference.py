"""The in-place op bodies against float64 references, on the shapes the
step benchmark trains with (GPT H=256, seq 128, batch 4, 8 heads of 32).

Each tolerance is stated against the float32 round-off the body can
accumulate, not against a finite-difference estimate.
"""

import math

import numpy as np
import pytest

from repro.tensor import ops
from repro.tensor.tensor import Tensor

C = math.sqrt(2.0 / math.pi)
A = 0.044715


def _leaf(data):
    return Tensor(data.copy(), requires_grad=True)


def _rel_err(got, ref):
    """Absolute error, relative to ``max(|ref|, 1)`` element-wise."""
    return np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0))


# --------------------------------------------------------------------- GELU
def _gelu_reference(x, g):
    x = x.astype(np.float64)
    t = np.tanh(C * (x + A * x**3))
    out = 0.5 * x * (1.0 + t)
    dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * C * (1.0 + 3 * A * x**2)
    return out, g.astype(np.float64) * dgelu


@pytest.fixture
def gelu_case():
    rng = np.random.default_rng(0)
    x = (rng.standard_normal((4, 128, 1024)) * 3).astype(np.float32)
    # The saturated tails: tanh is exactly -1/+1 there.
    x.flat[:10] = [-10.0, -12.5, -30.0, -1e4, 1e4, 10.0, 30.0, 0.0, -0.0, -1e-30]
    g = rng.standard_normal(x.shape).astype(np.float32)
    return x, g


def test_gelu_forward_matches_float64(gelu_case):
    x, g = gelu_case
    ref, _ = _gelu_reference(x, g)
    out = ops.gelu(_leaf(x)).data
    assert out.dtype == np.float32
    # A few ulp of float32 (eps 1.2e-7).
    assert _rel_err(out, ref) <= 1e-6
    assert np.all(out[x <= -10] == 0.0)
    assert out.flat[4] == 1e4


def test_gelu_backward_matches_float64(gelu_case):
    x, g = gelu_case
    _, ref = _gelu_reference(x, g)
    t = _leaf(x)
    ops.gelu(t).backward(Tensor(g))
    grad = t.grad.data
    assert grad.dtype == np.float32
    assert np.isfinite(grad).all()
    # 1 - tanh^2 cancels near saturation: the float32 tanh is off by an
    # ulp, scaled by x * d_inner (about 20 at |x| = 5), hence 2e-5.
    assert _rel_err(grad, ref) <= 2e-5
    far = np.abs(x) >= 1e4  # slope exactly 1 on the right, 0 on the left
    assert np.all(grad[far] == g[far] * (x[far] > 0))


def test_gelu_leaves_its_input_untouched(gelu_case):
    x, g = gelu_case
    t = _leaf(x)
    ops.gelu(t).backward(Tensor(g))
    assert np.array_equal(t.data, x)


# ------------------------------------------------------------ FlashAttention
def _attention_reference(q, k, v, go, causal, scale):
    q, k, v, go = (a.astype(np.float64) for a in (q, k, v, go))
    s = q @ np.swapaxes(k, -1, -2) * scale
    if causal:
        s_q, s_k = s.shape[-2:]
        s = np.where(np.triu(np.ones((s_q, s_k), bool), k=1 + s_k - s_q), -np.inf, s)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = go @ np.swapaxes(v, -1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    return (
        p @ v,
        ds @ k * scale,
        np.swapaxes(ds, -1, -2) @ q * scale,
        np.swapaxes(p, -1, -2) @ go,
    )


@pytest.mark.parametrize(
    "causal, s_q",
    [(True, 128), (False, 128), (True, 64), (False, 64)],
    ids=["causal", "full", "causal-rect", "full-rect"],
)
def test_flash_attention_matches_float64(causal, s_q):
    rng = np.random.default_rng(1)
    q = rng.standard_normal((4, 8, s_q, 32)).astype(np.float32)
    k = rng.standard_normal((4, 8, 128, 32)).astype(np.float32)
    v = rng.standard_normal((4, 8, 128, 32)).astype(np.float32)
    go = rng.standard_normal((4, 8, s_q, 32)).astype(np.float32)
    tq, tk, tv = _leaf(q), _leaf(k), _leaf(v)
    out = ops.flash_attention(tq, tk, tv, causal=causal)
    out.backward(Tensor(go))
    ref = _attention_reference(q, k, v, go, causal, 1.0 / math.sqrt(32))
    for name, got, want in zip(
        ("out", "dq", "dk", "dv"), (out.data, tq.grad.data, tk.grad.data, tv.grad.data), ref
    ):
        assert got.dtype == np.float32, name
        # Values are O(1-5); 1e-5 is under 100 float32 ulp at 1.
        assert np.max(np.abs(got - want)) <= 1e-5, name


def test_causal_mask_is_cached_read_only():
    mask = ops._causal_mask(64, 128)
    assert ops._causal_mask(64, 128) is mask
    assert not mask.flags.writeable
    # Query i (aligned to the end of the keys) sees keys 0..64+i.
    assert not mask[0, 64] and mask[0, 65]
    assert not mask[-1].any()


# -------------------------------------------------------------------- MatMul
def test_matmul_batched_times_weight_gradients_match_float64():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 128, 256)).astype(np.float32)
    w = (rng.standard_normal((256, 1024)) * 0.05).astype(np.float32)
    go = rng.standard_normal((4, 128, 1024)).astype(np.float32)
    ta, tw = _leaf(a), _leaf(w)
    ops.matmul(ta, tw).backward(Tensor(go))
    a64, w64, go64 = (x.astype(np.float64) for x in (a, w, go))
    ref_w = np.einsum("bsk,bsn->kn", a64, go64)
    ref_a = go64 @ w64.T
    assert tw.grad.shape == w.shape and ta.grad.shape == a.shape
    # Sums of 512 products: relative error well under 1e-6 of the range.
    assert np.max(np.abs(tw.grad.data - ref_w)) <= 2e-6 * np.max(np.abs(ref_w))
    assert np.max(np.abs(ta.grad.data - ref_a)) <= 2e-6 * np.max(np.abs(ref_a))


def test_matmul_weight_gradient_through_a_transposed_view():
    """Linear layers multiply by a transposed weight view; the folded
    GEMM must accept the non-contiguous operand."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 8, 16)).astype(np.float32)
    w = rng.standard_normal((32, 16)).astype(np.float32)
    go = rng.standard_normal((2, 8, 32)).astype(np.float32)
    ta, tw = _leaf(a), _leaf(w)
    ops.matmul(ta, ops.transpose(tw, 0, 1)).backward(Tensor(go))
    ref_w = np.einsum("bsk,bsn->nk", a.astype(np.float64), go.astype(np.float64))
    assert np.max(np.abs(tw.grad.data - ref_w)) <= 2e-6 * np.max(np.abs(ref_w))
