"""Differentiable operators for the transformer workloads.

Every op follows the PyTorch saving discipline that SSDTrain depends on:
tensors needed by backward go through ``ctx.save_for_backward`` (and thus
through the active pack hook); scalar metadata lives directly on the ctx.
Ops that need their own output save a *detached* view so the graph carries
no reference cycles and reference counting frees buffers promptly.

The FlashAttention-style :func:`flash_attention` op saves only Q, K, V and
recomputes the attention probabilities in backward, so no O(S^2) tensor is
ever registered on the graph — matching the paper's evaluation setup
(FlashAttention-2 enabled, which is also why selective checkpointing is
moot, Sec. IV-C).
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.tensor.function import Function, FunctionContext
from repro.tensor.tensor import Tensor


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# --------------------------------------------------------------------------
# Elementwise arithmetic
# --------------------------------------------------------------------------
class Add(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, b: Tensor) -> np.ndarray:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return a.data + b.data

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        return _unbroadcast(grad, ctx.a_shape), _unbroadcast(grad, ctx.b_shape)

    @staticmethod
    def flops(a: Tensor, b: Tensor) -> float:
        return float(max(a.numel, b.numel))


class Sub(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, b: Tensor) -> np.ndarray:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        return a.data - b.data

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        return _unbroadcast(grad, ctx.a_shape), -_unbroadcast(grad, ctx.b_shape)

    @staticmethod
    def flops(a: Tensor, b: Tensor) -> float:
        return float(max(a.numel, b.numel))


class Mul(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, b: Tensor) -> np.ndarray:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        ctx.save_for_backward(a.detach(), b.detach())
        return a.data * b.data

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        a, b = ctx.saved_tensors
        return (
            _unbroadcast(grad * b.data, ctx.a_shape),
            _unbroadcast(grad * a.data, ctx.b_shape),
        )

    @staticmethod
    def flops(a: Tensor, b: Tensor) -> float:
        return float(max(a.numel, b.numel))


class Div(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, b: Tensor) -> np.ndarray:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        ctx.save_for_backward(a.detach(), b.detach())
        return a.data / b.data

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        a, b = ctx.saved_tensors
        ga = _unbroadcast(grad / b.data, ctx.a_shape)
        gb = _unbroadcast(-grad * a.data / (b.data * b.data), ctx.b_shape)
        return ga, gb

    @staticmethod
    def flops(a: Tensor, b: Tensor) -> float:
        return float(max(a.numel, b.numel))


class Scale(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, factor: float) -> np.ndarray:
        ctx.factor = factor
        return a.data * np.asarray(factor, dtype=a.dtype)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        return grad * ctx.factor, None

    @staticmethod
    def flops(a: Tensor, factor: float) -> float:
        return float(a.numel)


# --------------------------------------------------------------------------
# Matmul
# --------------------------------------------------------------------------
class MatMul(Function):
    """Batched matrix multiplication with numpy broadcasting over batch dims."""

    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, b: Tensor) -> np.ndarray:
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        ctx.save_for_backward(a.detach(), b.detach())
        return a.data @ b.data

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        a, b = ctx.saved_tensors
        ga = grad @ np.swapaxes(b.data, -1, -2)
        if a.ndim > 2 and b.ndim == 2:
            # Batched activation times a weight: fold the batch dims into
            # the rows, so the weight gradient is one GEMM (no per-batch
            # products to sum afterwards).
            gb = a.data.reshape(-1, a.shape[-1]).T @ grad.reshape(-1, grad.shape[-1])
        else:
            gb = np.swapaxes(a.data, -1, -2) @ grad
        return _unbroadcast(ga, ctx.a_shape), _unbroadcast(gb, ctx.b_shape)

    @staticmethod
    def flops(a: Tensor, b: Tensor) -> float:
        m, k = a.shape[-2], a.shape[-1]
        n = b.shape[-1]
        batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
        batch = max(batch, int(np.prod(b.shape[:-2])) if b.ndim > 2 else 1)
        return 2.0 * batch * m * k * n


# --------------------------------------------------------------------------
# Shape ops (view-producing: output shares the input storage)
# --------------------------------------------------------------------------
class Reshape(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, shape: Tuple[int, ...]) -> np.ndarray:
        ctx.a_shape = a.shape
        return a.data.reshape(shape)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        return grad.reshape(ctx.a_shape), None


class Transpose(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, axis0: int, axis1: int) -> np.ndarray:
        ctx.axis0, ctx.axis1 = axis0, axis1
        return np.swapaxes(a.data, axis0, axis1)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        return np.swapaxes(grad, ctx.axis0, ctx.axis1), None, None


class Narrow(Function):
    """Slice ``length`` elements starting at ``start`` along ``axis``.

    Output is a fresh contiguous buffer (like Megatron's TP split copies).
    """

    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, axis: int, start: int, length: int) -> np.ndarray:
        ctx.a_shape = a.shape
        ctx.axis, ctx.start, ctx.length = axis, start, length
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, start + length)
        return np.ascontiguousarray(a.data[tuple(index)])

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        full = np.zeros(ctx.a_shape, dtype=grad.dtype)
        index = [slice(None)] * len(ctx.a_shape)
        index[ctx.axis] = slice(ctx.start, ctx.start + ctx.length)
        full[tuple(index)] = grad
        return full, None, None, None


class Concat(Function):
    """Concatenate two tensors along ``axis`` (used by T5 cross-attention)."""

    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, b: Tensor, axis: int) -> np.ndarray:
        ctx.axis = axis
        ctx.a_extent = a.shape[axis]
        return np.concatenate([a.data, b.data], axis=axis)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        ga, gb = np.split(grad, [ctx.a_extent], axis=ctx.axis)
        return np.ascontiguousarray(ga), np.ascontiguousarray(gb), None


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------
class Sum(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, axis: Optional[int], keepdims: bool) -> np.ndarray:
        ctx.a_shape = a.shape
        ctx.axis, ctx.keepdims = axis, keepdims
        return np.asarray(a.data.sum(axis=axis, keepdims=keepdims))

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        if ctx.axis is not None and not ctx.keepdims:
            grad = np.expand_dims(grad, ctx.axis)
        return np.broadcast_to(grad, ctx.a_shape).copy(), None, None

    @staticmethod
    def flops(a: Tensor, axis, keepdims) -> float:
        return float(a.numel)


class Mean(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, axis: Optional[int], keepdims: bool) -> np.ndarray:
        ctx.a_shape = a.shape
        ctx.axis, ctx.keepdims = axis, keepdims
        ctx.count = a.numel if axis is None else a.shape[axis]
        return np.asarray(a.data.mean(axis=axis, keepdims=keepdims))

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        if ctx.axis is not None and not ctx.keepdims:
            grad = np.expand_dims(grad, ctx.axis)
        return np.broadcast_to(grad / ctx.count, ctx.a_shape).copy(), None, None

    @staticmethod
    def flops(a: Tensor, axis, keepdims) -> float:
        return float(a.numel)


# --------------------------------------------------------------------------
# Activations
# --------------------------------------------------------------------------
class GELU(Function):
    """tanh-approximation GELU (the variant used in GPT/Megatron MLPs).

    The bodies build their result in place over a few temporaries and
    spell powers as products: ``x**3`` on float32 takes numpy's ``pow``
    loop, about 41 ms against 0.5 ms for ``x * x * x`` on a 4x128x1024
    array (numpy 2.4 on a 2-vCPU x86 VM).
    """

    _C = math.sqrt(2.0 / math.pi)
    _A = 0.044715

    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor) -> np.ndarray:
        ctx.save_for_backward(a.detach())
        x = a.data
        # 0.5 * x * (1 + tanh(C * (x + A * x^3)))
        out = x * x
        out *= x
        out *= GELU._A
        out += x
        out *= GELU._C
        np.tanh(out, out=out)
        out += 1.0
        out *= x
        out *= 0.5
        return out

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        (a,) = ctx.saved_tensors
        x = np.asarray(a.data, dtype=np.float32)
        x2 = x * x
        # t = tanh(C * (x + A * x^3))
        t = x2 * x
        t *= GELU._A
        t += x
        t *= GELU._C
        np.tanh(t, out=t)
        # d_inner = C * (1 + 3A * x^2), in x2's buffer
        x2 *= 3 * GELU._A
        x2 += 1.0
        x2 *= GELU._C
        # dgelu = 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * d_inner
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= x
        slope *= x2
        t += 1.0
        t += slope
        t *= 0.5
        if np.result_type(t, grad) != t.dtype:
            return grad * t  # wider gradient: keep its precision
        t *= grad
        return t.astype(grad.dtype, copy=False)

    @staticmethod
    def flops(a: Tensor) -> float:
        return 8.0 * a.numel


class ReLU(Function):
    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor) -> np.ndarray:
        ctx.save_for_backward(a.detach())
        return np.maximum(a.data, 0)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        (a,) = ctx.saved_tensors
        return grad * (a.data > 0)

    @staticmethod
    def flops(a: Tensor) -> float:
        return float(a.numel)


class Tanh(Function):
    """Saves its input and recomputes tanh in backward (no output cycle)."""

    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor) -> np.ndarray:
        ctx.save_for_backward(a.detach())
        return np.tanh(a.data)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        (a,) = ctx.saved_tensors
        out = np.tanh(a.data)
        return grad * (1.0 - out**2)

    @staticmethod
    def flops(a: Tensor) -> float:
        return 4.0 * a.numel


def _softmax_last(x: np.ndarray) -> np.ndarray:
    shifted = x.astype(np.float32) - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class Softmax(Function):
    """Softmax over the last axis; saves the input, recomputes in backward."""

    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor) -> np.ndarray:
        ctx.save_for_backward(a.detach())
        return _softmax_last(a.data).astype(a.dtype)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        (a,) = ctx.saved_tensors
        p = _softmax_last(a.data)
        g = grad.astype(np.float32)
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot)).astype(grad.dtype)

    @staticmethod
    def flops(a: Tensor) -> float:
        return 5.0 * a.numel


# --------------------------------------------------------------------------
# Normalization
# --------------------------------------------------------------------------
class LayerNorm(Function):
    """Fused layer normalization over the last axis with affine parameters."""

    @staticmethod
    def forward(ctx: FunctionContext, x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> np.ndarray:
        data = x.data.astype(np.float32)
        mean = data.mean(axis=-1, keepdims=True)
        var = data.var(axis=-1, keepdims=True)
        rstd = 1.0 / np.sqrt(var + eps)
        xhat = (data - mean) * rstd
        ctx.save_for_backward(x.detach(), gamma.detach())
        ctx.mean, ctx.rstd = mean, rstd
        out = xhat * gamma.data.astype(np.float32) + beta.data.astype(np.float32)
        return out.astype(x.dtype)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        x, gamma = ctx.saved_tensors
        data = x.data.astype(np.float32)
        g = grad.astype(np.float32)
        xhat = (data - ctx.mean) * ctx.rstd
        dgamma = (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
        dbeta = g.sum(axis=tuple(range(g.ndim - 1)))
        n = data.shape[-1]
        dxhat = g * gamma.data.astype(np.float32)
        dx = (
            dxhat - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * ctx.rstd
        return (
            dx.astype(grad.dtype),
            dgamma.astype(gamma.dtype),
            dbeta.astype(grad.dtype),
            None,
        )

    @staticmethod
    def flops(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> float:
        return 8.0 * x.numel


# --------------------------------------------------------------------------
# Embedding and loss
# --------------------------------------------------------------------------
class Embedding(Function):
    """Row gather from an embedding table."""

    @staticmethod
    def forward(ctx: FunctionContext, weight: Tensor, ids: Tensor) -> np.ndarray:
        ctx.vocab = weight.shape[0]
        ctx.save_for_backward(ids.detach())
        return weight.data[ids.data]

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        (ids,) = ctx.saved_tensors
        dweight = np.zeros((ctx.vocab, grad.shape[-1]), dtype=grad.dtype)
        np.add.at(dweight, ids.data.reshape(-1), grad.reshape(-1, grad.shape[-1]))
        return dweight, None

    @staticmethod
    def flops(weight: Tensor, ids: Tensor) -> float:
        return float(ids.numel)


class CrossEntropy(Function):
    """Fused softmax + NLL, mean-reduced over all tokens.

    Saves the logits (through the pack hook — the largest single activation
    in an LLM step) and the target ids; probabilities are recomputed in
    backward.
    """

    @staticmethod
    def forward(ctx: FunctionContext, logits: Tensor, targets: Tensor) -> np.ndarray:
        probs = _softmax_last(logits.data)
        flat = probs.reshape(-1, probs.shape[-1])
        idx = targets.data.reshape(-1)
        nll = -np.log(np.maximum(flat[np.arange(flat.shape[0]), idx], 1e-20))
        ctx.save_for_backward(logits.detach(), targets.detach())
        ctx.n_tokens = flat.shape[0]
        return np.asarray(nll.mean(), dtype=np.float32)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        logits, targets = ctx.saved_tensors
        flat = _softmax_last(logits.data).reshape(-1, logits.shape[-1])
        idx = targets.data.reshape(-1)
        flat[np.arange(flat.shape[0]), idx] -= 1.0
        grad_scalar = float(np.ravel(grad)[0])
        dlogits = (flat / ctx.n_tokens * grad_scalar).reshape(logits.shape)
        return dlogits.astype(logits.dtype), None

    @staticmethod
    def flops(logits: Tensor, targets: Tensor) -> float:
        return 5.0 * logits.numel


class Dropout(Function):
    """Inverted dropout.

    The mask is regenerated from the seed in backward instead of being
    saved; the functional engine therefore slightly understates activation
    memory relative to frameworks that materialize masks (the paper-scale
    footprint model in :mod:`repro.analysis.perf_model` includes them).
    """

    @staticmethod
    def forward(ctx: FunctionContext, a: Tensor, p: float, seed: int) -> np.ndarray:
        if not 0 <= p < 1:
            raise ValueError(f"dropout p must be in [0, 1): {p}")
        rng = np.random.default_rng(seed)
        mask = (rng.random(a.shape) >= p).astype(a.dtype) / (1.0 - p)
        ctx.p, ctx.seed, ctx.shape, ctx.dtype = p, seed, a.shape, a.dtype
        return a.data * mask

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        rng = np.random.default_rng(ctx.seed)
        mask = (rng.random(ctx.shape) >= ctx.p).astype(ctx.dtype) / (1.0 - ctx.p)
        return grad * mask, None, None

    @staticmethod
    def flops(a: Tensor, p: float, seed: int) -> float:
        return float(a.numel)


# --------------------------------------------------------------------------
# Fused attention
# --------------------------------------------------------------------------
def _f32(x: np.ndarray) -> np.ndarray:
    """``x`` as float32, copying only when it is another dtype."""
    return np.asarray(x, dtype=np.float32)


@functools.lru_cache(maxsize=32)
def _causal_mask(s_q: int, s_k: int) -> np.ndarray:
    """Read-only mask of the future keys each query must not see (the
    query block is aligned to the end of the key block)."""
    mask = np.triu(np.ones((s_q, s_k), dtype=bool), k=1 + (s_k - s_q))
    mask.flags.writeable = False
    return mask


class FlashAttention(Function):
    """Fused scaled-dot-product attention saving only Q, K, V.

    Shapes: q, k, v are (batch, heads, seq, head_dim); ``causal`` applies a
    lower-triangular mask (decoder self-attention).  Backward recomputes the
    probability matrix, exactly the FlashAttention memory behaviour: the
    O(S^2) intermediates never reach the autograd graph, "eliminating these
    intermediate tensors" (Sec. IV-C).
    """

    @staticmethod
    def _probs(q: np.ndarray, k: np.ndarray, causal: bool, scale: float) -> np.ndarray:
        """Softmax of the scaled scores, built in the scores' buffer."""
        p = _f32(q) @ np.swapaxes(_f32(k), -1, -2)
        p *= scale
        if causal:
            np.copyto(p, np.float32(-1e9), where=_causal_mask(p.shape[-2], p.shape[-1]))
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        return p

    @staticmethod
    def forward(ctx: FunctionContext, q: Tensor, k: Tensor, v: Tensor, causal: bool, scale: float) -> np.ndarray:
        ctx.causal, ctx.scale = causal, scale
        ctx.save_for_backward(q.detach(), k.detach(), v.detach())
        p = FlashAttention._probs(q.data, k.data, causal, scale)
        out = p @ _f32(v.data)
        return out.astype(q.dtype, copy=False)

    @staticmethod
    def backward(ctx: FunctionContext, grad: np.ndarray):
        q, k, v = ctx.saved_tensors
        p = FlashAttention._probs(q.data, k.data, ctx.causal, ctx.scale)
        g = _f32(grad)
        dv = np.swapaxes(p, -1, -2) @ g
        # ds = p * (dp - rowsum(dp * p)), in dp's buffer
        ds = g @ np.swapaxes(_f32(v.data), -1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        dq = ds @ _f32(k.data)
        dq *= ctx.scale
        dk = np.swapaxes(ds, -1, -2) @ _f32(q.data)
        dk *= ctx.scale
        return (
            dq.astype(q.dtype, copy=False),
            dk.astype(k.dtype, copy=False),
            dv.astype(v.dtype, copy=False),
            None,
            None,
        )

    @staticmethod
    def flops(q: Tensor, k: Tensor, v: Tensor, causal: bool, scale: float) -> float:
        b, h, s_q, d = q.shape
        s_k = k.shape[-2]
        return 4.0 * b * h * s_q * s_k * d


# --------------------------------------------------------------------------
# Public functional API
# --------------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    return Add.apply(a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Sub.apply(a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Mul.apply(a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    return Div.apply(a, b)


def scale(a: Tensor, factor: float) -> Tensor:
    return Scale.apply(a, factor)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return MatMul.apply(a, b)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return Reshape.apply(a, tuple(shape))


def transpose(a: Tensor, axis0: int, axis1: int) -> Tensor:
    return Transpose.apply(a, axis0, axis1)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    return Narrow.apply(a, axis, start, length)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    return Concat.apply(a, b, axis)


def sum_(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return Sum.apply(a, axis, keepdims)


def mean_(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return Mean.apply(a, axis, keepdims)


def gelu(a: Tensor) -> Tensor:
    return GELU.apply(a)


def relu(a: Tensor) -> Tensor:
    return ReLU.apply(a)


def tanh(a: Tensor) -> Tensor:
    return Tanh.apply(a)


def softmax(a: Tensor) -> Tensor:
    return Softmax.apply(a)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    return LayerNorm.apply(x, gamma, beta, eps)


def embedding(weight: Tensor, ids: Tensor) -> Tensor:
    return Embedding.apply(weight, ids)


def cross_entropy(logits: Tensor, targets: Tensor) -> Tensor:
    return CrossEntropy.apply(logits, targets)


def dropout(a: Tensor, p: float, seed: int) -> Tensor:
    if p == 0.0:
        return a
    return Dropout.apply(a, p, seed)


def flash_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False, scale: Optional[float] = None) -> Tensor:
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[-1])
    return FlashAttention.apply(q, k, v, causal, scale)
