"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-free graph engine: every operation returns a new `Tensor`
holding its value, its parents, and one vector-Jacobian rule per parent
written in terms of the same operations. `grad` walks only the nodes
that lie on a path from its output to one of its inputs, and calls a
rule only for a parent on such a path, so adjoints nobody asked for are
never computed. With ``create_graph=True`` the rules build graph nodes,
so the gradient can be differentiated again, which the Wasserstein
gradient penalty needs; without it they build plain constants (no
parents, no rules), and the adjoints hold values only.

Scalars are tensors of shape ``()``. Broadcasting is deliberately
limited to the bias of `linear`; everything else requires exact shapes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, FormatError, ShapeError

Array = np.ndarray

# floor for denominators in backward rules; only reached at kink points
_TINY = 1e-150

# False while grad(..., create_graph=False) runs a rule: ops then build
# plain constants instead of graph nodes. Module state, so one thread at
# a time may build graphs or take gradients.
_record = True


class Tensor:
    """Node of the computation graph wrapping a float64 ndarray.

    ``vjps`` holds one rule per parent, mapping the node's adjoint to
    that parent's share of it.
    """

    __slots__ = ("data", "parents", "vjps", "requires_grad")

    def __init__(
        self,
        data,
        parents: tuple["Tensor", ...] = (),
        vjps: tuple[Callable[["Tensor"], "Tensor"], ...] | None = None,
        requires_grad: bool = False,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        if parents and not _record:
            parents, vjps = (), None
        self.parents = parents
        self.vjps = vjps
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(x) -> Tensor:
    """Graph leaf that never receives a gradient."""
    return Tensor(x)


def leaf(x) -> Tensor:
    """Trainable graph leaf; values must be finite."""
    t = Tensor(x, requires_grad=True)
    if not np.all(np.isfinite(t.data)):
        raise ContractError("leaf tensor contains non-finite entries")
    return t


def _require_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise ShapeError(f"{op} expects a 2-d operand, got shape {x.shape}")


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(
        a.data @ b.data,
        (a, b),
        (lambda g: matmul(g, transpose(b)), lambda g: matmul(transpose(a), g)),
    )


def transpose(x: Tensor) -> Tensor:
    _require_2d(x, "transpose")
    return Tensor(x.data.T, (x,), (transpose,))


def _identity(g: Tensor) -> Tensor:
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return Tensor(a.data + b.data, (a, b), (_identity, _identity))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return Tensor(a.data - b.data, (a, b), (_identity, neg))


def neg(x: Tensor) -> Tensor:
    return Tensor(-x.data, (x,), (neg,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    return Tensor(a.data * b.data, (a, b), (lambda g: mul(g, b), lambda g: mul(g, a)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "div")
    return Tensor(
        a.data / b.data,
        (a, b),
        (lambda g: div(g, b), lambda g: neg(div(mul(g, a), mul(b, b)))),
    )


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    return Tensor(x.data * c, (x,), (lambda g: scale(g, c),))


def shift(x: Tensor, c: float) -> Tensor:
    """Add a python float constant elementwise."""
    return Tensor(x.data + c, (x,), (_identity,))


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ W.T + b`` as one node: (n, k) rows, (j, k) weights,
    (j,) bias broadcast over rows."""
    shapes_ok = x.data.ndim == W.data.ndim == 2 and b.shape == W.shape[:1]
    if not shapes_ok or x.shape[1] != W.shape[1]:
        raise ShapeError(f"linear shape mismatch: {x.shape}, {W.shape}, {b.shape}")
    return Tensor(
        x.data @ W.data.T + b.data,
        (x, W, b),
        (
            lambda g: matmul(g, W),
            lambda g: transpose(matmul(transpose(x), g)),
            sum_rows,
        ),
    )


def sum_rows(x: Tensor) -> Tensor:
    """(n, k) -> (k,), summing over rows."""
    _require_2d(x, "sum_rows")
    n = x.shape[0]
    return Tensor(x.data.sum(axis=0), (x,), (lambda g: tile_rows(g, n),))


def tile_rows(v: Tensor, n: int) -> Tensor:
    """(k,) -> (n, k), repeating the vector as rows."""
    if v.data.ndim != 1:
        raise ShapeError(f"tile_rows expects a vector, got shape {v.shape}")
    return Tensor(np.broadcast_to(v.data, (n, v.shape[0])).copy(), (v,), (sum_rows,))


def sum_last(x: Tensor) -> Tensor:
    """(n, k) -> (n, 1), summing over the last axis."""
    _require_2d(x, "sum_last")
    k = x.shape[1]
    return Tensor(
        x.data.sum(axis=1, keepdims=True), (x,), (lambda g: tile_cols(g, k),)
    )


def tile_cols(v: Tensor, k: int) -> Tensor:
    """(n, 1) -> (n, k), repeating the column."""
    if v.data.ndim != 2 or v.shape[1] != 1:
        raise ShapeError(f"tile_cols expects shape (n, 1), got {v.shape}")
    return Tensor(np.broadcast_to(v.data, (v.shape[0], k)).copy(), (v,), (sum_last,))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries as a scalar tensor."""
    shape = x.data.shape
    return Tensor(x.data.sum(), (x,), (lambda g: fill(g, shape),))


def fill(s: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Broadcast a scalar tensor to a full tensor of ``shape``."""
    if s.data.size != 1:
        raise ShapeError(f"fill expects a scalar, got shape {s.shape}")
    return Tensor(np.full(shape, s.data.reshape(())), (s,), (sum_all,))


def mean_all(x: Tensor) -> Tensor:
    """Arithmetic mean of all entries."""
    return scale(sum_all(x), 1.0 / x.data.size)


def square(x: Tensor) -> Tensor:
    return mul(x, x)


def sum_sq(x: Tensor) -> Tensor:
    """Sum of squared entries as a scalar."""
    return sum_all(square(x))


def _xent_value(z: Array, onehot: Array) -> tuple[float, Array, Array, Array]:
    """Mean over rows of ``logsumexp(row) - <row, onehot row>``, by the
    stable log-sum-exp with a per-row max shift. Also returns that
    shift, the shifted exponentials and their row sums."""
    row_max = z.max(axis=1, keepdims=True)
    e = np.exp(z - row_max)
    s = e.sum(axis=1, keepdims=True)
    lse = np.log(s) + row_max
    loss = (lse - (z * onehot).sum(axis=1, keepdims=True)).sum() * (1.0 / z.shape[0])
    return loss, row_max, e, s


def softmax_xent(logits: Tensor, onehot) -> Tensor:
    """Mean over rows of ``logsumexp(row) - <row, onehot row>``: softmax
    cross-entropy of (n, k) logits against a constant (n, k) target.

    One node. The value is the stable log-sum-exp with a constant per-row
    max shift; the rule rebuilds that chain's adjoint from graph ops on
    ``logits``, so second-order gradients flow through it as well.
    """
    _require_2d(logits, "softmax_xent")
    onehot = np.asarray(onehot, dtype=np.float64)
    if onehot.shape != logits.shape:
        raise ShapeError(f"softmax_xent shape mismatch: {logits.shape} vs {onehot.shape}")
    n, k = logits.shape
    loss, row_max, _, _ = _xent_value(logits.data, onehot)

    def rule(g: Tensor) -> Tensor:
        a = fill(scale(g, 1.0 / n), (n, 1))
        e = exp(sub(logits, tile_cols(constant(row_max), k)))
        via_lse = mul(tile_cols(div(a, sum_last(e)), k), e)
        via_target = mul(tile_cols(neg(a), k), constant(onehot))
        return add(via_lse, via_target)

    return Tensor(loss, (logits,), (rule,))


def softmax_xent_grad(logits: Array, onehot: Array) -> tuple[float, Array]:
    """`softmax_xent`'s value and its logits adjoint for a unit output
    adjoint, as plain arrays and with no graph: bit for bit what the
    node's value and first-order rule give, from the same array ops in
    the same order."""
    loss, _, e, s = _xent_value(logits, onehot)
    a = 1.0 / logits.shape[0]
    return float(loss), (a / s) * e + (-a) * onehot


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    mask = constant(np.where(x.data > 0, 1.0, slope))
    return Tensor(x.data * mask.data, (x,), (lambda g: mul(g, mask),))


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data), (x,), (lambda g: mul(g, out),))
    return out


def sqrt(x: Tensor) -> Tensor:
    # denominator floored so the rule stays finite at exactly zero
    out = Tensor(
        np.sqrt(x.data), (x,), (lambda g: div(scale(g, 0.5), clamp_min(out, _TINY)),)
    )
    return out


def clamp_min(x: Tensor, c: float) -> Tensor:
    mask = constant((x.data > c).astype(np.float64))
    return Tensor(np.maximum(x.data, c), (x,), (lambda g: mul(g, mask),))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; both operands 1-d or both 2-d."""
    if a.data.ndim != b.data.ndim or a.data.ndim not in (1, 2):
        raise ShapeError(f"concat_cols shape mismatch: {a.shape} vs {b.shape}")
    if a.data.ndim == 2 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols shape mismatch: {a.shape} vs {b.shape}")
    ka, kb = a.shape[-1], b.shape[-1]
    return Tensor(
        np.concatenate([a.data, b.data], axis=-1),
        (a, b),
        (lambda g: slice_cols(g, 0, ka), lambda g: slice_cols(g, ka, ka + kb)),
    )


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    total = x.shape[-1]
    if not 0 <= start <= stop <= total:
        raise ShapeError(f"slice_cols [{start}:{stop}] out of range for shape {x.shape}")
    return Tensor(
        x.data[..., start:stop].copy(),
        (x,),
        (lambda g: pad_cols(g, start, total - stop),),
    )


def pad_cols(x: Tensor, before: int, after: int) -> Tensor:
    """Zero-pad along the last axis."""
    width = [(0, 0)] * (x.data.ndim - 1) + [(before, after)]
    k = x.shape[-1]
    return Tensor(
        np.pad(x.data, width), (x,), (lambda g: slice_cols(g, before, before + k),)
    )


# ---------------------------------------------------------------------------
# backward engine


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def grad(
    output: Tensor, inputs: Sequence[Tensor], create_graph: bool = False
) -> list[Tensor | None]:
    """Adjoints of a scalar ``output`` for each tensor in ``inputs``.

    Entries are ``None`` where the output does not depend on the input.
    Only nodes on a path from ``output`` to an input are walked, and a
    node's rule runs only for parents on such a path. With
    ``create_graph`` the adjoints stay connected to the graph and can be
    differentiated again; without it they are constants.
    """
    global _record
    if output.data.size != 1:
        raise ContractError(f"grad of non-scalar output, shape {output.shape}")
    adjoint: dict[int, Tensor] = {id(output): constant(np.ones_like(output.data))}
    if output.requires_grad:
        order = _toposort(output)  # parents before children
        live = {id(t) for t in inputs if t.requires_grad}
        for node in order:
            if any(id(p) in live for p in node.parents):
                live.add(id(node))
        saved, _record = _record, create_graph
        try:
            for node in reversed(order):
                g = adjoint.get(id(node))
                if g is None or node.vjps is None:
                    continue
                for parent, rule in zip(node.parents, node.vjps):
                    if id(parent) not in live:
                        continue
                    pg = rule(g)
                    prev = adjoint.get(id(parent))
                    adjoint[id(parent)] = pg if prev is None else add(prev, pg)
        finally:
            _record = saved
    return [adjoint.get(id(t)) for t in inputs]


class ParamStore:
    """Named trainable tensors together with their latest gradients."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self.grads: dict[str, Array] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = leaf(value)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def set_value(self, name: str, value: Array) -> None:
        t = self._params[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != t.data.shape:
            raise ShapeError(
                f"value for {name!r} has shape {value.shape}, expected {t.data.shape}"
            )
        t.data = value.copy()


def require_finite_loss(loss: float) -> None:
    """A non-finite loss is a ContractError: training diverged."""
    if not np.isfinite(loss):
        raise ContractError(f"loss is {loss}: training diverged")


def backward(loss: Tensor, *stores: ParamStore) -> None:
    """Populate every store's gradients with d(loss)/d(param).

    Parameters the loss does not reach get zero gradients; a non-finite
    loss is a ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    require_finite_loss(loss.item())
    slots = [(s, name, t) for s in stores for name, t in s.items()]
    adjoints = grad(loss, [t for _, _, t in slots])
    for (store, name, t), g in zip(slots, adjoints):
        if g is None:
            store.grads[name] = np.zeros_like(t.data)
        else:
            if g.data.shape != t.data.shape:
                raise ShapeError(
                    f"gradient for {name!r} has shape {g.data.shape}, "
                    f"expected {t.data.shape}"
                )
            # linear's weight adjoint is a transposed view; Adam runs
            # faster on C-ordered arrays like its moments and parameters
            store.grads[name] = np.ascontiguousarray(g.data)


def grad_check(
    loss_fn: Callable[[], Tensor], *stores: ParamStore, eps: float = 1e-5
) -> float:
    """Compare backward() against central differences, entry by entry.

    Returns max over entries of |g_ad - g_fd| / max(1, |g_fd|); an empty
    store yields 0. ``loss_fn`` must rebuild its graph from the stores'
    current values on every call.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    backward(loss_fn(), *stores)
    analytic = {
        (i, name): s.grads[name].copy()
        for i, s in enumerate(stores)
        for name in s.names()
    }
    worst = 0.0
    for i, store in enumerate(stores):
        for name, t in store.items():
            flat = t.data.reshape(-1)
            g_ad = analytic[(i, name)].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                lo_hi = loss_fn().item()
                flat[j] = orig - eps
                lo_lo = loss_fn().item()
                flat[j] = orig
                g_fd = (lo_hi - lo_lo) / (2.0 * eps)
                err = abs(g_ad[j] - g_fd) / max(1.0, abs(g_fd))
                worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# optimizers


def sgd_step(store: ParamStore, lr: float) -> None:
    """Plain gradient-descent update; lr == 0 is a no-op."""
    if lr < 0:
        raise ContractError("learning rate must be non-negative")
    for name, t in store.items():
        g = store.grads.get(name)
        if g is None:
            raise ContractError(f"missing gradient for parameter {name!r}")
        t.data = t.data - lr * g


class AdamState:
    """First/second-moment accumulators for one parameter store."""

    def __init__(self, store: ParamStore) -> None:
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.t = 0


def adam_step(
    store: ParamStore,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam update with bias correction; lr == 0 leaves parameters fixed."""
    if lr < 0:
        raise ContractError("learning rate must be non-negative")
    state.t += 1
    for name, t in store.items():
        g = store.grads.get(name)
        if g is None:
            raise ContractError(f"missing gradient for parameter {name!r}")
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = state.m[name] / (1 - beta1**state.t)
        v_hat = state.v[name] / (1 - beta2**state.t)
        t.data = t.data - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# checkpoint serialization

# One record per line: <name> <d0,d1,...|-> <values...>, floats as %.17g
# so doubles round-trip exactly. "-" marks a 0-d (scalar) parameter.

# values formatted at a time, so a record's text is never held whole
SAVE_CHUNK = 16384


def save_params(path, stores: dict[str, ParamStore]) -> None:
    """Write ordered (name, shape, values) records as UTF-8 text."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for prefix, store in stores.items():
            for name, t in store.items():
                full = f"{prefix}.{name}" if prefix else name
                dims = ",".join(str(s) for s in t.data.shape) or "-"
                handle.write(f"{full} {dims}")
                flat = t.data.reshape(-1)
                for start in range(0, flat.size, SAVE_CHUNK):
                    chunk = flat[start : start + SAVE_CHUNK].tolist()
                    handle.write(" " + " ".join(["%.17g"] * len(chunk)) % tuple(chunk))
                handle.write("\n")
        if not handle.tell():  # no records: one empty line
            handle.write("\n")


def load_params(path, prefixes=None) -> dict[str, Array]:
    """Read a checkpoint back into name -> array.

    With ``prefixes``, only records named ``<prefix>.<rest>`` for one of
    them are kept, and the values of the others are not parsed; record
    structure (at least a name and a shape, no duplicate name) is still
    checked on every line.
    """
    out: dict[str, Array] = {}
    names: set[str] = set()
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split(None, 2)
            if not fields:
                continue
            if len(fields) < 2:
                raise FormatError(f"{path}:{lineno}: malformed checkpoint record")
            name, dims, *rest = fields
            if name in names:
                raise FormatError(f"{path}:{lineno}: duplicate parameter {name!r}")
            names.add(name)
            head, dot, _ = name.partition(".")
            if prefixes is not None and not (dot and head in prefixes):
                continue
            try:
                shape = () if dims == "-" else tuple(int(d) for d in dims.split(","))
                values = np.array(rest[0].split() if rest else [], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            expected = int(np.prod(shape)) if shape else 1
            if values.size != expected:
                raise FormatError(
                    f"{path}:{lineno}: {values.size} values for shape {shape}"
                )
            out[name] = values.reshape(shape)
    if not names:
        raise FormatError(f"{path}: empty checkpoint")
    return out


def restore_store(store: ParamStore, values: dict[str, Array], prefix: str = "") -> None:
    """Load checkpoint arrays into an existing store, by name."""
    for name in store.names():
        full = f"{prefix}.{name}" if prefix else name
        if full not in values:
            raise FormatError(f"checkpoint is missing parameter {full!r}")
        store.set_value(name, values[full])
