"""Reverse-mode automatic differentiation over dense float64 arrays.

The trained objectives take their gradients on plain arrays, by the
affine map's rule `linear_grads` and the cross-entropy's
`softmax_xent_grad`. A small tape-free graph engine differentiates the
one term whose value is itself an input gradient, the Wasserstein
gradient penalty: every operation returns a new `Tensor` holding its
value, its parents, and one vector-Jacobian rule per parent written in
terms of the same operations. `grad` walks only the nodes on a path from
its output to one of its inputs, calls a rule only for a parent on such
a path, and its rules build plain constants (no parents, no rules).

Scalars are tensors of shape ``()``; every operation requires exact
shapes.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, FormatError, ShapeError

Array = np.ndarray
# a model's parameters, name -> array; an update replaces each array
Params = dict[str, Array]

# floor for denominators in backward rules; only reached at kink points
_TINY = 1e-150

# False while grad runs a rule: ops then build plain constants instead
# of graph nodes. Module state, so one thread at a time may build graphs
# or take gradients.
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
    """Graph leaf that receives a gradient."""
    return Tensor(x, requires_grad=True)


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


def linear_grads(x: Array, g: Array) -> tuple[Array, Array]:
    """Weight and bias adjoints of ``x @ W.T + b`` for its output
    adjoint ``g``; the weight adjoint is a transposed view."""
    return (x.T @ g).T, g.sum(axis=0)


def softmax_xent_grad(logits: Array, onehot: Array, g=1.0) -> tuple[float, Array]:
    """Mean over rows of ``logsumexp(row) - <row, onehot row>`` (the
    stable log-sum-exp, with a per-row max shift): softmax cross-entropy
    of (n, k) logits against an (n, k) target, and its logits adjoint
    for the output adjoint ``g``."""
    row_max = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - row_max)
    s = e.sum(axis=1, keepdims=True)
    lse = np.log(s) + row_max
    n = logits.shape[0]
    loss = (lse - (logits * onehot).sum(axis=1, keepdims=True)).sum() * (1.0 / n)
    a = g * (1.0 / n)
    return float(loss), (a / s) * e + (-a) * onehot


def sqrt(x: Tensor) -> Tensor:
    # denominator floored so the rule stays finite at exactly zero, and a
    # constant, so the (first-order) rule holds no cycle through its node
    value = np.sqrt(x.data)
    floored = constant(np.maximum(value, _TINY))
    return Tensor(value, (x,), (lambda g: div(scale(g, 0.5), floored),))


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


def grad(output: Tensor, inputs: Sequence[Tensor]) -> list[Tensor | None]:
    """Adjoints of a scalar ``output`` for each tensor in ``inputs``, as
    constants.

    Entries are ``None`` where the output does not depend on the input.
    Only nodes on a path from ``output`` to an input are walked, and a
    node's rule runs only for parents on such a path.
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
        saved, _record = _record, False
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


def require_finite_loss(loss: float) -> None:
    """A non-finite loss is a ContractError: training diverged."""
    if not np.isfinite(loss):
        raise ContractError(f"loss is {loss}: training diverged")


# ---------------------------------------------------------------------------
# optimizers


def _gradient(grads: dict[str, Array], name: str, w: Array) -> Array:
    """``grads[name]``, which must have the shape of the parameter ``w``."""
    g = grads.get(name)
    if g is None:
        raise ContractError(f"missing gradient for parameter {name!r}")
    if g.shape != w.shape:
        raise ShapeError(
            f"gradient for parameter {name!r} has shape {g.shape}, expected {w.shape}"
        )
    return g


def sgd_step(params: Params, grads: dict[str, Array], lr: float) -> None:
    """Plain gradient-descent update; lr == 0 is a no-op."""
    if lr < 0:
        raise ContractError("learning rate must be non-negative")
    for name, w in params.items():
        params[name] = w - lr * np.asarray(_gradient(grads, name, w), order="C")


class AdamState:
    """First/second-moment accumulators for one set of parameters."""

    def __init__(self, params: Params) -> None:
        self.m = {name: np.zeros_like(w) for name, w in params.items()}
        self.v = {name: np.zeros_like(w) for name, w in params.items()}
        self.t = 0


# elements in one block of rows that `adam_step` updates at a time, so
# that its temporaries stay in cache
ADAM_BLOCK = 16384


def _row_blocks(*arrays: Array) -> Sequence[Sequence[Array]]:
    """Matching blocks of whole rows of same-shaped arrays, about
    ADAM_BLOCK elements each; arrays that fit in one block are it."""
    w = arrays[0]
    if w.size <= ADAM_BLOCK:
        return (arrays,)
    rows = max(1, ADAM_BLOCK // (w.size // len(w)))
    return [[a[i : i + rows] for a in arrays] for i in range(0, len(w), rows)]


def adam_step(
    params: Params,
    grads: dict[str, Array],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam update with bias correction; lr == 0 leaves parameters fixed.

    Each parameter is updated a block of rows at a time (`_row_blocks`):
    its moments in ``state`` in place, the parameter itself into one
    fresh C-ordered array that replaces it. Every element takes the
    same operations in the same order, so the bits do not depend on the
    blocks or on the gradient's memory layout.
    """
    if lr < 0:
        raise ContractError("learning rate must be non-negative")
    state.t += 1
    c1, c2 = 1 - beta1**state.t, 1 - beta2**state.t
    for name, w in params.items():
        g = _gradient(grads, name, w)
        if name not in state.m:
            raise ContractError(f"no Adam moments for parameter {name!r}")
        new = np.empty(w.shape)
        for wb, gb, mb, vb, nb in _row_blocks(w, g, state.m[name], state.v[name], new):
            gb = np.asarray(gb, order="C")
            # the new block holds each moment's gradient term, then the
            # denominator, then the result
            np.multiply(gb, 1 - beta1, out=nb)
            mb *= beta1
            mb += nb
            np.multiply(gb, 1 - beta2, out=nb)
            nb *= gb
            vb *= beta2
            vb += nb
            np.divide(vb, c2, out=nb)
            np.sqrt(nb, out=nb)
            nb += eps
            step = mb / c1
            step *= lr
            step /= nb
            np.subtract(wb, step, out=nb)
        params[name] = new


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# The text export holds one record per line: <name> <d0,d1,...|-> <values...>,
# floats as %.17g so doubles round-trip exactly. "-" marks a 0-d (scalar)
# parameter.
#
# The binary records, which runs are restored from, are little-endian:
# magic "SFCK", uint32 format version, the sha256 digests of the two
# files the records are bound to, uint32 record count, then per record a
# uint32 name length, the UTF-8 name, uint32 ndim, ndim uint64 dims and
# the raw float64 values in C order.

# values formatted at a time, so a record's text is never held whole
SAVE_CHUNK = 16384

_BINARY_MAGIC = b"SFCK"
_BINARY_VERSION = 1
# after the magic: version, the two bound digests, record count
_HEADER = struct.Struct("<I32s32sI")


def _records(stores: dict[str, Params]):
    for prefix, params in stores.items():
        for name, w in params.items():
            yield (f"{prefix}.{name}" if prefix else name), w


def save_params(path, stores: dict[str, Params]) -> bytes:
    """Write ordered (name, shape, values) records as UTF-8 text; returns
    the sha256 digest of the bytes written, hashed as they are written."""
    digest = hashlib.sha256()
    with Path(path).open("wb") as handle:

        def write(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            handle.write(data)

        for full, w in _records(stores):
            dims = ",".join(str(s) for s in w.shape) or "-"
            write(f"{full} {dims}")
            flat = w.reshape(-1)
            for start in range(0, flat.size, SAVE_CHUNK):
                chunk = flat[start : start + SAVE_CHUNK].tolist()
                write(" " + " ".join(["%.17g"] * len(chunk)) % tuple(chunk))
            write("\n")
        if not handle.tell():  # no records: one empty line
            write("\n")
    return digest.digest()


def write_params_binary(path, stores: dict[str, Params], bound: tuple[bytes, bytes]) -> None:
    """Write the binary records of ``stores``, bound to two sha256
    digests. Each array's values are written from its own buffer, which
    a C-ordered float64 array needs no copy for."""
    records = list(_records(stores))
    with Path(path).open("wb") as handle:
        handle.write(_BINARY_MAGIC + _HEADER.pack(_BINARY_VERSION, *bound, len(records)))
        for full, w in records:
            name = full.encode("utf-8")
            head = f"<I{len(name)}sI{w.ndim}Q"
            handle.write(struct.pack(head, len(name), name, w.ndim, *w.shape))
            handle.write(np.ascontiguousarray(w, dtype="<f8"))


def load_params(path, prefixes=None) -> tuple[dict[str, Array], tuple[bytes, bytes]]:
    """Read binary records back into name -> array, with the two digests
    they are bound to.

    With ``prefixes``, only records named ``<prefix>.<rest>`` for one of
    them are kept; the values of the others are seeked past, unread.
    Every record's header is still checked. A bad magic or version, a
    truncated or over-long file and a duplicate name are FormatErrors
    naming the record and its byte offset.
    """
    out: dict[str, Array] = {}
    names: set[str] = set()
    with Path(path).open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        where = "header at byte 0"

        def need(n: int) -> None:
            if handle.tell() + n > size:
                raise FormatError(f"{path}: {where}: truncated at byte {size}")

        def read(n: int) -> bytes:
            need(n)
            return handle.read(n)

        magic = read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise FormatError(f"{path}: {where}: bad magic {magic!r}, not a binary checkpoint")
        version, *bound, count = _HEADER.unpack(read(_HEADER.size))
        if version != _BINARY_VERSION:
            raise FormatError(
                f"{path}: {where}: format version {version}, expected {_BINARY_VERSION}"
            )
        for index in range(1, count + 1):
            start = handle.tell()
            where = f"record {index} at byte {start}"
            (length,) = struct.unpack("<I", read(4))
            try:
                name = read(length).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: {where}: name is not UTF-8 ({exc})") from None
            where = f"record {index} {name!r} at byte {start}"
            if name in names:
                raise FormatError(f"{path}: {where}: duplicate parameter {name!r}")
            names.add(name)
            (ndim,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
            nbytes = 8 * math.prod(shape)
            need(nbytes)
            head, dot, _ = name.partition(".")
            if prefixes is not None and not (dot and head in prefixes):
                handle.seek(nbytes, os.SEEK_CUR)
                continue
            values = np.empty(shape, dtype="<f8")
            handle.readinto(values)
            out[name] = values
        end = handle.tell()
        if end != size:
            raise FormatError(
                f"{path}: {size - end} bytes after the last record (record {count}) "
                f"at byte {end}"
            )
    return out, tuple(bound)


def restore_store(params: Params, values: dict[str, Array], prefix: str = "") -> None:
    """Replace each of ``params`` by its checkpoint array, by name; a
    missing record is a FormatError, one of another shape a ShapeError."""
    for name, w in params.items():
        full = f"{prefix}.{name}" if prefix else name
        if full not in values:
            raise FormatError(f"checkpoint is missing parameter {full!r}")
        value = np.asarray(values[full], dtype=np.float64)
        if value.shape != w.shape:
            raise ShapeError(f"value for {name!r} has shape {value.shape}, expected {w.shape}")
        params[name] = value
