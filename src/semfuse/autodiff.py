"""Reverse-mode automatic differentiation over dense float64 arrays.

The trained objectives take their gradients on plain arrays, by the
affine map's rule `linear_grads` and the cross-entropy's
`softmax_xent_grad`. A small tape-free graph engine differentiates the
one term whose value is itself an input gradient, the Wasserstein
gradient penalty: every operation returns a new `Tensor` holding its
value, its parents, and one vector-Jacobian rule per parent written in
terms of the same operations. The penalty's norm tail is one node,
`unit_norm_penalty`, whose closed-form rule is written on arrays. `grad`
walks only the nodes on a path from its output to one of its inputs,
calls a rule only for a parent on such a path, and its rules build plain
constants (no parents, no rules).

Scalars are tensors of shape ``()``; every operation requires exact
shapes.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, FormatError, ShapeError, written_whole

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


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    return Tensor(a.data * b.data, (a, b), (lambda g: mul(g, b), lambda g: mul(g, a)))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    return Tensor(x.data * c, (x,), (lambda g: scale(g, c),))


def unit_norm_penalty(g: Tensor, width: int) -> Tensor:
    """Mean over the rows of an (n, k) ``g`` of ``(|g[:, :width]| - 1)**2``
    as one node: the gradient penalty's tail.

    The value runs, on arrays, the operations of the chain slice,
    square, row sum, sqrt, shift by -1, square, mean, in the chain's
    order; the rule is the chain's in closed form, ``x * 2.0`` for its
    ``x + x`` and ``x`` for its ``(x + x) * 0.5``, so the bits are the
    chain's wherever the penalty is finite. The sqrt's denominator is
    floored at _TINY, so a zero row keeps a finite adjoint. The rule
    builds a plain constant: there is no second-order rule.
    """
    _require_2d(g, "unit_norm_penalty")
    n, k = g.shape
    if not 0 <= width <= k:
        raise ShapeError(f"unit_norm_penalty width {width} out of range for shape {g.shape}")
    gs = g.data[:, :width]
    norms = np.sqrt((gs * gs).sum(axis=1, keepdims=True))
    u = norms + -1.0

    def rule(c: Tensor) -> Tensor:
        if _record:
            raise ContractError("unit_norm_penalty has no second-order rule")
        a = c.data * (1.0 / n)
        asl = (a * u) / np.maximum(norms, _TINY)
        out = np.zeros((n, k))
        out[:, :width] = asl * gs * 2.0
        return constant(out)

    return Tensor((u * u).sum() * (1.0 / n), (g,), (rule,))


def linear_grads(x: Array, g: Array) -> tuple[Array, Array]:
    """Weight and bias adjoints of ``x @ W.T + b`` for its output
    adjoint ``g``; the weight adjoint is a transposed view."""
    return (x.T @ g).T, g.sum(axis=0)


def softmax_xent_grad(logits: Array, targets: Array, g=1.0) -> tuple[float, Array]:
    """Mean over rows of ``logsumexp(row) - row[target]`` (the stable
    log-sum-exp, with a per-row max shift): softmax cross-entropy of
    (n, k) logits against the (n,) target column of each row, and its
    logits adjoint for the output adjoint ``g``. A non-finite logit
    anywhere gives a non-finite loss.

    The bits are those of the one-hot form ``lse - sum(logits *
    onehot)`` and ``(a / s) * e + (-a) * onehot``: a one-hot row sums to
    its target logit exactly, and adds ``-a`` to the target entry and
    ``0 * -a`` to the others."""
    if targets.shape != logits.shape[:1]:
        raise ShapeError(
            f"softmax_xent_grad shape mismatch: logits {logits.shape} vs targets {targets.shape}"
        )
    # each (n, k) operation into a buffer reused for the next
    row_max = np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.subtract(logits, row_max)
    np.exp(e, out=e)
    s = np.add.reduce(e, axis=1, keepdims=True)
    lse = np.log(s)
    lse += row_max
    n = logits.shape[0]
    rows = np.arange(n)
    lse[:, 0] -= logits[rows, targets]
    loss = np.add.reduce(lse, axis=None) * (1.0 / n)
    # NaN and +inf already reach the loss; an off-target -inf does not,
    # where the one-hot form's 0 * -inf is NaN
    if np.minimum.reduce(logits, axis=None) == -math.inf:
        loss = math.nan
    a = g * (1.0 / n)
    e *= a / s
    if math.copysign(1.0, a) < 0:  # 0 * -a is then +0.0, which turns a -0.0 to +0.0
        e += 0.0
    np.subtract.at(e, (rows, targets), a)
    return float(loss), e


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
    if not math.isfinite(loss):
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


# elements in one block that `adam_step` updates at a time, so that its
# temporaries stay in cache
ADAM_BLOCK = 16384


class AdamState:
    """First/second-moment accumulators for one store of parameters.

    The store's moments live in one flat buffer each, parameter after
    parameter in C order; ``m`` and ``v`` map each name to its view,
    shaped as the parameter. ``blocks`` plans the buffer once: runs of
    parameters of at most ADAM_BLOCK elements are packed into one block
    of at most that many, and a larger parameter is cut into blocks of
    whole rows, about ADAM_BLOCK elements each. ``buffer`` is the flat
    buffer the last step wrote the parameters to, and ``views`` the view
    of it each parameter became.
    """

    def __init__(self, params: Params) -> None:
        # per parameter: its start and stop in the buffers, and its shape
        self.spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        # per block: [start, stop, parts], and per part the name of a
        # parameter in the block and the rows it holds (None: all of it)
        self.blocks: list[list] = []
        size, packed = 0, False  # packed: the last block takes small parameters
        for name, w in params.items():
            shape = np.shape(w)
            n = math.prod(shape)
            self.spans[name] = (size, size + n, shape)
            if n <= ADAM_BLOCK:
                if not (packed and size + n - self.blocks[-1][0] <= ADAM_BLOCK):
                    self.blocks.append([size, size, []])
                self.blocks[-1][1] += n
                self.blocks[-1][2].append((name, None))
                packed = True
            else:
                row = n // shape[0]
                rows = max(1, ADAM_BLOCK // row)
                for i in range(0, shape[0], rows):
                    stop = min(i + rows, shape[0])
                    self.blocks.append([size + i * row, size + stop * row,
                                        [(name, slice(i, stop))]])
                packed = False
            size += n
        self.flat_m, self.flat_v = np.zeros(size), np.zeros(size)
        self.m = {name: self.flat_m[a:b].reshape(s) for name, (a, b, s) in self.spans.items()}
        self.v = {name: self.flat_v[a:b].reshape(s) for name, (a, b, s) in self.spans.items()}
        self.t = 0
        self.buffer: Array | None = None
        self.views: Params = {}


def _block(arrays: dict[str, Array], parts) -> Array:
    """The elements a block of `AdamState.blocks` holds of ``arrays``,
    flat in C order: a view where they lie so already, else a copy."""
    if len(parts) > 1:  # whole small parameters, packed
        return np.concatenate([arrays[name] for name, _ in parts], axis=None)
    ((name, rows),) = parts
    return (arrays[name] if rows is None else arrays[name][rows]).ravel()


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

    The store is updated a block of ``state.blocks`` at a time: its
    moments in ``state`` in place, the parameters into one fresh flat
    buffer of which each ``params[name]`` becomes a C-ordered view, so
    an array held from before the step keeps its values. While every
    parameter is still the view the last step made it, the parameters
    are read from that step's buffer, not gathered again. Every element
    takes the same operations in the same order, so the bits do not
    depend on the blocks or on the gradient's memory layout.
    """
    if lr < 0:
        raise ContractError("learning rate must be non-negative")
    for name, w in params.items():
        _gradient(grads, name, w)
        if name not in state.spans:
            raise ContractError(f"no Adam moments for parameter {name!r}")
        shape = state.spans[name][2]
        if w.shape != shape:
            raise ShapeError(
                f"parameter {name!r} has shape {w.shape}, its Adam moments {shape}"
            )
    if len(params) != len(state.spans):
        missing = next(name for name in state.spans if name not in params)
        raise ContractError(f"parameter {missing!r} of the Adam moments is missing")
    state.t += 1
    c1, c2 = 1 - beta1**state.t, 1 - beta2**state.t
    last = state.buffer if all(params[k] is w for k, w in state.views.items()) else None
    new = np.empty(state.flat_m.size)
    for start, stop, parts in state.blocks:
        gb = _block(grads, parts)
        wb = _block(params, parts) if last is None else last[start:stop]
        mb, vb, nb = state.flat_m[start:stop], state.flat_v[start:stop], new[start:stop]
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
    state.buffer, state.views = new, {}
    for name, (start, stop, shape) in state.spans.items():
        params[name] = state.views[name] = new[start:stop].reshape(shape)


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# The text export holds one record per line: <name> <d0,d1,...|-> <values...>,
# floats as %.17g so doubles round-trip exactly. "-" marks a 0-d (scalar)
# parameter.
#
# The binary records, which runs are restored from, are little-endian:
# magic "SFCK", uint32 format version, the two sha256 digests the
# records are bound to, uint32 record count, the uint32 CRC-32 of every
# byte after this 80-byte header, then per record a uint32 name length,
# the UTF-8 name, uint32 ndim, ndim uint64 dims and the raw float64
# values in C order.

# values formatted at a time, so a record's text is never held whole
SAVE_CHUNK = 16384
# the text export is formatted by one forked worker per usable CPU once
# every worker gets this many values; a smaller export is formatted here
SAVE_POOL_MIN = 4 * SAVE_CHUNK

_BINARY_MAGIC = b"SFCK"
_BINARY_VERSION = 4
# after the magic and the uint32 version: the two bound digests, record
# count, CRC-32 of the records
_HEADER = struct.Struct("<32s32sII")


def _records(stores: dict[str, Params]):
    for prefix, params in stores.items():
        for name, w in params.items():
            yield (f"{prefix}.{name}" if prefix else name), w


def render_values(values: Array, sep: str = " ") -> str:
    """``values`` at %.17g, each after ``sep``: the text export's and the
    feature CSV's number format."""
    values = values.tolist()
    return (sep + sep.join(["%.17g"] * len(values))) % tuple(values)


def _chunks(records):
    """Every record's values, in record order, SAVE_CHUNK at a time."""
    for _, w in records:
        flat = w.reshape(-1)
        for start in range(0, flat.size, SAVE_CHUNK):
            yield flat[start : start + SAVE_CHUNK]


def _save_workers(values: int) -> int:
    """Processes to format ``values`` values in: one per usable CPU if
    the platform forks, there are two or more, and each gets
    SAVE_POOL_MIN values; otherwise 0, formatting them in-process."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    workers = len(os.sched_getaffinity(0))
    return workers if workers > 1 and values >= SAVE_POOL_MIN * workers else 0


def save_params(path, stores: dict[str, Params]) -> None:
    """Write ordered (name, shape, values) records as UTF-8 text, whole
    or not at all.

    A large export's chunks are formatted by forked workers (see
    `_save_workers`), which only convert values to text; this process
    writes their pieces in record order, so the bytes are the same."""
    records = list(_records(stores))
    workers = _save_workers(sum(w.size for _, w in records))
    with written_whole(path, "w", encoding="utf-8", newline="") as handle:

        def write_records(rendered) -> None:
            for full, w in records:
                dims = ",".join(str(s) for s in w.shape) or "-"
                handle.write(f"{full} {dims}")
                for _ in range(0, w.size, SAVE_CHUNK):
                    handle.write(next(rendered))
                handle.write("\n")

        if workers:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            # fork, not spawn, which would import numpy in every worker.
            # The pool forks before it starts a thread, and a worker only
            # unpickles, formats and pickles: no BLAS call, and no lock a
            # BLAS thread could hold at the fork. A worker's error, or its
            # death, is raised here; shutdown reaps every worker.
            pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
            try:
                write_records(pool.map(render_values, _chunks(records)))
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            write_records(map(render_values, _chunks(records)))
        if not handle.tell():  # no records: one empty line
            handle.write("\n")


def write_params_binary(path, stores: dict[str, Params], bound: tuple[bytes, ...]) -> None:
    """Write the binary records of ``stores``, whole or not at all,
    bound to two sha256 digests, with the CRC-32 of the records, which
    is computed as they are written and then put in the header. Each
    array's values are written from its own buffer, which a C-ordered
    float64 array needs no copy for."""
    records = list(_records(stores))
    crc = 0
    with written_whole(path, "wb") as handle:
        handle.write(_BINARY_MAGIC + struct.pack("<I", _BINARY_VERSION))
        handle.write(_HEADER.pack(*bound, len(records), crc))
        for full, w in records:
            name = full.encode("utf-8")
            head = struct.pack(f"<I{len(name)}sI{w.ndim}Q", len(name), name, w.ndim, *w.shape)
            values = np.ascontiguousarray(w, dtype="<f8")
            crc = zlib.crc32(values, zlib.crc32(head, crc))
            handle.write(head)
            handle.write(values)
        handle.seek(len(_BINARY_MAGIC) + 4 + _HEADER.size - 4)
        handle.write(struct.pack("<I", crc))


def load_params(path) -> tuple[dict[str, Array], tuple[bytes, ...]]:
    """Read every binary record back into name -> array, with the two
    digests they are bound to. A bad magic or version, a truncated or
    over-long file and a duplicate name are FormatErrors naming the
    record and its byte offset; records whose CRC-32, taken as they are
    read, is not the header's are a FormatError naming the file.
    """
    out: dict[str, Array] = {}
    names: set[str] = set()
    crc = 0
    with Path(path).open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        where = "header at byte 0"

        def need(n: int) -> None:
            if handle.tell() + n > size:
                raise FormatError(f"{path}: {where}: truncated at byte {size}")

        def read(n: int) -> bytes:
            nonlocal crc
            need(n)
            data = handle.read(n)
            crc = zlib.crc32(data, crc)
            return data

        magic = read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise FormatError(f"{path}: {where}: bad magic {magic!r}, not a binary checkpoint")
        (version,) = struct.unpack("<I", read(4))
        if version != _BINARY_VERSION:
            raise FormatError(
                f"{path}: {where}: format version {version}, expected {_BINARY_VERSION}; "
                "retrain the run"
            )
        *bound, count, expected = _HEADER.unpack(read(_HEADER.size))
        crc = 0  # of the records alone
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
            values = np.empty(shape, dtype="<f8")
            handle.readinto(values)
            crc = zlib.crc32(values, crc)
            out[name] = values
        end = handle.tell()
        if end != size:
            raise FormatError(
                f"{path}: {size - end} bytes after the last record (record {count}) "
                f"at byte {end}"
            )
    if crc != expected:
        raise FormatError(
            f"{path}: the records' CRC-32 is {crc:08x}, the header says {expected:08x}; "
            "the file was changed after it was written"
        )
    return out, tuple(bound)


def restore_store(
    shapes: Sequence[tuple[str, tuple[int, ...]]], values: dict[str, Array], prefix: str = ""
) -> Params:
    """The store of the parameters ``shapes`` lists as (name, shape) in
    store order, each the checkpoint array ``values[<prefix>.<name>]``
    itself; a missing record is a FormatError, one of another shape a
    ShapeError."""
    params = {}
    for name, shape in shapes:
        full = f"{prefix}.{name}" if prefix else name
        if full not in values:
            raise FormatError(f"checkpoint is missing parameter {full!r}")
        value = values[full]
        if value.shape != shape:
            raise ShapeError(f"value for {full!r} has shape {value.shape}, expected {shape}")
        params[name] = value
    return params
