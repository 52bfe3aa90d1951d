"""The graph engine's first- and second-order form, kept as the reference
the array gradients are compared against.

`semfuse.autodiff` keeps the graph operations the gradient penalty needs
and a first-order `grad`. This module adds the operations the trained
objectives were once written in, a `grad` that can build its adjoints
as graph nodes (``create_graph``), `backward` and `grad_check`, and the
graph form of every trained objective: the embedding loss, the critic
loss with its penalty taken by a double backward, the generator loss
and the classifier loss. The objective functions return what their
counterparts in `semfuse` return, so a test can put one in place of the
other and compare a training run bit for bit. A model's parameters are
a dict of arrays; each objective call wraps them in fresh graph leaves
(`leaves`), which share the arrays' memory, and `backward` returns one
gradient dict per leaf dict.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from semfuse import autodiff as ad
from semfuse.errors import ContractError, ShapeError
from semfuse.gen_zsl import LEAKY_SLOPE

Tensor = ad.Tensor


# ---------------------------------------------------------------------------
# operations


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad._require_same_shape(a, b, "sub")
    return Tensor(a.data - b.data, (a, b), (ad._identity, ad.neg))


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
            lambda g: ad.matmul(g, W),
            lambda g: ad.transpose(ad.matmul(ad.transpose(x), g)),
            sum_rows,
        ),
    )


def sum_rows(x: Tensor) -> Tensor:
    """(n, k) -> (k,), summing over rows."""
    ad._require_2d(x, "sum_rows")
    n = x.shape[0]
    return Tensor(x.data.sum(axis=0), (x,), (lambda g: tile_rows(g, n),))


def tile_rows(v: Tensor, n: int) -> Tensor:
    """(k,) -> (n, k), repeating the vector as rows."""
    if v.data.ndim != 1:
        raise ShapeError(f"tile_rows expects a vector, got shape {v.shape}")
    return Tensor(np.broadcast_to(v.data, (n, v.shape[0])).copy(), (v,), (sum_rows,))


def sum_sq(x: Tensor) -> Tensor:
    """Sum of squared entries as a scalar."""
    return ad.sum_all(ad.square(x))


def softmax_xent(logits: Tensor, onehot) -> Tensor:
    """`ad.softmax_xent_grad`'s loss as one node whose rule returns its
    logits adjoint as a constant, so there is no second-order rule: a
    graph-building `grad` through it is a ContractError."""
    ad._require_2d(logits, "softmax_xent")
    onehot = np.asarray(onehot, dtype=np.float64)
    if onehot.shape != logits.shape:
        raise ShapeError(f"softmax_xent shape mismatch: {logits.shape} vs {onehot.shape}")

    def rule(g: Tensor) -> Tensor:
        if ad._record:
            raise ContractError("softmax_xent has no second-order rule")
        return ad.constant(ad.softmax_xent_grad(logits.data, onehot, g.data)[1])

    return Tensor(ad.softmax_xent_grad(logits.data, onehot)[0], (logits,), (rule,))


def leaky_relu(x: Tensor, slope: float = LEAKY_SLOPE) -> Tensor:
    mask = ad.constant(np.where(x.data > 0, 1.0, slope))
    return Tensor(x.data * mask.data, (x,), (lambda g: ad.mul(g, mask),))


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
        (lambda g: ad.slice_cols(g, 0, ka), lambda g: ad.slice_cols(g, ka, ka + kb)),
    )


# ---------------------------------------------------------------------------
# backward engine


def grad(
    output: Tensor, inputs: Sequence[Tensor], create_graph: bool = False
) -> list[Tensor | None]:
    """`ad.grad`, except that with ``create_graph`` the adjoints stay
    connected to the graph and can be differentiated again."""
    if output.data.size != 1:
        raise ContractError(f"grad of non-scalar output, shape {output.shape}")
    adjoint: dict[int, Tensor] = {id(output): ad.constant(np.ones_like(output.data))}
    if output.requires_grad:
        order = ad._toposort(output)  # parents before children
        live = {id(t) for t in inputs if t.requires_grad}
        for node in order:
            if any(id(p) in live for p in node.parents):
                live.add(id(node))
        saved, ad._record = ad._record, create_graph
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
                    adjoint[id(parent)] = pg if prev is None else ad.add(prev, pg)
        finally:
            ad._record = saved
    return [adjoint.get(id(t)) for t in inputs]


def leaves(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """A trainable leaf per parameter, wrapping its array without a copy."""
    return {name: ad.leaf(w) for name, w in params.items()}


def backward(loss: Tensor, *leaf_dicts: dict[str, Tensor]) -> list[dict[str, np.ndarray]]:
    """d(loss)/d(leaf) for every leaf, one C-ordered gradient dict per
    leaf dict.

    Leaves the loss does not reach get zero gradients; a non-finite
    loss is a ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    ad.require_finite_loss(loss.item())
    adjoints = iter(grad(loss, [t for ls in leaf_dicts for t in ls.values()]))
    out = []
    for ls in leaf_dicts:
        grads = {}
        for name, t in ls.items():
            g = next(adjoints)
            if g is None:
                grads[name] = np.zeros_like(t.data)
                continue
            if g.data.shape != t.data.shape:
                raise ShapeError(
                    f"gradient for {name!r} has shape {g.data.shape}, "
                    f"expected {t.data.shape}"
                )
            grads[name] = np.ascontiguousarray(g.data)
        out.append(grads)
    return out


def _worst_error(
    loss_value: Callable[[], float],
    analytic: Sequence[dict[str, np.ndarray]],
    params: Sequence[dict[str, np.ndarray]],
    eps: float,
) -> float:
    """Max over entries of |g - g_fd| / max(1, |g_fd|) for the gradients
    ``analytic`` (one dict per parameter dict; a missing entry is zero)
    against central differences of ``loss_value``, each parameter
    perturbed in place; an empty dict yields 0."""
    if eps <= 0:
        raise ContractError("eps must be positive")
    worst = 0.0
    for arrays, grads in zip(params, analytic):
        for name, w in arrays.items():
            g_an = np.array(grads[name]) if name in grads else np.zeros_like(w)
            for j in np.ndindex(w.shape):
                orig = w[j]
                w[j] = orig + eps
                lo_hi = loss_value()
                w[j] = orig - eps
                lo_lo = loss_value()
                w[j] = orig
                g_fd = (lo_hi - lo_lo) / (2.0 * eps)
                worst = max(worst, abs(g_an[j] - g_fd) / max(1.0, abs(g_fd)))
    return worst


def grad_check(loss_fn: Callable[[], Tensor], *leaf_dicts: dict[str, Tensor], eps: float = 1e-5) -> float:
    """Compare backward() against central differences, entry by entry.

    Returns max over entries of |g_ad - g_fd| / max(1, |g_fd|); an empty
    dict yields 0. ``loss_fn`` must rebuild its graph from the leaves'
    current values on every call.
    """
    analytic = backward(loss_fn(), *leaf_dicts)
    arrays = [{name: t.data for name, t in ls.items()} for ls in leaf_dicts]
    return _worst_error(lambda: loss_fn().item(), analytic, arrays, eps)


def array_grad_check(
    objective: Callable[[], tuple], *params: dict[str, np.ndarray], eps: float = 1e-5
) -> float:
    """`grad_check` for an array objective over parameter dicts:
    ``objective()`` returns the loss followed by one gradient dict per
    parameter dict, as `embed_loss` and the GAN's loss functions do."""
    _, *analytic = objective()
    return _worst_error(lambda: objective()[0], analytic, params, eps)


# ---------------------------------------------------------------------------
# the trained objectives as graphs


def mlp_forward(net, w: dict[str, Tensor], x: Tensor, e: Tensor) -> Tensor:
    """The conditional MLP ``net`` over ``concat(x, e)``, with the leaves
    ``w`` of its parameters."""
    if x.shape[-1] != net.x_dim or e.shape[-1] != net.d:
        raise ShapeError(
            f"inputs {x.shape}, {e.shape} do not match (x width {net.x_dim}, d={net.d})"
        )
    h = concat_cols(x, e)
    for i in range(net.n_layers):
        h = linear(h, w[f"l{i}.W"], w[f"l{i}.b"])
        if i < net.n_layers - 1:
            h = leaky_relu(h)
    return h


def fuse(params, f: dict[str, Tensor], e_c: Tensor, e_p: Tensor) -> Tensor:
    """`fusion.fuse_graph` as a graph, with the leaves ``f`` of the
    fusion layers."""
    if params.variation == "only-class-name":
        return e_c
    if params.variation == "only-chatgpt":
        return e_p
    name_side = linear(e_c, f["W_sigma"], f["b_sigma"])
    desc_side = linear(e_p, f["W_phi"], f["b_phi"])
    return ad.add(name_side, ad.scale(desc_side, params.alpha))


def _weight_penalty(w: dict[str, Tensor], first: str, second: str) -> Tensor:
    """Sum of the squares of two weights; 0 for an empty dict."""
    if not w:
        return ad.constant(0.0)
    return ad.add(sum_sq(w[first]), sum_sq(w[second]))


def embed_loss_graph(model, fusion, z, e_c, e_p, w, f) -> Tensor:
    """The embedding loss as one graph over the model's leaves ``w`` and
    the fusion layers' leaves ``f``."""
    z_proj = linear(ad.constant(z), w["W_z"], w["b_z"])
    e = fuse(fusion, f, ad.constant(e_c), ad.constant(e_p))
    e_proj = linear(e, w["W_e"], w["b_e"])
    pair_term = ad.scale(sum_sq(sub(z_proj, e_proj)), 1.0 / z.shape[0])
    penalty = ad.add(
        _weight_penalty(w, "W_z", "W_e"),
        _weight_penalty(f, "W_sigma", "W_phi"),
    )
    return ad.add(pair_term, ad.scale(penalty, model.lam))


def embed_loss(model, fusion, z, e_c, e_p):
    """`embed_zsl.embed_loss` by `backward` through the graph."""
    w, f = leaves(model.store), leaves(fusion.store)
    loss = embed_loss_graph(model, fusion, z, e_c, e_p, w, f)
    return (loss.item(), *backward(loss, w, f))


def cls_loss_batch(classifier, w: dict[str, Tensor], z_hat: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true classes, with
    the leaves ``w`` of the classifier's parameters.

    ``z_hat`` may be a generator output, in which case the gradient
    flows back into the generator.
    """
    rows = classifier.rows_of(labels)
    logits = linear(z_hat, w["W"], w["b"])
    n, k = logits.shape
    if len(rows) != n:
        raise ContractError(f"{len(rows)} labels for {n} rows")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), rows] = 1.0
    return softmax_xent(logits, onehot)


def gradient_penalty(disc, w, z_real, z_fake, e, beta) -> Tensor:
    """The penalty with the critic's input gradient taken by a backward
    pass kept differentiable, at a fresh leaf interpolate, over the
    critic's leaves ``w``."""
    z_real = np.atleast_2d(np.asarray(z_real, dtype=np.float64))
    z_fake = np.atleast_2d(np.asarray(z_fake, dtype=np.float64))
    e = np.atleast_2d(np.asarray(e, dtype=np.float64))
    beta_col = np.broadcast_to(
        np.asarray(beta, dtype=np.float64).reshape(-1, 1), (z_real.shape[0], 1)
    )
    z_tilde = ad.leaf(beta_col * z_real + (1.0 - beta_col) * z_fake)
    score_sum = ad.sum_all(mlp_forward(disc, w, z_tilde, ad.constant(e)))
    (g,) = grad(score_sum, [z_tilde], create_graph=True)
    norms = ad.sqrt(ad.sum_last(ad.square(g)))
    return ad.mean_all(ad.square(ad.shift(norms, -1.0)))


def critic_loss_graph(disc, w, z_real, z_fake, e, beta, eta) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The critic loss graph over the critic's leaves ``w``, with its real
    and fake scores and penalty."""
    score_real = ad.mean_all(mlp_forward(disc, w, ad.constant(z_real), ad.constant(e)))
    score_fake = ad.mean_all(mlp_forward(disc, w, ad.constant(z_fake), ad.constant(e)))
    gp = gradient_penalty(disc, w, z_real, z_fake, e, beta)
    loss = ad.add(sub(score_fake, score_real), ad.scale(gp, eta))
    return loss, score_real, score_fake, gp


def critic_loss_grads(disc, z_real, z_fake, e, beta, eta):
    """`gen_zsl.critic_loss_grads` by `backward` through the graph."""
    w = leaves(disc.store)
    loss, score_real, score_fake, gp = critic_loss_graph(disc, w, z_real, z_fake, e, beta, eta)
    (grads,) = backward(loss, w)
    wasserstein = score_real.item() - score_fake.item()
    return loss.item(), wasserstein, gp.item(), grads


def generator_loss_graph(gen, disc, classifier, fusion, h, e_c, e_p, labels, cls_weight, w):
    """The generator loss graph and its cross-entropy term, over the
    leaves ``w`` of each network by name: gen, disc, cls and fusion."""
    e = fuse(fusion, w["fusion"], ad.constant(e_c), ad.constant(e_p))
    fake = mlp_forward(gen, w["gen"], ad.constant(h), e)
    score = ad.mean_all(mlp_forward(disc, w["disc"], fake, e))
    cls_term = cls_loss_batch(classifier, w["cls"], fake, labels)
    return ad.add(ad.neg(score), ad.scale(cls_term, cls_weight)), cls_term


def generator_loss_grads(gen, disc, classifier, fusion, h, e_c, e_p, labels, cls_weight):
    """`gen_zsl.generator_loss_grads` by `backward` through the graph."""
    nets = {"gen": gen, "disc": disc, "cls": classifier, "fusion": fusion}
    w = {key: leaves(net.store) for key, net in nets.items()}
    loss, cls_term = generator_loss_graph(
        gen, disc, classifier, fusion, h, e_c, e_p, labels, cls_weight, w
    )
    return (loss.item(), cls_term.item(), *backward(loss, w["gen"], w["fusion"]))
