"""The whole-array Adam update, kept as the reference the blocked
`semfuse.autodiff.adam_step` is compared against bit for bit.

Every line is one whole-parameter expression: the moments are replaced,
not updated in place, and each operation builds a temporary as large as
the parameter. The state is a `semfuse.autodiff.AdamState`.
"""

from __future__ import annotations

import numpy as np


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    state.t += 1
    for name, w in params.items():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = state.m[name] / (1 - beta1**state.t)
        v_hat = state.v[name] / (1 - beta2**state.t)
        params[name] = w - lr * m_hat / (np.sqrt(v_hat) + eps)
