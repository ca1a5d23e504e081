"""Reference for `risklab.predictor.train`: its full-batch epoch loop as it
stood before the loop reused its arrays, with fresh arrays every epoch and
boolean masks multiplied in as drawn.

Tests hold `train` to it bit for bit: the same weights, biases and
`final_loss` for the same series and spec, and the same `DegenerateError`
when training diverges. `descend`, the epoch loop alone, holds
`predictor._descend` to the same bits from any starting weights.
"""

import math

import numpy as np

from risklab.errors import DegenerateError


def fit(series, spec):
    """(weights, biases, final_loss) of the net trained on `series`."""
    r = np.diff(np.log(series.mid))
    x_raw = np.lib.stride_tricks.sliding_window_view(r, spec.window)[:-1]
    y_raw = r[spec.window:]
    scale = float(y_raw.std()) if float(y_raw.std()) > 0 else 1.0
    x = x_raw / scale
    y = y_raw / scale

    rng = np.random.default_rng(spec.seed)
    sizes = (spec.window, *spec.hidden, 1)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    descend(x, y, weights, biases, spec, rng)

    last = len(weights) - 1
    h = x
    for l in range(last):
        h = np.tanh(h @ weights[l] + biases[l])
    final = (h @ weights[last] + biases[last])[:, 0] - y
    final_loss = float(np.mean(final ** 2)) * scale * scale
    if not math.isfinite(final_loss):
        raise DegenerateError(f"non-finite training loss at epoch {spec.epochs - 1}")
    return weights, biases, final_loss


def descend(x, y, weights, biases, spec, rng):
    """Run spec.epochs of full-batch gradient descent on the lists
    `weights` and `biases` in place, drawing dropout masks from `rng`."""
    n = x.shape[0]
    last = len(weights) - 1
    p = spec.dropout_p
    keep_scale = 1.0 / (1.0 - p) if p > 0 else 1.0
    for epoch in range(spec.epochs):
        acts = [x]      # input fed into each weight layer (post-mask)
        tanhs = []      # unmasked tanh outputs, for the backward pass
        masks = []
        h = x
        for l in range(last):
            a = np.tanh(h @ weights[l] + biases[l])
            tanhs.append(a)
            if p > 0:
                m = rng.random(a.shape) >= p
                h = a * m * keep_scale
                masks.append(m)
            else:
                h = a
            acts.append(h)
        pred = (h @ weights[last] + biases[last])[:, 0]
        resid = pred - y
        loss = float(np.mean(resid ** 2)) \
            + spec.l2 * sum(float((w ** 2).sum()) for w in weights)
        if not math.isfinite(loss):
            raise DegenerateError(f"non-finite training loss at epoch {epoch}")
        grad = (2.0 / n) * resid[:, None]
        for l in range(last, -1, -1):
            gw = acts[l].T @ grad + 2.0 * spec.l2 * weights[l]
            gb = grad.sum(axis=0)
            if l > 0:
                grad = grad @ weights[l].T
                if p > 0:
                    grad = grad * masks[l - 1] * keep_scale
                grad = grad * (1.0 - tanhs[l - 1] ** 2)
            weights[l] = weights[l] - spec.learning_rate * gw
            biases[l] = biases[l] - spec.learning_rate * gb
