"""Independent per-tick reference for the predictors' surprise series.

Each tick's forecast is recomputed on its own from the plain mids, in Python
floats: persistence predicts the current mid, the leaked predictor reads the
mid `horizon` ticks ahead, the noise predictor draws `eps(seed, [ts])` for
that one timestamp, and the net runs its last `window` log returns through
the predictor's weights, one hidden unit at a time, with a frozen variant's
keep flags drawn here from its mask seed. Nothing is shared with the batch
path in `risklab.predictor` but `eps` and numpy's elementwise log and exp.
Tests assert that `surprise_series` and `variant_surprise_series` reproduce
it tick by tick.
"""

import math

import numpy as np

from risklab.predictor import KIND_LEAKED, KIND_NET, KIND_NOISE, eps


def variant_keep_flags(vs, k):
    """Keep flags of variant k, per hidden layer and unit: layer l's are
    uniform draws from the stream seeded by (mask seed, l), kept when at
    least dropout_p."""
    p = vs.base
    return [[u >= p.dropout_p for u in np.random.default_rng(
                np.random.SeedSequence([vs.mask_seeds[k], layer])).random(width)]
            for layer, width in enumerate(p.train_spec.hidden)]


def _net_forecast(p, log_mids, t, keep):
    """exp of the net's predicted log return at tick t, minus one."""
    w = p.train_spec.window
    h = [(log_mids[j + 1] - log_mids[j]) / p.scale for j in range(t - w, t)]
    last = len(p.weights) - 1
    for layer in range(last):
        weights, biases = p.weights[layer].tolist(), p.biases[layer].tolist()
        h = [math.tanh(sum(v * row[j] for v, row in zip(h, weights)) + b)
             for j, b in enumerate(biases)]
        if keep is not None:
            h = [v / (1.0 - p.dropout_p) if kept else 0.0
                 for v, kept in zip(h, keep[layer])]
    y = sum(v * row[0] for v, row in zip(h, p.weights[last].tolist()))
    y += float(p.biases[last][0])
    return float(np.exp(y * p.scale)) - 1.0


def surprises(p, series, keep=None):
    """The per-tick surprise at every tick of `series`, as a list; NaN where
    `p` has no forecast. `keep` holds a variant's keep flags."""
    mids = [(b + a) / 2.0 for b, a in zip(series.bid.tolist(),
                                          series.ask.tolist())]
    ts = series.ts.tolist()
    log_mids = np.log(mids).tolist()
    out = []
    for t in range(len(mids)):
        if p.kind == KIND_LEAKED:
            ahead = t + p.horizon
            out.append(mids[ahead] / mids[t] - 1.0 if ahead < len(mids)
                       else math.nan)
        elif p.kind == KIND_NOISE:
            draw = eps(p.noise_seed, np.array([ts[t]], dtype=np.int64))
            out.append(float(np.exp(p.noise_scale * draw)[0]) - 1.0)
        elif p.kind == KIND_NET:
            out.append(_net_forecast(p, log_mids, t, keep)
                       if t >= p.train_spec.window else math.nan)
        else:
            out.append(0.0)
    return out
