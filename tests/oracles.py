"""Independent scalar reference implementations.

Everything here is a deliberate triple-loop transcription of the defining
formulas, kept free of the vectorised production code paths so the two can
check each other. Tolerances in the tests absorb the differing float
summation orders.
"""

import math

import numpy as np


def clamp(v, lo, hi):
    return max(lo, min(hi, v))


def bilinear_ref(values, px, py):
    """4-term bilinear formula with border-clamped integer source coords."""
    h, w = values.shape
    x0 = math.floor(px)
    y0 = math.floor(py)
    fx = px - x0
    fy = py - y0
    ix0, ix1 = clamp(x0, 0, w - 1), clamp(x0 + 1, 0, w - 1)
    iy0, iy1 = clamp(y0, 0, h - 1), clamp(y0 + 1, 0, h - 1)
    return (
        (1 - fx) * (1 - fy) * values[iy0, ix0]
        + fx * (1 - fy) * values[iy0, ix1]
        + (1 - fx) * fy * values[iy1, ix0]
        + fx * fy * values[iy1, ix1]
    )


def ring_offsets(k):
    r = k // 2
    return [
        (dx, dy)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if not (dx == 0 and dy == 0)
    ]


def normalize_ref(raw):
    raw = list(raw)
    denom = sum(abs(v) for v in raw)
    if denom == 0.0:
        return [0.0] * len(raw), 1.0
    weights = [v / denom for v in raw]
    return weights, 1.0 - sum(weights)


def cspn_step_ref(values, raw_stencils, k):
    h, w = values.shape
    out = np.zeros_like(values)
    offs = ring_offsets(k)
    for y in range(h):
        for x in range(w):
            weights, self_w = normalize_ref(raw_stencils[y, x])
            acc = self_w * values[y, x]
            for j, (dx, dy) in enumerate(offs):
                acc += weights[j] * values[clamp(y + dy, 0, h - 1), clamp(x + dx, 0, w - 1)]
            out[y, x] = acc
    return out


def hard_replace_ref(values, sparse, mask):
    h, w = values.shape
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            out[y, x] = sparse[y, x] if mask[y, x] == 1.0 else values[y, x]
    return out


def soft_replace_ref(values, sparse, mask, conf):
    h, w = values.shape
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            a = mask[y, x] * conf[y, x]
            out[y, x] = (1.0 - a) * values[y, x] + a * sparse[y, x]
    return out


def cspn_refine_ref(d0, ds, mask, raw_stencils, k, iters):
    cur = d0.copy()
    for _ in range(iters):
        cur = hard_replace_ref(cspn_step_ref(cur, raw_stencils, k), ds, mask)
    return cur


def affinity_ref(features, g_theta, g_phi, x, y, positions, shift=True):
    """Scalar softmax over neighbour similarities plus the self term."""
    d_f = features.shape[2]
    scale = math.sqrt(d_f)
    f_c = features[y, x, :]
    q = g_theta @ f_c
    logits = []
    for px, py in positions:
        f_j = np.array([bilinear_ref(features[:, :, c], px, py) for c in range(d_f)])
        logits.append(float(q @ (g_phi @ f_j)) / scale)
    logits.append(float(q @ (g_phi @ f_c)) / scale)
    top = max(logits) if shift else 0.0
    exps = [math.exp(v - top) for v in logits]
    z = sum(exps)
    return [e / z for e in exps[:-1]], exps[-1] / z


def conv3x3_replicate_ref(x, w, b):
    """3x3 convolution of (h, w, c_in) values; every tap reads the pixel with
    border-clamped coordinates."""
    h, wd, c_in = x.shape
    c_out = w.shape[0]
    out = np.zeros((h, wd, c_out))
    for y in range(h):
        for xx in range(wd):
            for o in range(c_out):
                acc = b[o]
                for ty in range(3):
                    for tx in range(3):
                        sy, sx = clamp(y + ty - 1, 0, h - 1), clamp(xx + tx - 1, 0, wd - 1)
                        for c in range(c_in):
                            acc += w[o, c, ty, tx] * x[sy, sx, c]
                out[y, xx, o] = acc
    return out


def conv3x3_replicate_backward_ref(x, w, d_out):
    """Gradients (d_w, d_b, d_x) of :func:`conv3x3_replicate_ref` given the
    (h, w, c_out) gradient at its output: every tap's clamped read passes
    its share back to the pixel it read."""
    h, wd, c_in = x.shape
    c_out = w.shape[0]
    d_w = np.zeros_like(w)
    d_b = np.zeros(c_out)
    d_x = np.zeros_like(x)
    for y in range(h):
        for xx in range(wd):
            for o in range(c_out):
                g = d_out[y, xx, o]
                d_b[o] += g
                for ty in range(3):
                    for tx in range(3):
                        sy, sx = clamp(y + ty - 1, 0, h - 1), clamp(xx + tx - 1, 0, wd - 1)
                        for c in range(c_in):
                            d_w[o, c, ty, tx] += g * x[sy, sx, c]
                            d_x[sy, sx, c] += g * w[o, c, ty, tx]
    return d_w, d_b, d_x


def dspn_step_ref(values, features, delta, g_theta, g_phi, k):
    h, w = values.shape
    offs = ring_offsets(k)
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            positions = [
                (x + dx + delta[y, x, j, 0], y + dy + delta[y, x, j, 1])
                for j, (dx, dy) in enumerate(offs)
            ]
            weights, self_w = affinity_ref(features, g_theta, g_phi, x, y, positions)
            acc = self_w * values[y, x]
            for j, (px, py) in enumerate(positions):
                acc += weights[j] * bilinear_ref(values, px, py)
            out[y, x] = acc
    return out


def dspn_refine_ref(d0, ds, mask, conf, features, delta, g_theta, g_phi, k, iters):
    cur = d0.copy()
    for _ in range(iters):
        cur = soft_replace_ref(
            dspn_step_ref(cur, features, delta, g_theta, g_phi, k), ds, mask, conf
        )
    return cur


def nearest_fill_ref(values, mask):
    """Brute-force nearest-valid fill; ties by distance then raster order."""
    h, w = values.shape
    valid = [(y, x) for y in range(h) for x in range(w) if mask[y, x] == 1.0]
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            best = None
            best_d2 = None
            for vy, vx in valid:
                d2 = (vy - y) ** 2 + (vx - x) ** 2
                if best_d2 is None or d2 < best_d2:
                    best_d2, best = d2, (vy, vx)
            out[y, x] = values[best]
    return out


def heuristic_confidence_ref(
    values, mask, gamma, coarse=None, min_neighbors=3, max_radius=8,
    agreement_slack=0.12, gradient_slack=1.0,
):
    """Per-measurement growing-window best-match confidence.

    For each valid pixel the Chebyshev window grows from radius 1 until it
    holds ``min_neighbors`` other valid pixels, or reaches ``max_radius``.
    The score is the smallest ``|Ds_j - Ds| - slack_j`` over that window,
    with ``slack_j = agreement_slack + gradient_slack * |grad coarse| * dist_j``
    when a coarse map is given; confidence is ``exp(-max(score, 0) / gamma)``.
    A measurement with no neighbour in its final window scores 1, an invalid
    pixel 0. ``numpy.exp`` stands in for the exponential so the last bit
    agrees with the vectorised code, whose arithmetic is otherwise the same.
    """
    h, w = values.shape
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            if mask[y, x] != 1.0:
                continue
            window = []
            for r in range(1, max_radius + 1):
                window = [
                    (yy, xx)
                    for yy in range(max(0, y - r), min(h, y + r + 1))
                    for xx in range(max(0, x - r), min(w, x + r + 1))
                    if (yy, xx) != (y, x) and mask[yy, xx] == 1.0
                ]
                if len(window) >= min_neighbors:
                    break
            if not window:
                out[y, x] = 1.0
                continue
            grad = 0.0
            if coarse is not None:
                dx = coarse[y, clamp(x + 1, 0, w - 1)] - coarse[y, clamp(x - 1, 0, w - 1)]
                dy = coarse[clamp(y + 1, 0, h - 1), x] - coarse[clamp(y - 1, 0, h - 1), x]
                grad = (abs(dx) + abs(dy)) / 2.0
            best = None
            for yy, xx in window:
                slack = agreement_slack
                if coarse is not None:
                    dist = math.sqrt(float(yy - y) ** 2 + float(xx - x) ** 2)
                    slack = agreement_slack + gradient_slack * grad * dist
                score = abs(values[yy, xx] - values[y, x]) - slack
                best = score if best is None else min(best, score)
            out[y, x] = float(np.exp(-max(best, 0.0) / gamma))
    return out


def box_blur3_ref(values):
    h, w = values.shape
    out = np.zeros_like(values)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    acc += values[clamp(y + dy, 0, h - 1), clamp(x + dx, 0, w - 1)]
            out[y, x] = acc / 9.0
    return out


def coarse_predict_ref(values, mask):
    return box_blur3_ref(box_blur3_ref(nearest_fill_ref(values, mask)))


def metrics_ref(pred, gt):
    errs = []
    inv_errs = []
    h, w = gt.shape
    for y in range(h):
        for x in range(w):
            if gt[y, x] > 0.0:
                errs.append(pred[y, x] - gt[y, x])
                inv_errs.append(1.0 / max(pred[y, x], 1e-3) - 1.0 / gt[y, x])
    n = len(errs)
    rmse = math.sqrt(sum(e * e for e in errs) / n) * 1000.0
    mae = sum(abs(e) for e in errs) / n * 1000.0
    irmse = math.sqrt(sum(e * e for e in inv_errs) / n) * 1000.0
    imae = sum(abs(e) for e in inv_errs) / n * 1000.0
    return rmse, mae, irmse, imae
