"""Analytic gradients for deformable refinement, verified by finite differences.

The operator set is small and fixed, so reverse-mode gradients are derived
per operator by hand instead of through an autodiff tape: softmax Jacobian
for the affinity, bilinear value- and position-gradients for every sampled
read, and plain matrix calculus for the embeddings. Replacement passes
gradients through its (1 - m*M) branch only; sensor values are data, not
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deformable import (
    EmbeddingParams,
    OffsetEstimatorParams,
    OffsetField,
    RefineState,
    affinity_forward_batched,
    dspn_refine_forward,
    offset_estimator_backward,
    offset_estimator_forward,
    refine_forward_batched,
)
from .errors import Diverged, DspnError, InvalidConfig, InvalidState, NonFiniteLoss, ShapeMismatch
from .grid import Grid, count, edge_pad, fractions, position_gradient, real, single_channel
from .metrics import LossWeights, valid_gt
from .synth import build_features

REL_ERR_FLOOR = 1e-8


def finite_diff_grad(loss_fn, params: dict, eps: float = 1e-4) -> dict:
    """Central-difference gradient of a scalar loss over named arrays.

    Probes one entry at a time, array by array in the dict's order, with a
    step that scales with the entry (eps * max(1, |p_i|)) to avoid
    cancellation on large parameters. Returns a dict with the keys and
    shapes of ``params``. ``loss_fn`` gets one probe dict whose arrays are
    changed in place between calls, so it must not keep references to them.
    """
    if real(eps, "eps") <= 0.0:
        raise InvalidConfig(f"eps must be positive, got {eps}")
    probe = {name: np.array(arr, dtype=np.float64, order="C") for name, arr in params.items()}
    grads = {}
    for name, arr in probe.items():
        flat = arr.reshape(-1)  # a view: writes reach the probe
        grad = np.empty(flat.size)
        for i in range(flat.size):
            base = flat[i]
            step = eps * max(1.0, abs(base))
            flat[i] = base + step
            up = float(loss_fn(probe))
            flat[i] = base - step
            down = float(loss_fn(probe))
            flat[i] = base
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NonFiniteLoss(f"loss is not finite near entry {i} of {name!r}")
            grad[i] = (up - down) / (2.0 * step)
        grads[name] = grad.reshape(arr.shape)
    return grads


def relative_errors(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), REL_ERR_FLOOR)
    return np.abs(analytic - fd) / denom


@dataclass
class GradReport:
    """Analytic against finite-difference gradients, both keyed by group."""

    analytic: dict
    fd: dict

    def per_group(self) -> dict:
        """Group name -> (max_rel_err, max_abs_err) over that group."""
        return {
            name: (float(relative_errors(a, self.fd[name]).max()), float(np.abs(a - self.fd[name]).max()))
            for name, a in self.analytic.items()
        }

    @property
    def max_rel_err(self) -> float:
        return max((rel for rel, _ in self.per_group().values()), default=0.0)


def dspn_backward(grad_out, state: RefineState, detach_weights: bool = False) -> dict:
    """Reverse-mode gradients of a recorded refine pass.

    ``grad_out`` is the loss gradient at the refined map(s): an (h, w)
    array, or an (S, h, w) stack matching the forward state. Returns
    gradients for the initial map ("h0"), both embedding matrices (summed
    over the batch), and the offset field. With ``detach_weights`` the
    affinity is treated as constant, so the map gradient is exactly the
    convex-combination adjoint.
    """
    if state is None or state.affinity is None:
        raise InvalidState("dspn_backward needs the forward state of a recorded refine call")
    if len(state.inputs) != state.iters:
        raise InvalidState("forward state was built without per-step records")
    aff = state.affinity
    g = np.asarray(grad_out, dtype=np.float64)
    squeeze = g.ndim == 2
    if squeeze:
        g = g[np.newaxis]

    dw_nb = np.zeros_like(aff.w_nb)
    dpos = np.zeros((2,) + aff.w_nb.shape)  # d/dx, d/dy of the sampling positions
    one_minus_sum = 1.0 - aff.w_nb.sum(axis=3)
    # the taps' fractions, re-derived from the positions, serve every step
    frac = fractions(*aff.positions(slice(None)))
    # one per-tap buffer: a step's neighbour reads, then its weighted upstream
    tap = np.empty_like(aff.w_nb)

    # each step gathers its input's four corners once: they re-blend into
    # the neighbour reads the step sampled and give their position gradient,
    # and are dropped before the scatter
    for h_in in reversed(state.inputs):
        g = g * (1.0 - state.replace_factor)
        corners = aff.taps.corners(edge_pad(h_in))
        if not detach_weights:
            aff.taps.blend(corners, out=tap)
            tap -= h_in[..., np.newaxis]
            tap *= g[..., np.newaxis]
            dw_nb += tap
        np.multiply(g[..., np.newaxis], aff.w_nb, out=tap)
        dpos += position_gradient(corners, frac) * tap
        del corners
        g = aff.taps.scatter(tap) + g * one_minus_sum
    del tap

    d_theta = np.zeros_like(aff.emb.g_theta)
    d_phi = np.zeros_like(aff.emb.g_phi)
    if not detach_weights and state.inputs:
        q, k_self = aff.embeddings()
        d_e = q.shape[-1]
        d_f = aff.F.shape[-1]
        # softmax over n+1 entries; the self weight has no direct upstream
        t = (aff.w_nb * dw_nb).sum(axis=3)
        dlogit_nb = aff.w_nb * (dw_nb - t[..., np.newaxis]) / aff.scale
        dlogit_self = -aff.w_self * t / aff.scale
        # a neighbour logit is the bilinear blend of its corner products
        # q . K[corner], whose position gradient is re-derived band by band
        for band, d_band in aff.logit_position_gradients(frac):
            dpos[:, :, band] += dlogit_nb[:, band] * d_band
        # h = sum over taps and corners of dlogit * weight * F[corner], the
        # per-pixel feature-space gradient of the neighbour logits
        stack = edge_pad(aff.stack)
        h = np.zeros(aff.F.shape)
        for c, w in enumerate(aff.taps.weights):
            h += np.einsum("...n,...nf->...f", dlogit_nb * w, aff.taps.corner(stack, c))
        h = h.reshape(-1, d_f)
        f_self = aff.F.reshape(-1, d_f)
        dq = h @ aff.emb.g_phi.T + (dlogit_self[..., np.newaxis] * k_self).reshape(-1, d_e)
        dk_self = (dlogit_self[..., np.newaxis] * q).reshape(-1, d_e)
        d_theta = dq.T @ f_self
        d_phi = q.reshape(-1, d_e).T @ h + dk_self.T @ f_self

    d_offsets = np.stack(dpos, axis=-1)
    if squeeze:
        return {"h0": g[0], "g_theta": d_theta, "g_phi": d_phi, "offsets": d_offsets[0]}
    return {"h0": g, "g_theta": d_theta, "g_phi": d_phi, "offsets": d_offsets}


# ---------------------------------------------------------------------------
# Seeded verification instances
# ---------------------------------------------------------------------------


@dataclass
class GradcheckInstance:
    """A small refinement problem with every input drawn at a safe scale.

    Offset components stay in +-[0.05, 0.45] so no sampling position sits
    within a finite-difference probe of a bilinear lattice kink.
    """

    d0: Grid
    ds: Grid
    m: Grid
    conf: Grid
    features: Grid
    offsets: OffsetField
    emb: EmbeddingParams
    target: Grid
    iters: int


def make_gradcheck_instance(
    seed: int,
    width: int = 8,
    height: int = 8,
    feature_channels: int = 4,
    embed_dim: int = 4,
    kernel_size: int = 3,
    iters: int = 2,
) -> GradcheckInstance:
    rng = np.random.default_rng(seed)
    n = kernel_size * kernel_size - 1
    d0 = Grid(rng.uniform(0.0, 1.0, (height, width)))
    ds = Grid(rng.uniform(0.0, 1.0, (height, width)))
    m = Grid((rng.random((height, width)) < 0.3).astype(np.float64))
    conf = Grid(rng.uniform(0.0, 1.0, (height, width)))
    features = Grid(rng.uniform(0.0, 1.0, (height, width, feature_channels)))
    mag = rng.uniform(0.05, 0.45, (height, width, n, 2))
    sign = rng.choice([-1.0, 1.0], (height, width, n, 2))
    offsets = OffsetField(kernel_size, mag * sign)
    emb = EmbeddingParams(
        rng.normal(0.0, 0.4, (embed_dim, feature_channels)),
        rng.normal(0.0, 0.4, (embed_dim, feature_channels)),
    )
    target = Grid(rng.uniform(0.0, 1.0, (height, width)))
    return GradcheckInstance(
        d0=d0, ds=ds, m=m, conf=conf, features=features,
        offsets=offsets, emb=emb, target=target, iters=iters,
    )


def instance_params(inst: GradcheckInstance) -> dict:
    """The instance's parameters by group, keyed like ``dspn_backward``'s result."""
    return {
        "h0": single_channel(inst.d0),
        "g_theta": inst.emb.g_theta,
        "g_phi": inst.emb.g_phi,
        "offsets": inst.offsets.delta,
    }


def refine_loss(inst: GradcheckInstance, params: dict) -> float:
    """Mean squared error to the target of a refine pass at ``params``."""
    refined, _ = dspn_refine_forward(
        Grid(params["h0"]), inst.ds, inst.m, inst.conf, inst.features,
        OffsetField(inst.offsets.kernel_size, params["offsets"]),
        EmbeddingParams(params["g_theta"], params["g_phi"]), inst.iters,
        keep_records=False,
    )
    diff = single_channel(refined) - single_channel(inst.target)
    return float(np.mean(diff * diff))


def analytic_refine_grads(inst: GradcheckInstance) -> dict:
    refined, state = dspn_refine_forward(
        inst.d0, inst.ds, inst.m, inst.conf, inst.features,
        inst.offsets, inst.emb, inst.iters, keep_records=True,
    )
    resid = single_channel(refined) - single_channel(inst.target)
    return dspn_backward(2.0 * resid / resid.size, state)


def check_instance_gradients(inst: GradcheckInstance, eps: float = 1e-4) -> GradReport:
    """Compare analytic and finite-difference gradients on one instance."""
    fd = finite_diff_grad(lambda p: refine_loss(inst, p), instance_params(inst), eps=eps)
    return GradReport(analytic_refine_grads(inst), fd)


# ---------------------------------------------------------------------------
# Toy gradient-descent fitter
# ---------------------------------------------------------------------------


ESTIMATOR_KEYS = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class FitParams:
    """Trainable state for the toy fitter: the embeddings and the
    three-layer estimator that computes per-scene offsets from features.
    Its arrays are named g_theta, g_phi and ESTIMATOR_KEYS. Both groups read
    the same features, so they must agree on their channel count."""

    emb: EmbeddingParams
    estimator: OffsetEstimatorParams

    def __post_init__(self):
        if self.emb.feature_channels != self.estimator.feature_channels:
            raise ShapeMismatch(f"embeddings read {self.emb.feature_channels} feature channels, "
                                f"the offset estimator {self.estimator.feature_channels}")

    @property
    def feature_channels(self) -> int:
        """The channel count of the features both groups read."""
        return self.emb.feature_channels

    def arrays(self) -> dict:
        """Every trainable array by name."""
        return {"g_theta": self.emb.g_theta, "g_phi": self.emb.g_phi,
                **{name: getattr(self.estimator, name) for name in ESTIMATOR_KEYS}}

    def step(self, grads: dict, lr: float) -> "FitParams":
        """New parameters p - lr * grad for every array, through the constructors' checks."""
        new = {name: p - lr * grads[name] for name, p in self.arrays().items()}
        return FitParams(EmbeddingParams(new.pop("g_theta"), new.pop("g_phi")),
                         OffsetEstimatorParams(**new, kernel_size=self.estimator.kernel_size))


def _fit_loss_and_grads(params: FitParams, scenes, iters: int, weight: float, compute_grads: bool = True):
    """Mean loss over the scenes and its gradient, keyed like ``params.arrays()``.

    Each scene runs through the batched core as a stack of one, so scenes of
    any size train together. A scene's loss is the mean squared error over
    its valid ground-truth pixels (see :func:`dspn.metrics.valid_gt`).
    """
    loss = 0.0
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    for scene in scenes:
        valid = valid_gt(scene.dstar)
        n_valid = int(valid.sum())
        feats = build_features(scene.d0, scene.m, params.feature_channels).data[np.newaxis]
        delta, cache = offset_estimator_forward(feats, params.estimator)
        aff = affinity_forward_batched(feats, delta, params.emb, params.estimator.kernel_size)
        state = refine_forward_batched(
            single_channel(scene.d0)[np.newaxis], single_channel(scene.ds)[np.newaxis],
            (single_channel(scene.m) * single_channel(scene.conf))[np.newaxis],
            aff, iters, keep_records=compute_grads,
        )
        resid = np.where(valid, state.out - single_channel(scene.dstar), 0.0)
        loss += weight * float((resid * resid).sum()) / n_valid
        if not compute_grads:
            continue
        upstream = weight * 2.0 * resid / n_valid / len(scenes)
        scene_grads = dspn_backward(upstream, state)
        scene_grads.update(offset_estimator_backward(scene_grads["offsets"], cache, params.estimator))
        for name, g in grads.items():
            g += scene_grads[name]
    return loss / len(scenes), grads


def toy_fit(
    scenes,
    init: FitParams,
    lr: float,
    steps: int,
    seed: int = 0,
    iters: int = 3,
    weights: LossWeights | None = None,
):
    """Plain gradient descent on the refined-depth loss over a scene set.

    From the parameters ``init`` (see :func:`dspn.cli.init_fit_params`),
    each step builds new ones, exactly p - lr * grad (:meth:`FitParams.step`).
    Returns the fitted parameters and the loss trace (initial loss followed
    by the loss after each step). ``seed`` has no effect: the fit draws nothing.

    Raises InvalidConfig without initial parameters or scenes, or with an
    lr that is not a finite real >= 0, EmptyGroundTruth when a scene has no
    valid ground-truth pixel, and Diverged as soon as the parameters or the
    loss stop being finite.
    """
    if init is None:
        raise InvalidConfig("toy_fit needs initial parameters")
    if not scenes:
        raise InvalidConfig("toy_fit needs at least one scene")
    steps = count(steps, "steps", 1)
    iters = count(iters, "iteration count")
    if real(lr, "lr") < 0.0:
        raise InvalidConfig(f"lr must be >= 0, got {lr}")
    weight = (weights or LossWeights()).refined

    params = init
    loss, grads = _fit_loss_and_grads(params, scenes, iters, weight)
    if not np.isfinite(loss):
        raise Diverged(f"initial loss is not finite: {loss}")
    trace = [loss]
    for step in range(steps):
        last = step == steps - 1
        try:
            # the propagation output is range-bounded, so runaway parameters
            # surface as non-finite parameters or intermediates rather than
            # an infinite loss; after a clean initial evaluation any
            # DspnError or float overflow here means the optimisation blew up
            with np.errstate(over="raise", invalid="raise"):
                params = params.step(grads, lr)
                loss, grads = _fit_loss_and_grads(params, scenes, iters, weight, compute_grads=not last)
        except (DspnError, FloatingPointError) as exc:
            raise Diverged(f"step {step + 1} failed: {exc}") from exc
        if not np.isfinite(loss):
            raise Diverged(f"loss diverged to {loss}")
        trace.append(loss)
    return params, trace
