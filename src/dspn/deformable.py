"""Deformable spatial propagation: per-pixel receptive fields and affinities.

Each pixel propagates from k*k-1 continuously displaced neighbour positions
instead of the fixed ring. Neighbour weights come from a scaled-dot-product
softmax between embedded features at the pixel and at each (bilinearly
sampled) displaced position; the self term participates in the softmax, so
the full weight set is a probability distribution and every step is a convex
combination.

The bilinear read is linear, so the logit ``q . (G_phi f_nb)`` of a tap
equals the bilinear blend of its four corner products ``q . K[corner]``,
where ``K = F G_phi^T`` is embedded once per pixel, not once per tap. The
affinity therefore reads one scalar per corner and keeps no per-tap feature
or key tensor, and keeps no corner products either: the backward pass
re-derives them band by band for the logits' position gradients, as it
re-derives the embeddings and the taps' fractions, and re-gathers features
one corner at a time.

The numerical core works on scene batches, shape (S, h, w, ...), and reads
every sampled value (corner products here, depth in each step, their
gradients in the backward pass) through the one bilinear taps type,
:class:`dspn.grid.Taps`. The public grid operations wrap the core with
S == 1, and the per-pixel API (:func:`deformed_neighborhood`,
:func:`compute_affinity`) is a one-pixel map sharing its displaced-position
and softmax helpers. Affinity depends only on features and offsets, both
fixed during refinement, so refine computes it once and reuses it every
iteration.

On large maps the per-tap reads are bound by memory bandwidth, so the
affinity (positions, taps, embeddings, corner products and softmax) and
each propagation step walk the map in row bands of about BAND_TAPS taps
(half that for the affinity, whose scratch per tap is twice a step's),
whose temporaries stay in cache; the estimator's conv forward walks bands
of about BAND_TAPS input values. Banding changes no pixel's arithmetic, so
the outputs are the same for any band height; a 64x64 training scene is one
step band at k=3 and four at k=5.

The affinity's and the steps' bands share the process's cores: the calling
thread works through them together with one helper thread per further core
it may run on (``os.sched_getaffinity``, else ``os.cpu_count``), at most
MAX_HELPERS of them, from one pool started by the first call with
SHARED_BANDS or more bands. numpy releases the interpreter lock in the
gathers, blends and GEMMs a band runs. Each band writes only its own rows
of the outputs and keeps its own scratch, and the band plan depends only on
the shape, so every output is bit-identical for any number of cores; the
cap on helpers keeps the scratch in flight, and so the affinity's peak, the
same on any host with four or more cores. A map of fewer than SHARED_BANDS
bands, such as every 64x64 map at k = 3 or 5, runs on the calling thread
alone. A band calls no other layer function: only the taps' methods, the
embedding and corner-product helpers and numpy. The conv forward and every
backward pass run on the calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cspn import check_kernel_size, neighbor_offsets
from .errors import ShapeMismatch
from .grid import (
    ContinuousPos,
    Grid,
    Taps,
    binary_mask,
    check_feature_channels,
    check_same_shape,
    count,
    edge_fold,
    edge_pad,
    pixel_index,
    position_gradient,
    real_array,
    sample_positions,
    single_channel,
    unit_confidence,
)


class OffsetField:
    """Per-pixel, per-neighbour 2-D displacements, shape (h, w, k*k-1, 2).

    The last axis is (dx, dy). Offsets are unclamped; out-of-range sampling
    is resolved by border clamping at sample time.
    """

    __slots__ = ("kernel_size", "delta")

    def __init__(self, kernel_size: int, delta):
        n = check_kernel_size(kernel_size) ** 2 - 1
        arr = real_array(delta, "offset field")
        if arr.ndim != 4 or arr.shape[2] != n or arr.shape[3] != 2:
            raise ShapeMismatch(f"expected offsets of shape (h, w, {n}, 2), got {arr.shape}")
        self.kernel_size = kernel_size
        self.delta = arr

    @classmethod
    def zeros(cls, width: int, height: int, kernel_size: int = 3) -> "OffsetField":
        n = check_kernel_size(kernel_size) ** 2 - 1
        return cls(kernel_size, np.zeros((count(height, "height", 1), count(width, "width", 1), n, 2)))


EMBED_INIT_SCALE = 0.5  # diagonal of the embeddings' initial identity
EMBED_INIT_NOISE = 0.05  # standard deviation of the noise added to it


@dataclass
class EmbeddingParams:
    """The two learnable matrices mapping features to the embedding space.

    Both are (embed_dim, feature_channels). Using two different matrices
    makes the propagation asymmetric on purpose.
    """

    g_theta: np.ndarray
    g_phi: np.ndarray

    def __post_init__(self):
        self.g_theta = real_array(self.g_theta, "g_theta")
        self.g_phi = real_array(self.g_phi, "g_phi")
        if self.g_theta.ndim != 2 or self.g_theta.shape != self.g_phi.shape:
            raise ShapeMismatch(
                f"embedding matrices must share one 2-D shape, got {self.g_theta.shape} and {self.g_phi.shape}"
            )

    @property
    def feature_channels(self) -> int:
        return self.g_theta.shape[1]

    @classmethod
    def init(cls, embed_dim: int, feature_channels: int, seed: int) -> "EmbeddingParams":
        """Identity-leaning random init: EMBED_INIT_SCALE times the identity
        plus EMBED_INIT_NOISE times a standard normal draw.

        Similarity starts as a gently scaled feature dot product; the noise
        breaks the theta/phi symmetry. The scale keeps initial logits small:
        coarse-map features are blurry, so a strong initial similarity
        mostly amplifies their artifacts.
        """
        embed_dim = count(embed_dim, "embed_dim", 1)
        feature_channels = count(feature_channels, "feature_channels", 1)
        rng = np.random.default_rng(count(seed, "seed"))
        base = np.zeros((embed_dim, feature_channels))
        d = min(embed_dim, feature_channels)
        base[:d, :d] = EMBED_INIT_SCALE * np.eye(d)
        g_theta = base + EMBED_INIT_NOISE * rng.standard_normal((embed_dim, feature_channels))
        g_phi = base + EMBED_INIT_NOISE * rng.standard_normal((embed_dim, feature_channels))
        return cls(g_theta, g_phi)


@dataclass
class AffinityWeights:
    """Softmax weights for one pixel: k*k-1 neighbour terms plus the self term."""

    neighbor_weights: np.ndarray
    self_weight: float


class OffsetEstimatorParams:
    """Weights of the three 3x3 conv layers producing the offset field.

    Layer widths chain feature_channels -> hidden -> hidden -> 2*(k*k-1).
    The final layer starts at exactly zero so the estimator initially
    reproduces the regular receptive field.
    """

    __slots__ = ("w1", "b1", "w2", "b2", "w3", "b3", "kernel_size")

    def __init__(self, w1, b1, w2, b2, w3, b3, kernel_size: int):
        self.w1 = real_array(w1, "w1")
        self.b1 = real_array(b1, "b1")
        self.w2 = real_array(w2, "w2")
        self.b2 = real_array(b2, "b2")
        self.w3 = real_array(w3, "w3")
        self.b3 = real_array(b3, "b3")
        self.kernel_size = kernel_size
        n_out = 2 * (check_kernel_size(kernel_size) ** 2 - 1)
        shapes_ok = (
            self.w1.ndim == 4
            and self.w1.shape[2:] == (3, 3)
            and self.w2.shape == (self.w2.shape[0], self.w1.shape[0], 3, 3)
            and self.w3.shape == (n_out, self.w2.shape[0], 3, 3)
            and self.b1.shape == (self.w1.shape[0],)
            and self.b2.shape == (self.w2.shape[0],)
            and self.b3.shape == (n_out,)
        )
        if not shapes_ok:
            raise ShapeMismatch("offset estimator layer shapes do not chain")

    @property
    def feature_channels(self) -> int:
        return self.w1.shape[1]

    @classmethod
    def init(
        cls,
        feature_channels: int,
        hidden_channels: int,
        kernel_size: int = 3,
        seed: int = 0,
    ) -> "OffsetEstimatorParams":
        feature_channels = count(feature_channels, "feature_channels", 1)
        hidden_channels = count(hidden_channels, "hidden_channels", 1)
        rng = np.random.default_rng(count(seed, "seed"))
        n_out = 2 * (check_kernel_size(kernel_size) ** 2 - 1)

        def he(c_out, c_in):
            return rng.standard_normal((c_out, c_in, 3, 3)) * np.sqrt(2.0 / (9.0 * c_in))

        return cls(
            w1=he(hidden_channels, feature_channels),
            b1=np.zeros(hidden_channels),
            w2=he(hidden_channels, hidden_channels),
            b2=np.zeros(hidden_channels),
            w3=np.zeros((n_out, hidden_channels, 3, 3)),
            b3=np.zeros(n_out),
            kernel_size=kernel_size,
        )


# ---------------------------------------------------------------------------
# 3x3 replicate-padded convolution (the offset estimator's only primitive)
# ---------------------------------------------------------------------------


def _edge_rows(x: np.ndarray):
    """(..., h, w, c) values edge-padded as one (S, h+2, w+2, c) stack, its
    pixels as flat rows, and the nine 3x3 taps' slices of those rows in raster
    order: each tap is one contiguous shift. Outputs on the pad columns (or a
    scene's pad rows) read across its edge; they are computed and dropped."""
    padded = edge_pad(x.reshape((-1,) + x.shape[-3:]))
    rows = padded.reshape(-1, x.shape[-1])
    row = x.shape[-2] + 2
    span = len(rows) - 2 * row - 2
    return padded, rows, [slice(ty * row + tx, ty * row + tx + span) for ty in range(3) for tx in range(3)]


def conv3x3_replicate(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1 3x3 convolution with border-replicated padding.

    ``x`` is (..., h, w, c_in); any leading batch axes pass through. Each
    tap is one GEMM over its slice of the :func:`_edge_rows`. The GEMMs walk
    each scene in row bands whose pixels hold about BAND_TAPS input values
    (see :func:`_row_bands`) and accumulate into the output, so a band's
    input rows, outputs and GEMM term stay in cache; a 64x64 layer of up to
    8 input channels is one band. The outputs on the pad columns, which read
    across the edge, are computed into the output array too, and the
    returned view drops them.
    """
    padded, rows, taps = _edge_rows(x)
    s, height, row = padded.shape[:3]
    c_in, c_out = w.shape[1], w.shape[0]
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(9, c_in, c_out)
    out = np.empty((s, height - 2, row, c_out))  # with the pad columns' outputs
    out_rows = out.reshape(-1, c_out)
    bands = list(_row_bands(height - 2, row - 2, c_in))
    # a band accumulates the outputs of its whole rows in place. The last
    # two outputs of the stack would read past the rows, so its last band
    # starts two outputs early instead, on the previous row's pad columns.
    # Every GEMM then has a band's rows, never one row alone (BLAS takes
    # another path for one row, which rounds differently), and an output's
    # bits do not depend on the band height.
    last = taps[0].stop  # outputs whose nine taps lie within the rows
    term = np.empty((bands[0].stop * row, c_out))
    for scene in range(s):
        for band in bands:
            size = (band.stop - band.start) * row
            start = (scene * height + band.start) * row
            first = max(0, min(start, last - size))
            span = min(size, last - first)
            dst = first - 2 * scene * row  # the output has no pad rows
            band_out = out_rows[dst : dst + span]
            band_out[...] = b
            for tap, w_tap in zip(taps, w_taps):
                shifted = rows[first + tap.start : first + tap.start + span]
                band_out += np.matmul(shifted, w_tap, out=term[:span])
    return out[:, :, :-2].reshape(x.shape[:-1] + (c_out,))


def _conv3x3_weight_gradient(x: np.ndarray, d_out: np.ndarray):
    """Weight and bias gradients of :func:`conv3x3_replicate`: its nine tap
    GEMMs transposed on the same rows, where the dropped outputs carry zero
    gradient. Also returns the input's padded stack, the taps' row slices
    and the output gradient on those rows, for the input gradient."""
    c_out, c_in = d_out.shape[-1], x.shape[-1]
    padded, rows, taps = _edge_rows(x)
    d_acc = np.zeros((len(rows), c_out))
    d_acc.reshape(padded.shape[:-1] + (-1,))[:, :-2, :-2] = d_out.reshape(padded.shape[:1] + d_out.shape[-3:])
    d_acc = d_acc[taps[0]]
    d_w = np.empty((9, c_out, c_in))
    for tap, d_tap in zip(taps, d_w):
        np.matmul(d_acc.T, rows[tap], out=d_tap)
    d_w = d_w.reshape(3, 3, c_out, c_in).transpose(2, 3, 0, 1).copy()
    return d_w, d_out.reshape(-1, c_out).sum(axis=0), (padded, taps, d_acc)


def conv3x3_replicate_backward(x: np.ndarray, w: np.ndarray, d_out: np.ndarray):
    """Gradients of :func:`conv3x3_replicate` w.r.t. weights, bias, and input;
    the input's are the tap GEMMs transposed onto the padded rows, folded by
    :func:`edge_fold`."""
    c_out, c_in = w.shape[:2]
    d_w, d_b, (padded, taps, d_acc) = _conv3x3_weight_gradient(x, d_out)
    d_rows = np.zeros((padded.size // c_in, c_in))
    term = np.empty((len(d_acc), c_in))
    for tap, w_tap in zip(taps, w.transpose(2, 3, 0, 1).reshape(9, c_out, c_in)):
        d_rows[tap] += np.matmul(d_acc, w_tap, out=term)
    d_x = edge_fold(d_rows.reshape(padded.shape)).reshape(x.shape)
    return d_w, d_b, d_x


@dataclass
class EstimatorCache:
    """Forward activations needed to backpropagate through the estimator.

    A ReLU's output is positive exactly where its input is, so the
    activations also give the ReLU masks; no pre-activation is kept.
    """

    x: np.ndarray
    act1: np.ndarray
    act2: np.ndarray


def offset_estimator_forward(F: np.ndarray, params: OffsetEstimatorParams):
    """Run the estimator on (..., h, w, c) features; offsets get shape
    (..., h, w, k*k-1, 2)."""
    act1 = np.maximum(conv3x3_replicate(F, params.w1, params.b1), 0.0)
    act2 = np.maximum(conv3x3_replicate(act1, params.w2, params.b2), 0.0)
    out = conv3x3_replicate(act2, params.w3, params.b3)
    n = params.kernel_size * params.kernel_size - 1
    delta = out.reshape(out.shape[:-1] + (n, 2))
    return delta, EstimatorCache(x=F, act1=act1, act2=act2)


def offset_estimator_backward(d_delta: np.ndarray, cache: EstimatorCache, params: OffsetEstimatorParams):
    """Parameter gradients given the gradient on the emitted offset field."""
    d_out = d_delta.reshape(d_delta.shape[:-2] + (-1,))
    d_w3, d_b3, d_act2 = conv3x3_replicate_backward(cache.act2, params.w3, d_out)
    d_pre2 = d_act2 * (cache.act2 > 0.0)
    d_w2, d_b2, d_act1 = conv3x3_replicate_backward(cache.act1, params.w2, d_pre2)
    d_pre1 = d_act1 * (cache.act1 > 0.0)
    d_w1, d_b1, _ = _conv3x3_weight_gradient(cache.x, d_pre1)  # features are data: no input gradient
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2, "w3": d_w3, "b3": d_b3}


def offset_estimator(F: Grid, params: OffsetEstimatorParams) -> OffsetField:
    """Run the three-layer estimator over a feature grid."""
    check_feature_channels(F, params)
    delta, _ = offset_estimator_forward(F.data, params)
    return OffsetField(params.kernel_size, delta)


# ---------------------------------------------------------------------------
# Deformed neighbourhoods and softmax affinity
# ---------------------------------------------------------------------------


def deformed_neighborhood(x_i, kernel_size: int, offsets: OffsetField) -> list:
    """The k*k-1 displaced positions for one pixel, in raster order.

    Positions may be fractional and out of bounds; sampling clamps later.
    """
    if kernel_size != offsets.kernel_size:
        raise ShapeMismatch(f"kernel size {kernel_size} does not match offset field ({offsets.kernel_size})")
    x, y = pixel_index(x_i, offsets.delta.shape[1], offsets.delta.shape[0])
    pos_x, pos_y = _displaced_positions(x, y, offsets.delta[y, x], kernel_size)
    return [ContinuousPos(px, py) for px, py in zip(pos_x, pos_y)]


def compute_affinity(F: Grid, emb: EmbeddingParams, x_i, nbrs) -> AffinityWeights:
    """Softmax weights for one pixel and its neighbours: the batched affinity
    of a one-pixel map (see :func:`_affinity_at`)."""
    check_feature_channels(F, emb)
    x, y = pixel_index(x_i, F.width, F.height)
    px, py = (p.reshape(1, 1, 1, -1) for p in sample_positions(nbrs))
    aff = _affinity_at(
        F.data[np.newaxis], F.data[np.newaxis, y : y + 1, x : x + 1],
        lambda band: (px[:, band], py[:, band]), px.shape[3], emb,
    )
    return AffinityWeights(neighbor_weights=aff.w_nb[0, 0, 0], self_weight=float(aff.w_self[0, 0, 0]))


@dataclass
class AffinityState:
    """Batched affinity weights plus the taps that propagation reads.

    Leading axes (S, h, w) are the scene stack and the pixels of each
    scene; the per-pixel view is a 1x1 map. Per tap it keeps 48 B: the
    taps' index and weights and the softmax weight. The taps' fractions
    follow from ``positions``, the embeddings from ``F`` (see
    :meth:`embeddings`) and the logits' corner products from both (see
    :func:`_corner_products`), so no field has a per-tap channel axis and
    none holds per-pixel embeddings or gradient state.
    """

    scale: float
    taps: Taps
    w_nb: np.ndarray  # (S, h, w, n)
    w_self: np.ndarray  # (S, h, w)
    F: np.ndarray  # (S, h, w, d_F) features at the propagating pixels
    stack: np.ndarray  # (S, H, W, d_F) the feature stack the taps read
    emb: EmbeddingParams
    # row band -> its (S, rows, w, n) x and y sampling positions; reads the
    # caller's offsets as ``stack`` is the caller's features, so neither may
    # change between the forward and the backward pass
    positions: Callable

    def embeddings(self):
        """The pixels' (q, k_self), recomputed exactly as the forward pass
        formed them."""
        return _embed(self.F, self.emb)

    def logit_position_gradients(self, frac):
        """Per row band of the affinity: the band and the (2, S, rows, w, n)
        d/dx, d/dy of its neighbour logits times ``scale``, given the taps'
        whole-map :func:`dspn.grid.fractions`. The corner products are
        re-derived band by band exactly as the forward pass formed them, so
        neither they nor their gradients span the map."""
        keys = edge_pad(_matmul_last(self.stack, self.emb.g_phi))
        h, w, n = self.w_nb.shape[1:]
        for band in _row_bands(h, w, 2 * n):
            q = _matmul_last(self.F[:, band], self.emb.g_theta)
            dots = _corner_products(self.taps.rows(band), keys, q)
            yield band, position_gradient(dots, [f[:, band] for f in frac])


BAND_TAPS = 32768  # taps (conv: input values) per row band: a band's temporaries stay in cache


def _row_bands(height: int, width: int, n: int):
    """Row slices covering a map of n taps per pixel in as few bands as keep
    each within ``max(1, BAND_TAPS // (width * n))`` rows, split evenly: the
    first is the tallest and the last may be shorter. A map of at most
    BAND_TAPS taps is one band."""
    most = max(1, BAND_TAPS // max(1, width * n))
    rows = -(-height // max(1, -(-height // most)))
    for top in range(0, height, rows):
        yield slice(top, min(top + rows, height))


# Helper threads a band runner keeps at most. Every band in flight holds its
# own scratch, so this cap, not the host's core count, bounds the affinity's
# traced peak: four bands' scratch (about 5.1 MB at 608x176) stay within the
# one step band that its budget charges (256 B per step-band tap, 7.5 MB)
MAX_HELPERS = 3

# Bands a map needs before its runner hands any to a helper. A handoff costs
# each call about what a few bands gain: with one helper on two cores, a
# 64x64 map's affinity at k = 3 (2 bands) and k = 5 (7 bands) ran 5-8%
# slower, at k = 7 (13 bands) and on 128x128 at k = 3 (8 bands) 25% faster
SHARED_BANDS = 8


class _BandRunner:
    """Runs a map's row bands on the calling thread and up to ``helpers``
    threads (at most MAX_HELPERS) of one pool, which it starts on first use
    (again in a forked child, which inherits the pool but not its threads)."""

    def __init__(self, helpers: int):
        self.helpers = min(helpers, MAX_HELPERS)
        self._lock = threading.Lock()
        self._pool = None
        self._owner = None  # the process whose threads the pool holds

    def run(self, bands, body) -> None:
        """Call ``body(band)`` once for every band. Each thread takes the
        next band as it comes free; with fewer than SHARED_BANDS bands, or
        no helpers, the calling thread runs them all. Returns once every
        band has run, then re-raises the first exception a band raised: the
        calling thread's own, else the first failed helper's."""
        bands = list(bands)
        if len(bands) < SHARED_BANDS or self.helpers < 1:
            for band in bands:
                body(band)
            return
        # the calling thread takes bands itself rather than wait on the pool:
        # the affinity and 12 steps at 608x176 (2 cores) took 0.254 s with
        # every band submitted to the pool, against 0.212 s this way, and
        # 0.235 s with threads started per call, against 0.218 s (medians of
        # 5 alternating processes)
        todo = iter(bands)
        taking = threading.Lock()

        def work():
            while True:
                with taking:
                    band = next(todo, None)
                if band is None:
                    return
                body(band)

        pool = self._started()
        futures = [pool.submit(work) for _ in range(min(self.helpers, len(bands) - 1))]
        try:
            work()
        finally:
            wait(futures)
        for future in futures:
            future.result()

    def _started(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._owner != os.getpid():
                self._pool = ThreadPoolExecutor(self.helpers, thread_name_prefix="dspn-band")
                self._owner = os.getpid()
            return self._pool

    def close(self) -> None:
        """Stop the pool's threads; a later multi-band call starts new ones."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown()
            self._pool = self._owner = None


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_RUNNER = _BandRunner(_cores() - 1)  # the affinity's and the steps' band runner


def _matmul_last(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m.T over the trailing axis via one BLAS call."""
    lead = x.shape[:-1]
    return (x.reshape(-1, x.shape[-1]) @ m.T).reshape(lead + (m.shape[0],))


def _embed(f_self: np.ndarray, emb: EmbeddingParams):
    """Query and self key, (q, k_self), of (S, h, w, d_F) features."""
    return _matmul_last(f_self, emb.g_theta), _matmul_last(f_self, emb.g_phi)


def _corner_products(part: Taps, keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The four corner products ``q . K[corner]`` of a row band's taps,
    (4, S, rows, w, n), from the padded keys ``K`` and the band's (S, rows,
    w, d_e) query: the one place the forward and the backward pass form
    them."""
    dots = np.empty(part.weights.shape)
    for c in range(4):
        np.einsum("...nd,...d->...n", part.corner(keys, c), q, out=dots[c])
    return dots


def _displaced_positions(x, y, delta: np.ndarray, kernel_size: int):
    """Sampling positions: pixel (x, y) plus its ring offset plus the learned
    offset. ``x`` and ``y`` broadcast against ``delta[..., 0]``, whose last
    axis runs over the k*k-1 neighbours."""
    offs = neighbor_offsets(kernel_size)
    return x + offs[:, 0] + delta[..., 0], y + offs[:, 1] + delta[..., 1]


def _affinity_at(F: np.ndarray, f_self: np.ndarray, positions, n: int, emb: EmbeddingParams) -> AffinityState:
    """Scaled-dot-product softmax between the (S, h, w, d_F) features
    ``f_self`` and the (S, H, W, d_F) stack ``F`` sampled at n positions per
    pixel. ``positions(band)`` gives the (S, rows, w, n) x and y positions of
    rows ``band``.

    The state is allocated once and filled one row band at a time: the
    band's taps, its query ``q`` and self logit, then each neighbour logit
    as the bilinear blend of its four corner products ``q . K[corner]`` (see
    the module docstring), then the softmax. The embeddings, the corner
    products and the taps' fractions are the band's scratch; only the
    padded keys ``K`` span the map. Logits are max-shifted
    before exponentiation; the self term is part of the normalisation, so
    all weights are strictly positive and sum to 1 with the self weight
    included.
    """
    s, h, w = f_self.shape[:3]
    taps = Taps((s, h, w, n), F.shape[2], F.shape[1])
    scale = np.sqrt(float(F.shape[-1]))
    keys = edge_pad(_matmul_last(F, emb.g_phi))
    w_nb = np.empty(taps.index.shape)
    w_self = np.empty((s, h, w))

    def fill(band):
        part = taps.rows(band)
        q, k_self = _embed(f_self[:, band], emb)
        logit_self = (q * k_self).sum(axis=-1) / scale
        del k_self  # only the self logit reads it; freed before the taps' scratch
        part.place(*positions(band))
        dots = _corner_products(part, keys, q)
        logit_nb = part.lerp(dots) / scale
        # the initial value lets a per-pixel call pass an empty neighbour list
        top = np.maximum(logit_nb.max(axis=-1, initial=-np.inf), logit_self)
        e_nb = np.exp(logit_nb - top[..., np.newaxis])
        e_self = np.exp(logit_self - top)
        z = e_nb.sum(axis=-1) + e_self
        np.divide(e_nb, z[..., np.newaxis], out=w_nb[:, band])
        np.divide(e_self, z, out=w_self[:, band])

    # a band's scratch here (fractions, corner products, one corner's key
    # read) is about twice a step's per tap, so the affinity walks bands of
    # half as many taps; freeing twice a step band's scratch on every call
    # lets malloc return it to the system and fault it in again next call
    _RUNNER.run(_row_bands(h, w, 2 * n), fill)
    return AffinityState(
        scale=scale, taps=taps, w_nb=w_nb, w_self=w_self,
        F=f_self, stack=F, emb=emb, positions=positions,
    )


def affinity_forward_batched(F: np.ndarray, delta: np.ndarray, emb: EmbeddingParams, kernel_size: int) -> AffinityState:
    """Affinity of every pixel of an (S, h, w, d_F) stack under (S, h, w, n, 2) offsets."""
    h, w = F.shape[1:3]
    cols = np.arange(w, dtype=np.float64)[np.newaxis, np.newaxis, :, np.newaxis]
    rows = np.arange(h, dtype=np.float64)[np.newaxis, :, np.newaxis, np.newaxis]

    def positions(band):
        return _displaced_positions(cols, rows[:, band], delta[:, band], kernel_size)

    return _affinity_at(F, F, positions, delta.shape[3], emb)


def affinity_forward(F: np.ndarray, delta: np.ndarray, emb: EmbeddingParams, kernel_size: int) -> AffinityState:
    """Single-scene wrapper: (h, w, d_F) features, (h, w, n, 2) offsets."""
    return affinity_forward_batched(F[np.newaxis], delta[np.newaxis], emb, kernel_size)


@dataclass
class RefineState:
    """Forward trace of a refine call: shared affinity plus, when recorded,
    each step's input maps, whose neighbour reads the backward re-derives."""

    affinity: AffinityState
    inputs: list  # each step's (S, h, w) input maps; empty unless recorded
    replace_factor: np.ndarray  # m * M, (S, h, w)
    out: np.ndarray  # final refined maps, (S, h, w)
    iters: int


def dspn_step_forward(h_arr: np.ndarray, aff: AffinityState) -> np.ndarray:
    """One deformable step on (S, h, w) maps using precomputed affinity.

    Difference form keeps the convex-combination bound exact: with the self
    weight strictly positive the neighbour weights sum to strictly less
    than 1, so the output cannot escape [min, max] of the sampled values.
    The step walks row bands (see :func:`_row_bands`) on the process's
    cores, sampling each band's neighbours into a scratch of its own; every
    pixel's arithmetic is the same as in one pass over the whole map.
    """
    out = np.empty_like(h_arr)
    padded = edge_pad(h_arr)

    def step(band):
        here = h_arr[:, band]
        nb = aff.taps.rows(band).sample(padded)
        nb -= here[..., np.newaxis]
        np.einsum("shwn,shwn->shw", aff.w_nb[:, band], nb, out=out[:, band])
        out[:, band] += here

    _RUNNER.run(_row_bands(*h_arr.shape[1:], aff.w_nb.shape[3]), step)
    return out


def refine_forward_batched(
    d0: np.ndarray,
    ds: np.ndarray,
    replace_factor: np.ndarray,
    aff: AffinityState,
    iters: int,
    keep_records: bool = True,
) -> RefineState:
    """Iterate (step, blend toward measurements) on (S, h, w) stacks."""
    current = d0
    inputs = []
    stay, pull = 1.0 - replace_factor, replace_factor * ds
    for _ in range(iters):
        if keep_records:
            inputs.append(current)
        stepped = dspn_step_forward(current, aff)
        current = np.multiply(stay, stepped, out=stepped)
        current += pull
    return RefineState(
        affinity=aff, inputs=inputs, replace_factor=replace_factor, out=current, iters=iters
    )


def _propagated_values(H: Grid, F: Grid, offsets: OffsetField, emb: EmbeddingParams) -> np.ndarray:
    """The propagated map's values, once the map, features and offsets share one pixel grid."""
    values = single_channel(H, "propagated map")
    if not F.data.shape[:2] == offsets.delta.shape[:2] == values.shape:
        raise ShapeMismatch(
            f"features {F.data.shape}, offsets {offsets.delta.shape} and map {values.shape} differ in (h, w)")
    check_feature_channels(F, emb)
    return values


def dspn_step(H: Grid, F: Grid, offsets: OffsetField, emb: EmbeddingParams) -> Grid:
    """One full deformable propagation step over a grid."""
    values = _propagated_values(H, F, offsets, emb)
    aff = affinity_forward(F.data, offsets.delta, emb, offsets.kernel_size)
    return Grid(dspn_step_forward(values[np.newaxis], aff)[0])


def dspn_refine_forward(
    D0: Grid,
    Ds: Grid,
    m: Grid,
    M: Grid,
    F: Grid,
    offsets: OffsetField,
    emb: EmbeddingParams,
    iters: int,
    keep_records: bool = True,
):
    """Iterate (deformable step, confidence-weighted replace) from D0.

    Returns the refined grid and the forward state for the backward pass.
    """
    iters = count(iters, "iteration count")
    values = _propagated_values(D0, F, offsets, emb)
    check_same_shape(D0=D0, Ds=Ds, m=m, M=M)
    mask, conf = binary_mask(m), unit_confidence(M)

    aff = affinity_forward(F.data, offsets.delta, emb, offsets.kernel_size)
    state = refine_forward_batched(
        values[np.newaxis], single_channel(Ds, "sparse map")[np.newaxis], (mask * conf)[np.newaxis],
        aff, iters, keep_records=keep_records,
    )
    return Grid(state.out[0]), state


def dspn_refine(
    D0: Grid,
    Ds: Grid,
    m: Grid,
    M: Grid,
    F: Grid,
    offsets: OffsetField,
    emb: EmbeddingParams,
    iters: int,
) -> Grid:
    refined, _ = dspn_refine_forward(D0, Ds, m, M, F, offsets, emb, iters, keep_records=False)
    return refined
