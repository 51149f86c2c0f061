"""Deep counting: a small 1-D conv net mapping a distance series to a count.

Strided same-padded convolutions (edge-replicate padding, matching the
edge handling used elsewhere) with ReLU feed a per-channel global average
pool, then a dense head produces one scalar. Pooling makes the model
length-independent, so it accepts any series at least one kernel long and
never consumes a detection threshold. Trains with L1 or L2 loss against
the true per-clip counts on raw (unsmoothed) predicted distances. Its
checkpoint (kind ``conv_counter``) goes through ``nn_core.save_net`` and
``load_net``, with blocks ``conv<i>.*`` and ``head<i>.*``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .nn_core import DenseLayer, NumericError, check_int, check_real


@dataclass(frozen=True)
class ConvCounterSpec:
    conv_layers: tuple = ((16, 7, 2), (32, 7, 2), (64, 7, 2))  # (channels, kernel, stride)
    head_sizes: tuple = ()  # hidden dense widths between the pool and the scalar
    loss: str = "l1"
    epochs: int = 30
    batch_clips: int = 8
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for layer in self.conv_layers:
            for v in layer:
                check_int("conv layer value", v)
        for s in self.head_sizes:
            check_int("head size", s, 1)
        conv = tuple(tuple(int(v) for v in layer) for layer in self.conv_layers)
        object.__setattr__(self, "conv_layers", conv)
        object.__setattr__(self, "head_sizes", tuple(int(s) for s in self.head_sizes))
        if not conv:
            raise ValueError("need at least one conv layer")
        for c, k, s in conv:
            if c < 1 or s < 1:
                raise ValueError("channels and stride must be >= 1")
            if k < 1 or k % 2 == 0:
                raise ValueError("kernel lengths must be odd")
        if self.loss not in ("l1", "l2"):
            raise ValueError(f"unknown loss {self.loss!r}")
        check_int("epochs", self.epochs, 1)
        check_int("batch_clips", self.batch_clips, 1)
        check_real("learning_rate", self.learning_rate, positive=True)
        check_int("seed", self.seed, 0)

    @property
    def max_kernel(self) -> int:
        return max(k for _, k, _ in self.conv_layers)


class ConvLayer:
    def __init__(self, weights, bias, stride):
        self.weights = np.asarray(weights, dtype=np.float64)  # out x in x k
        self.bias = np.asarray(bias, dtype=np.float64)
        self.stride = int(stride)

    def params(self):
        return {"weights": self.weights, "bias": self.bias}

    state = params  # checkpoint blocks: the trainable ones


@dataclass
class DeepCounter:
    spec: ConvCounterSpec
    convs: list
    head: list  # DenseLayers, last one emits the scalar
    train_loss_history: list = field(default_factory=list)

    @property
    def layers(self):
        return self.convs + self.head

    @property
    def groups(self):
        """(prefix, layers) pairs naming the checkpoint blocks."""
        return [("conv", self.convs), ("head", self.head)]


def init_counter(spec: ConvCounterSpec, rng=None) -> DeepCounter:
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    convs = []
    c_in = 1
    for c_out, k, s in spec.conv_layers:
        w = rng.normal(0.0, np.sqrt(2.0 / (c_in * k)), size=(c_out, c_in, k))
        convs.append(ConvLayer(w, np.zeros(c_out), s))
        c_in = c_out
    head = []
    sizes = (c_in,) + spec.head_sizes + (1,)
    for i in range(len(sizes) - 1):
        w = rng.normal(0.0, np.sqrt(2.0 / sizes[i]), size=(sizes[i + 1], sizes[i]))
        head.append(DenseLayer(w, np.zeros(sizes[i + 1])))
    return DeepCounter(spec=spec, convs=convs, head=head)


def _conv_same(x, layer: ConvLayer):
    """Strided same conv with edge-replicate padding -> (y, windows, pad_left)."""
    c_in, n = x.shape
    k = layer.weights.shape[2]
    s = layer.stride
    out_len = -(-n // s)
    pad_total = max((out_len - 1) * s + k - n, 0)
    left = pad_total // 2
    x_pad = np.pad(x, ((0, 0), (left, pad_total - left)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(x_pad, k, axis=1)[:, ::s, :]
    windows = windows[:, :out_len, :]
    y = np.tensordot(layer.weights, windows, axes=([1, 2], [0, 2]))
    return y + layer.bias[:, None], windows, left


def _forward_full(counter: DeepCounter, series, keep_cache=False):
    v = np.asarray(series, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("series must be 1-D")
    if v.size < counter.spec.max_kernel:
        raise ValueError(
            f"series too short ({v.size} < kernel {counter.spec.max_kernel})"
        )
    x = v[None, :]
    conv_caches = []
    for layer in counter.convs:
        y, windows, left = _conv_same(x, layer)
        mask = y > 0
        if keep_cache:
            conv_caches.append((x.shape[1], windows, left, mask))
        x = np.maximum(y, 0.0)
    pooled = x.mean(axis=1)
    head_caches = [] if keep_cache else None
    h = nn_core.forward_layers(counter.head, pooled[None, :], False, caches=head_caches)
    raw = float(h[0, 0])
    if keep_cache:
        return raw, (conv_caches, x.shape[1], head_caches)
    return raw, None


def conv_forward(counter: DeepCounter, series) -> float:
    """Raw (unrounded) count for a series of any admissible length."""
    raw, _ = _forward_full(counter, series)
    return raw


def _backward_full(counter: DeepCounter, caches, d_raw, grads):
    """Backprop one clip's output gradient; writes into grads (parallel to layers)."""
    conv_caches, pooled_len, head_caches = caches
    n_conv = len(counter.convs)
    g = nn_core.backward_layers(
        counter.head, head_caches, np.array([[d_raw]]), grads[n_conv:], input_grad=True
    )
    # through global average pooling
    g = np.repeat(g.T, pooled_len, axis=1) / pooled_len
    for i in range(n_conv - 1, -1, -1):
        layer = counter.convs[i]
        n_in, windows, left, mask = conv_caches[i]
        g = g * mask
        grads[i]["weights"][...] = np.tensordot(g, windows, axes=([1], [1]))
        np.add.reduce(g, axis=1, out=grads[i]["bias"])
        if i > 0:
            contrib = np.tensordot(g, layer.weights, axes=([0], [0]))  # n_out, c_in, k
            contrib = contrib.transpose(1, 0, 2)
            k = layer.weights.shape[2]
            s = layer.stride
            n_out = g.shape[1]
            pad_total = max((n_out - 1) * s + k - n_in, 0)
            dx_pad = np.zeros((contrib.shape[0], n_in + pad_total))
            # scatter-add each kernel tap back onto the padded axis
            for t in range(k):
                dx_pad[:, t : t + (n_out - 1) * s + 1 : s] += contrib[:, :, t]
            g = dx_pad[:, left : left + n_in].copy()
            # replicate padding folds edge gradients onto the boundary samples
            if left > 0:
                g[:, 0] += dx_pad[:, :left].sum(axis=1)
            tail = dx_pad.shape[1] - (left + n_in)
            if tail > 0:
                g[:, -1] += dx_pad[:, left + n_in :].sum(axis=1)


def loss_and_gradients(counter: DeepCounter, series_list, counts, grads=None):
    """Mean per-clip loss and parameter gradients over a batch of clips.

    The clips' gradients are summed in batch order into ``grads`` (a list
    parallel to counter.layers of name->array dicts, such as
    ``nn_core.Adam.grads``; fresh arrays when None), which is returned.
    """
    series_list = list(series_list)
    counts = np.asarray(list(counts), dtype=np.float64)
    if len(series_list) != counts.size or not series_list:
        raise ValueError("need matching, nonempty series and counts")
    layers = counter.layers
    if grads is None:
        grads = nn_core.param_views(layers)
    clip_grads = nn_core.param_views(layers)
    total = 0.0
    b = len(series_list)
    for j, (series, y) in enumerate(zip(series_list, counts)):
        raw, caches = _forward_full(counter, series, keep_cache=True)
        diff = raw - y
        if counter.spec.loss == "l2":
            total += diff**2 / b
            d_raw = 2.0 * diff / b
        else:
            total += abs(diff) / b
            d_raw = np.sign(diff) / b
        # the first clip writes the sum, later ones are added to it
        _backward_full(counter, caches, d_raw, clip_grads if j else grads)
        if j:
            for acc, new in zip(grads, clip_grads):
                for name in acc:
                    acc[name] += new[name]
    if not np.isfinite(total):
        raise NumericError(f"non-finite loss {total}")
    return float(total), grads


def train_counter(spec: ConvCounterSpec, series_list, counts) -> DeepCounter:
    """Adam over clip minibatches for exactly spec.epochs epochs."""
    series_list = list(series_list)
    counts = np.asarray(list(counts), dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if not series_list:
        raise ValueError("empty training data")
    rng = np.random.default_rng(spec.seed)
    counter = init_counter(spec, rng)
    adam = nn_core.Adam(counter.layers)

    def batch_loss(sel):
        loss, _ = loss_and_gradients(
            counter, [series_list[i] for i in sel], counts[sel], grads=adam.grads
        )
        return loss

    counter.train_loss_history.extend(
        nn_core.run_epochs(
            rng, len(series_list), spec.epochs, spec.batch_clips, adam,
            spec.learning_rate, batch_loss,
        )
    )
    return counter


def predict_count(counter: DeepCounter, series) -> int:
    """Round half up, floored at zero."""
    raw = conv_forward(counter, series)
    return max(int(np.floor(raw + 0.5)), 0)


def save_counter(counter: DeepCounter, path):
    nn_core.save_net(counter, path, "conv_counter")


def load_counter(path) -> DeepCounter:
    return nn_core.load_net(path, "conv_counter", ConvCounterSpec, init_counter)
