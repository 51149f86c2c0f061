"""Minimal dense-network engine: layers, batch norm, losses, Adam training.

Hidden layers run dense -> ReLU -> batch norm (normalization after the
activation, the non-default order); the output layer is linear. Losses are
MSE or L1 plus an L2 penalty on dense weight matrices only. Everything is
float64 and deterministic given the spec seed.

Checkpoints use a shared container (magic ``AVCNN1``, canonical JSON spec,
named float64 parameter blocks) that other model kinds reuse with their own
spec block.
"""

import json
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from .dataio import DataError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_MAGIC = b"AVCNN1"


class NumericError(Exception):
    """Training produced a non-finite loss; the run is aborted."""


@dataclass(frozen=True)
class NetworkSpec:
    layer_sizes: tuple
    l2_factor: float = 0.0
    loss: str = "mse"
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0
    bn_momentum: float = 0.99
    bn_epsilon: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.loss not in ("mse", "l1"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.l2_factor < 0:
            raise ValueError("l2_factor must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class DenseLayer:
    def __init__(self, weights, bias):
        self.weights = np.asarray(weights, dtype=np.float64)  # out x in
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("inconsistent dense layer shapes")

    def params(self):
        return {"weights": self.weights, "bias": self.bias}


class BatchNormLayer:
    def __init__(self, size, momentum, epsilon):
        self.gamma = np.ones(size)
        self.beta = np.zeros(size)
        self.running_mean = np.zeros(size)
        self.running_var = np.ones(size)
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}


@dataclass
class TrainedModel:
    spec: NetworkSpec
    layers: list
    train_loss_history: list = field(default_factory=list)
    val_loss_history: list = field(default_factory=list)


def init_model(spec: NetworkSpec, rng=None) -> TrainedModel:
    """He-initialized dense weights, zero biases, identity batch norms."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    sizes = spec.layer_sizes
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out)))
        if i < len(sizes) - 2:
            layers.append(BatchNormLayer(fan_out, spec.bn_momentum, spec.bn_epsilon))
    return TrainedModel(spec=spec, layers=layers)


def _forward_pass(model, batch, train_mode, update_running=False, keep_cache=False):
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.spec.layer_sizes[0]:
        raise ValueError(
            f"batch width {x.shape} does not match input size "
            f"{model.spec.layer_sizes[0]}"
        )
    caches = [] if keep_cache else None
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        if isinstance(layer, DenseLayer):
            z = x @ layer.weights.T + layer.bias
            if i < last:
                a = np.maximum(z, 0.0)
                if keep_cache:
                    caches.append(("dense_relu", x, z > 0))
                x = a
            else:
                if keep_cache:
                    caches.append(("dense", x, None))
                x = z
        else:
            if train_mode:
                mu = x.mean(axis=0)
                var = x.var(axis=0)
                if update_running:
                    m = layer.momentum
                    layer.running_mean = m * layer.running_mean + (1 - m) * mu
                    layer.running_var = m * layer.running_var + (1 - m) * var
            else:
                mu = layer.running_mean
                var = layer.running_var
            inv_std = 1.0 / np.sqrt(var + layer.epsilon)
            x_hat = (x - mu) * inv_std
            if keep_cache:
                caches.append(("bn", x_hat, inv_std, train_mode))
            x = layer.gamma * x_hat + layer.beta
    return x, caches


def forward(model: TrainedModel, batch, mode: str = "infer") -> np.ndarray:
    """Run the network; ``train`` normalizes with batch statistics."""
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    out, _ = _forward_pass(model, batch, train_mode=(mode == "train"))
    return out


def _data_loss_and_grad(pred, targets, kind):
    diff = pred - targets
    n = diff.size
    if kind == "mse":
        return float(np.mean(diff**2)), 2.0 * diff / n
    return float(np.mean(np.abs(diff))), np.sign(diff) / n


def loss_and_gradients(model: TrainedModel, batch, targets, update_running=False):
    """Loss (data + L2 on dense weights) and backprop gradients.

    Gradients come back as a list parallel to model.layers of name->array
    dicts. Batch norm backprop goes through the batch statistics. Running
    statistics are only touched when update_running is set (the train loop
    does; gradient checks must not).
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets[:, None]
    pred, caches = _forward_pass(
        model, batch, train_mode=True, update_running=update_running, keep_cache=True
    )
    if pred.shape != targets.shape:
        raise ValueError(f"target shape {targets.shape} != output {pred.shape}")
    loss, g = _data_loss_and_grad(pred, targets, model.spec.loss)
    l2 = model.spec.l2_factor
    if l2 > 0:
        loss += l2 * sum(
            float(np.sum(layer.weights**2))
            for layer in model.layers
            if isinstance(layer, DenseLayer)
        )
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")

    grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        cache = caches[i]
        if isinstance(layer, DenseLayer):
            kind, x_in, relu_mask = cache
            if kind == "dense_relu":
                g = g * relu_mask
            gw = g.T @ x_in
            if l2 > 0:
                gw = gw + 2.0 * l2 * layer.weights
            grads[i] = {"weights": gw, "bias": g.sum(axis=0)}
            if i > 0:  # no gradient reads the input's own gradient
                g = g @ layer.weights
        else:
            _, x_hat, inv_std, _ = cache
            n = g.shape[0]
            dgamma = np.sum(g * x_hat, axis=0)
            dbeta = np.sum(g, axis=0)
            dx_hat = g * layer.gamma
            # batch-statistics backprop, standard closed form
            g = (
                inv_std
                / n
                * (n * dx_hat - dx_hat.sum(axis=0) - x_hat * np.sum(dx_hat * x_hat, axis=0))
            )
            grads[i] = {"gamma": dgamma, "beta": dbeta}
    return loss, grads


class _AdamState:
    def __init__(self, layers):
        self.m = [
            {k: np.zeros_like(v) for k, v in layer.params().items()} for layer in layers
        ]
        self.v = [
            {k: np.zeros_like(v) for k, v in layer.params().items()} for layer in layers
        ]
        self.t = 0

    def step(self, layers, grads, lr):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for layer, g, m, v in zip(layers, grads, self.m, self.v):
            for name, grad in g.items():
                m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * grad
                v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * grad**2
                update = lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
                param = getattr(layer, name)
                setattr(layer, name, param - update)


def train(spec: NetworkSpec, train_x, train_y, val_x=None, val_y=None) -> TrainedModel:
    """Minibatch Adam for exactly spec.epochs epochs, shuffled per epoch.

    Validation loss, when data is supplied, is recorded but never used for
    stopping or selection.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    if train_y.ndim == 1:
        train_y = train_y[:, None]
    if train_x.shape[0] == 0:
        raise ValueError("empty training data")
    if train_x.shape[0] != train_y.shape[0]:
        raise ValueError("train_x and train_y row counts differ")
    rng = np.random.default_rng(spec.seed)
    model = init_model(spec, rng)
    adam = _AdamState(model.layers)
    n = train_x.shape[0]
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, spec.batch_size):
            sel = order[start : start + spec.batch_size]
            loss, grads = loss_and_gradients(
                model, train_x[sel], train_y[sel], update_running=True
            )
            adam.step(model.layers, grads, spec.learning_rate)
            epoch_loss += loss * sel.size
        model.train_loss_history.append(epoch_loss / n)
        if val_x is not None and val_y is not None:
            pred = forward(model, val_x, mode="infer")
            vy = np.asarray(val_y, dtype=np.float64)
            if vy.ndim == 1:
                vy = vy[:, None]
            model.val_loss_history.append(_data_loss_and_grad(pred, vy, spec.loss)[0])
    return model


# --- checkpoint container ---------------------------------------------------


def write_checkpoint(path, kind: str, spec_dict: dict, blocks):
    """Shared container: magic, canonical JSON header, named f64 blocks."""
    header = json.dumps(
        {"kind": kind, "spec": spec_dict}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(blocks)))
        for name, arr in blocks:
            arr = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def read_checkpoint(path):
    """Inverse of write_checkpoint -> (kind, spec_dict, [(name, array), ...])."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if data[: len(_MAGIC)] != _MAGIC:
        raise DataError(f"{path}: bad magic (expected {_MAGIC.decode()})")
    try:
        pos = len(_MAGIC)
        (hlen,) = struct.unpack_from("<I", data, pos)
        pos += 4
        header = json.loads(data[pos : pos + hlen].decode("utf-8"))
        pos += hlen
        (n_blocks,) = struct.unpack_from("<I", data, pos)
        pos += 4
        blocks = []
        for _ in range(n_blocks):
            (nlen,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (ndim,) = struct.unpack_from("<I", data, pos)
            pos += 4
            shape = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            raw = data[pos : pos + count * 8]
            if len(raw) != count * 8:
                raise DataError(f"{path}: truncated block {name!r}")
            blocks.append((name, np.frombuffer(raw, dtype="<f8").reshape(shape)))
            pos += count * 8
        return header["kind"], header["spec"], blocks
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint ({exc!r})") from exc


def save_model(model: TrainedModel, path):
    blocks = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, DenseLayer):
            blocks.append((f"layer{i}.weights", layer.weights))
            blocks.append((f"layer{i}.bias", layer.bias))
        else:
            blocks.append((f"layer{i}.gamma", layer.gamma))
            blocks.append((f"layer{i}.beta", layer.beta))
            blocks.append((f"layer{i}.running_mean", layer.running_mean))
            blocks.append((f"layer{i}.running_var", layer.running_var))
    blocks.append(("train_loss_history", np.asarray(model.train_loss_history)))
    write_checkpoint(path, "dense", asdict(model.spec), blocks)


def load_model(path) -> TrainedModel:
    kind, spec_dict, blocks = read_checkpoint(path)
    if kind != "dense":
        raise DataError(f"{path}: checkpoint kind {kind!r}, expected 'dense'")
    spec = NetworkSpec(**spec_dict)
    model = init_model(spec)
    named = dict(blocks)
    for i, layer in enumerate(model.layers):
        try:
            if isinstance(layer, DenseLayer):
                layer.weights = named[f"layer{i}.weights"].copy()
                layer.bias = named[f"layer{i}.bias"].copy()
            else:
                layer.gamma = named[f"layer{i}.gamma"].copy()
                layer.beta = named[f"layer{i}.beta"].copy()
                layer.running_mean = named[f"layer{i}.running_mean"].copy()
                layer.running_var = named[f"layer{i}.running_var"].copy()
        except KeyError as exc:
            raise DataError(f"{path}: missing parameter block {exc}") from exc
    model.train_loss_history = list(named.get("train_loss_history", []))
    return model
