"""Minimal dense-network engine: layers, batch norm, losses, Adam training.

Hidden layers run dense -> ReLU -> batch norm (normalization after the
activation, the non-default order); the output layer is linear. Losses are
MSE or L1 plus an L2 penalty on dense weight matrices only. Everything is
float64 and deterministic given the spec seed.

Training keeps parameters flat: ``Adam`` moves every trainable block (dense
weights and bias, batch-norm gamma and beta) into one float64 vector, layer
by layer in ``params()`` order, and rebinds each layer attribute to a
reshaped view into it. Gradients and both Adam moments are vectors of the
same layout, so the backward pass writes gradients in place and one Adam
step is a dozen whole-vector operations. Batch-norm running statistics are
not trained and stay separate arrays. The layout lives only in memory:
checkpoints store named blocks, so a bundle's bytes do not depend on it.
The deep counter (``deepcount``) trains through the same ``Adam``,
``run_epochs`` and dense forward/backward.

Checkpoints use a shared container (magic ``AVCNN1``, canonical JSON spec,
named float64 parameter blocks); ``read_checkpoint`` refuses a container
of another kind than its reader expects. One pair, ``save_net`` and
``load_net``, writes and reads any model: each layer names its blocks in
``state()`` and the model's ``groups`` prefix them, ``layer<i>.weights``
here and ``conv<i>.bias`` in ``deepcount``.
"""

import json
import math
import numbers
import struct
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dataio import DataError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_MAGIC = b"AVCNN1"


class NumericError(Exception):
    """Training produced a non-finite loss; the run is aborted.

    A trainer sets ``epoch`` and ``batch`` (both 1-based) to where the loss
    went non-finite; a bare loss evaluation leaves them None.
    """

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


def check_int(name, value, minimum=None):
    """Reject anything but an integer (bool included) below ``minimum``."""
    # the exact-type test spares the slower ABC check in the common case
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name, value, low=None, high=None, positive=False):
    """Reject anything but a finite real number (bool included) out of range."""
    if type(value) not in (float, int) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinity or an int beyond any float
        raise ValueError(f"{name} must be finite, got {value}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def check_keys(obj, allowed, where, required=()):
    """Reject anything but a JSON object with keys in ``allowed`` and all of ``required``."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown, missing = set(obj) - set(allowed), set(required) - set(obj)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {sorted(unknown)}")
    if missing:
        raise ValueError(f"missing key(s) in {where}: {sorted(missing)}")


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def spec_from_json(cls, obj, where, complete=False):
    """Spec dataclass ``cls`` from a JSON object keyed by its fields (all, if ``complete``).

    JSON lists become tuples, recursively, and ``cls`` checks the values.
    Raises TypeError or ValueError.
    """
    names = [f.name for f in fields(cls)]
    check_keys(obj, names, where, names if complete else ())
    return cls(**{key: _tuples(value) for key, value in obj.items()})


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
        for s in self.layer_sizes:
            check_int("layer size", s, 1)
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if self.loss not in ("mse", "l1"):
            raise ValueError(f"unknown loss {self.loss!r}")
        check_real("l2_factor", self.l2_factor, low=0.0)
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_real("learning_rate", self.learning_rate, positive=True)
        check_int("seed", self.seed, 0)
        check_real("bn_momentum", self.bn_momentum, low=0.0, high=1.0)
        check_real("bn_epsilon", self.bn_epsilon, positive=True)


class DenseLayer:
    def __init__(self, weights, bias):
        self.weights = np.asarray(weights, dtype=np.float64)  # out x in
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("inconsistent dense layer shapes")

    def params(self):
        return {"weights": self.weights, "bias": self.bias}

    state = params  # checkpoint blocks: the trainable ones


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

    def state(self):  # checkpoint blocks: the trainable ones and the running statistics
        return {**self.params(), "running_mean": self.running_mean, "running_var": self.running_var}


@dataclass
class TrainedModel:
    spec: NetworkSpec
    layers: list
    train_loss_history: list = field(default_factory=list)
    val_loss_history: list = field(default_factory=list)

    @property
    def groups(self):
        """(prefix, layers) pairs naming the checkpoint blocks ``layer<i>.<block>``."""
        return [("layer", self.layers)]


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


# --- flat parameters and Adam -----------------------------------------------


def param_views(layers, flat=None):
    """Views into ``flat`` (a new vector when None) shaped like each layer's
    trainable blocks.

    The layout is layer by layer in ``params()`` order; the result is a list
    parallel to ``layers`` of name -> view dicts.
    """
    if flat is None:
        flat = np.empty(n_params(layers))
    views, pos = [], 0
    for layer in layers:
        block = {}
        for name, p in layer.params().items():
            block[name] = flat[pos : pos + p.size].reshape(p.shape)
            pos += p.size
        views.append(block)
    return views


def n_params(layers) -> int:
    return sum(p.size for layer in layers for p in layer.params().values())


class Adam:
    """Adam over every trainable block of ``layers``, held as one flat vector.

    Construction copies the blocks into ``params`` and rebinds each layer
    attribute to its view, so the layers train in place. ``grad`` has the
    same layout and ``grads`` holds its per-block views: the backward pass
    writes into those and ``step`` reads ``grad``.
    """

    def __init__(self, layers):
        self.params = np.empty(n_params(layers))
        for layer, views in zip(layers, param_views(layers, self.params)):
            for name, view in views.items():
                view[...] = getattr(layer, name)
                setattr(layer, name, view)
        self.grad = np.zeros_like(self.params)
        self.grads = param_views(layers, self.grad)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self._a = np.empty_like(self.params)
        self._b = np.empty_like(self.params)
        self.t = 0

    def step(self, lr):
        """One update from ``grad``, with the textbook operation order.

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
        p -= lr (m / c1) / (sqrt(v / c2) + eps).
        """
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        g, m, v, a, b = self.grad, self.m, self.v, self._a, self._b
        m *= ADAM_BETA1
        np.multiply(g, 1 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.square(g, out=a)
        a *= 1 - ADAM_BETA2
        v += a
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        self.params -= a


def run_epochs(rng, n, epochs, batch_size, adam, lr, batch_loss):
    """Minibatch Adam: yields the mean training loss of each epoch.

    Each epoch visits the n rows in a fresh ``rng.permutation`` order, in
    batches of ``batch_size``. ``batch_loss(sel)`` returns the batch's mean
    loss with its gradient written into ``adam.grads``. A non-finite loss
    re-raises as ``NumericError`` carrying the epoch and batch.
    """
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for batch, start in enumerate(range(0, n, batch_size), 1):
            sel = order[start : start + batch_size]
            try:
                loss = batch_loss(sel)
            except NumericError as exc:
                raise NumericError(
                    f"{exc} at epoch {epoch}, batch {batch}", epoch, batch
                ) from None
            adam.step(lr)
            epoch_loss += loss * sel.size
        yield epoch_loss / n


# --- forward and backward ---------------------------------------------------


def forward_layers(layers, x, train_mode, update_running=False, caches=None):
    """Run batch ``x`` through dense / batch-norm ``layers``.

    A dense layer is followed by ReLU unless it is the last one. With
    ``caches`` (a list), each layer appends what ``backward_layers`` needs.
    ``x`` itself is never written to.
    """
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        if isinstance(layer, DenseLayer):
            z = np.matmul(x, layer.weights.T)
            z += layer.bias
            if caches is not None:
                caches.append((x, z > 0 if i < last else None))
            if i < last:
                np.maximum(z, 0.0, out=z)
            x = z
            continue
        # x is the previous dense layer's output, owned by this pass, so
        # the centring, scaling and x_hat all happen in its buffer
        if train_mode:
            n = x.shape[0]
            mu = np.add.reduce(x, axis=0)
            mu /= n  # x.mean(axis=0)
            d = np.subtract(x, mu, out=x)
            var = np.add.reduce(np.square(d), axis=0)
            var /= n  # x.var(axis=0), which also squares x - mean
            if update_running:
                m = layer.momentum
                layer.running_mean = m * layer.running_mean + (1 - m) * mu
                layer.running_var = m * layer.running_var + (1 - m) * var
        else:
            var = layer.running_var
            d = np.subtract(x, layer.running_mean, out=x)
        inv_std = 1.0 / np.sqrt(var + layer.epsilon)
        x_hat = np.multiply(d, inv_std, out=d)
        if caches is not None:
            caches.append((x_hat, inv_std))
        x = layer.gamma * x_hat
        x += layer.beta
    return x


def backward_layers(layers, caches, g, grads, l2=0.0, input_grad=False):
    """Backprop ``g`` (loss gradient at the output) through ``layers``.

    Writes each block's gradient into ``grads`` (a list parallel to
    ``layers`` of name -> array dicts). Batch norm backprop goes through the
    batch statistics. Returns the gradient at the input when ``input_grad``
    is set; otherwise layer 0 skips it, since no parameter gradient reads it.
    ``g`` and the cached x_hat buffers are consumed.
    """
    for i in range(len(layers) - 1, -1, -1):
        layer, out = layers[i], grads[i]
        if isinstance(layer, DenseLayer):
            x_in, relu_mask = caches[i]
            if relu_mask is not None:
                g *= relu_mask
            np.matmul(g.T, x_in, out=out["weights"])
            if l2 > 0:
                out["weights"] += 2.0 * l2 * layer.weights
            np.add.reduce(g, axis=0, out=out["bias"])
            if i > 0 or input_grad:
                g = g @ layer.weights
            continue
        x_hat, inv_std = caches[i]
        n = g.shape[0]
        t = g * x_hat
        np.add.reduce(t, axis=0, out=out["gamma"])
        np.add.reduce(g, axis=0, out=out["beta"])
        dx_hat = np.multiply(g, layer.gamma, out=g)
        sum_dx_hat = np.add.reduce(dx_hat, axis=0)
        sum_dx_hat_x_hat = np.add.reduce(np.multiply(dx_hat, x_hat, out=t), axis=0)
        # batch-statistics backprop, standard closed form, in place:
        # inv_std / n * (n * dx_hat - sum(dx_hat) - x_hat * sum(dx_hat * x_hat))
        dx_hat *= n
        dx_hat -= sum_dx_hat
        dx_hat -= np.multiply(x_hat, sum_dx_hat_x_hat, out=x_hat)
        dx_hat *= inv_std / n
        g = dx_hat
    return g if input_grad else None


def _forward_pass(model, batch, train_mode, update_running=False, keep_cache=False):
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.spec.layer_sizes[0]:
        raise ValueError(
            f"batch width {x.shape} does not match input size "
            f"{model.spec.layer_sizes[0]}"
        )
    caches = [] if keep_cache else None
    return forward_layers(model.layers, x, train_mode, update_running, caches), caches


def forward(model: TrainedModel, batch) -> np.ndarray:
    """Run the network in inference mode (batch norm on running statistics)."""
    out, _ = _forward_pass(model, batch, train_mode=False)
    return out


def _data_loss_and_grad(pred, targets, kind):
    diff = pred - targets
    n = diff.size
    if kind == "mse":
        return float(np.mean(diff**2)), 2.0 * diff / n
    return float(np.mean(np.abs(diff))), np.sign(diff) / n


def loss_and_gradients(model: TrainedModel, batch, targets, update_running=False, grads=None):
    """Loss (data + L2 on dense weights) and backprop gradients.

    Gradients are written into ``grads`` (a list parallel to model.layers
    of name->array dicts, such as ``Adam.grads``; fresh arrays when None)
    and returned. Batch norm backprop goes through the batch statistics.
    Running statistics are only touched when update_running is set (the
    train loop does; gradient checks must not).
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
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    if grads is None:
        grads = param_views(model.layers)
    backward_layers(model.layers, caches, g, grads, l2)
    return loss, grads


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
    adam = Adam(model.layers)

    def batch_loss(sel):
        loss, _ = loss_and_gradients(
            model, train_x[sel], train_y[sel], update_running=True, grads=adam.grads
        )
        return loss

    n = train_x.shape[0]
    for epoch_loss in run_epochs(
        rng, n, spec.epochs, spec.batch_size, adam, spec.learning_rate, batch_loss
    ):
        model.train_loss_history.append(epoch_loss)
        if val_x is not None and val_y is not None:
            pred = forward(model, val_x)
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


def read_checkpoint(path, kind=None):
    """Inverse of write_checkpoint -> (kind, spec_dict, [(name, array), ...]), of ``kind`` if given."""
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
        if kind is not None and header["kind"] != kind:
            raise DataError(f"{path}: checkpoint kind {header['kind']!r}, expected {kind!r}")
        if not isinstance(header["spec"], dict):
            raise TypeError("spec is not a JSON object")
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


def _state_blocks(groups):
    """(``<prefix><i>.<block>``, array) for every state block of every layer."""
    return [
        (f"{prefix}{i}.{name}", arr)
        for prefix, layers in groups
        for i, layer in enumerate(layers)
        for name, arr in layer.state().items()
    ]


def save_net(model, path, kind: str):
    """Checkpoint any model with a ``spec``, block ``groups`` and a loss history."""
    blocks = _state_blocks(model.groups)
    blocks.append(("train_loss_history", np.asarray(model.train_loss_history)))
    write_checkpoint(path, kind, asdict(model.spec), blocks)


def load_net(path, kind: str, spec_type, init):
    """Inverse of save_net: ``init`` builds the model from its ``spec_type`` spec.

    A block that is missing, has another shape or holds NaN or infinity raises DataError.
    """
    _, spec_dict, blocks = read_checkpoint(path, kind)
    try:
        spec = spec_from_json(spec_type, spec_dict, "header", complete=True)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid {kind} spec ({exc})") from exc
    model = init(spec)
    named = dict(blocks)
    for name, target in _state_blocks(model.groups):
        if name not in named:
            raise DataError(f"{path}: missing parameter block {name!r}")
        block = named[name]
        if block.shape != target.shape:
            raise DataError(
                f"{path}: parameter block {name!r} has shape {block.shape}, "
                f"expected {target.shape}"
            )
        if not np.all(np.isfinite(block)):
            raise DataError(f"{path}: parameter block {name!r} holds NaN or infinity")
        target[...] = block
    model.train_loss_history = list(named.get("train_loss_history", []))
    return model


def save_model(model: TrainedModel, path):
    save_net(model, path, "dense")


def load_model(path) -> TrainedModel:
    return load_net(path, "dense", NetworkSpec, init_model)
