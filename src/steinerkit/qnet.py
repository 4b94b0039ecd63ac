"""Graph Q-network: one forward pass, a decoder, explicit gradients.

The network scores "add vertex v to the partial tree" actions.
``forward`` encodes and processes: encoding mixes each vertex's
tree-membership and terminal bits with its nearest-terminal distance
features, and processing runs one neighborhood-difference aggregation
through a two-layer perceptron.  Its ``ForwardCache`` keeps each stage's
output.  ``q_values`` and ``grad`` then decode: a pooled graph summary and
the candidate vertex embedding combine into a scalar score.

Everything is plain numpy with a hand-written backward pass.  Batches are
tiny (16) and graphs small (tens to hundreds of vertices), so dense
matrices beat any framework overhead here, and exact reproducibility is
trivial to guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

CHECKPOINT_FORMAT = "qnet-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class QNetParams:
    """All trainable tensors.  P is the embedding width, K the feature width."""

    theta1: np.ndarray  # (P, 2) encoder weights for [in-tree, is-terminal]
    theta2: np.ndarray  # (P, K) encoder weights for distance features
    w1: np.ndarray      # (P, 2P) processor layer 1
    b1: np.ndarray      # (P,)
    w2: np.ndarray      # (P, P) processor layer 2
    b2: np.ndarray      # (P,)
    theta3: np.ndarray  # (2P,) decoder readout
    theta4: np.ndarray  # (P, P) decoder pooled-summary mix
    theta5: np.ndarray  # (P, P) decoder candidate mix

    @property
    def p_dim(self) -> int:
        return self.theta1.shape[0]

    @property
    def k(self) -> int:
        return self.theta2.shape[1]

    def copy(self) -> "QNetParams":
        return QNetParams(**{f.name: getattr(self, f.name).copy() for f in fields(self)})

    def as_dict(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _param_table(p: int, k: int) -> dict[str, tuple[tuple[int, ...], int]]:
    """Shape and init fan-in of every tensor for embedding width p and
    feature width k, in ``QNetParams`` field order, which is the init draw
    order."""
    return {"theta1": ((p, 2), 2), "theta2": ((p, k), k), "w1": ((p, 2 * p), 2 * p),
            "b1": ((p,), 2 * p), "w2": ((p, p), p), "b2": ((p,), p),
            "theta3": ((2 * p,), 2 * p), "theta4": ((p, p), p), "theta5": ((p, p), p)}


def init_params(p_dim: int, k: int, seed: int) -> QNetParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, fixed tensor order."""
    if p_dim < 1 or k < 1:
        raise ValueError("p_dim and k must be positive")
    rng = np.random.default_rng(np.random.PCG64(seed))
    arrays = {}
    for name, (shape, fan_in) in _param_table(p_dim, k).items():
        s = 1.0 / np.sqrt(fan_in)
        arrays[name] = rng.uniform(-s, s, size=shape)
    return QNetParams(**arrays)


@dataclass(frozen=True)
class NetInput:
    """Per-state network input: features, state bits, and graph structure."""

    x: np.ndarray         # (n, K) normalized nearest-terminal distances
    s_bits: np.ndarray    # (n,) 1.0 when the vertex is in the partial tree
    t_bits: np.ndarray    # (n,) 1.0 when the vertex is a terminal
    adjacency: np.ndarray  # (n, n) dense 0/1, symmetric
    degrees: np.ndarray   # (n,) row sums of adjacency


def _relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def _state_bits(s_bits, t_bits) -> np.ndarray:
    """(n, 2) encoder input columns [in-tree, is-terminal]."""
    st = np.empty((len(s_bits), 2))
    st[:, 0] = s_bits
    st[:, 1] = t_bits
    return st


def _decode(params: QNetParams, pooled, mu_c):
    """Decoder pre-activation, activation and value for candidate rows.

    ``mu_c`` is one processed embedding (P,) or a stack of them (m, P).
    Arrays here are tiny, so filling ``qpre`` in place beats the call
    overhead of broadcast_to/concatenate; the values are the same.
    """
    g4 = params.theta4 @ pooled
    v5 = mu_c @ params.theta5.T
    p = g4.shape[0]
    qpre = np.empty(v5.shape[:-1] + (2 * p,))
    qpre[..., :p] = g4
    qpre[..., p:] = v5
    qr = _relu(qpre)
    return qpre, qr, qr @ params.theta3


@dataclass
class ForwardCache:
    """Post-activation arrays of one forward pass.

    relu(a) > 0 exactly where a > 0, so backward masks on these directly.
    """

    mu: np.ndarray
    z: np.ndarray
    h: np.ndarray
    mu_p: np.ndarray
    pooled: np.ndarray


def forward(params: QNetParams, inp: NetInput) -> ForwardCache:
    """Encoder, then one processor round; the cache keeps each activation.

    ``mu`` embeds each vertex from its state bits and distance features;
    ``mu_p`` is rectified [mu, neighborhood difference] through the MLP.
    """
    mu = _relu(_state_bits(inp.s_bits, inp.t_bits) @ params.theta1.T
               + np.asarray(inp.x, dtype=float) @ params.theta2.T)
    agg = inp.degrees[:, None] * mu - inp.adjacency @ mu
    z = _relu(np.concatenate([mu, agg], axis=1))
    h = _relu(z @ params.w1.T + params.b1)
    mu_p = _relu(h @ params.w2.T + params.b2)
    return ForwardCache(mu=mu, z=z, h=h, mu_p=mu_p, pooled=mu_p.sum(axis=0))


def q_values(params: QNetParams, inp: NetInput) -> np.ndarray:
    """Action values for every vertex at once (callers mask to the frontier)."""
    cache = forward(params, inp)
    return _decode(params, cache.pooled, cache.mu_p)[2]


def grad(params: QNetParams, inp: NetInput, v: int, target: float):
    """Squared-error loss (target - Q)^2 and its gradient for one sample.

    Backward mirrors ``forward`` exactly; relu passes gradient only where
    the pre-activation was strictly positive.  The pooled decoder summary
    sends its gradient to every vertex row, the candidate arm only to v.
    """
    c = forward(params, inp)
    if not np.all(np.isfinite(c.mu)):
        raise FloatingPointError("non-finite values after the encoder")
    if not np.all(np.isfinite(c.mu_p)):
        raise FloatingPointError("non-finite values after the processor")
    p = params.p_dim
    qpre, qr, q = _decode(params, c.pooled, c.mu_p[v])
    q = float(q)
    if not np.isfinite(q) or not np.isfinite(target):
        raise FloatingPointError("non-finite value in the decoder output")
    diff = q - target
    loss = diff * diff

    dq = 2.0 * diff
    g = {}
    g["theta3"] = dq * qr
    dqpre = dq * params.theta3 * (qpre > 0)
    d_g4, d_v5 = dqpre[:p], dqpre[p:]
    g["theta4"] = d_g4[:, None] * c.pooled
    g["theta5"] = d_v5[:, None] * c.mu_p[v]

    dmu_p = np.empty_like(c.mu_p)
    dmu_p[:] = params.theta4.T @ d_g4
    dmu_p[v] += params.theta5.T @ d_v5

    dpre2 = dmu_p * (c.mu_p > 0)
    g["w2"] = dpre2.T @ c.h
    g["b2"] = dpre2.sum(axis=0)
    dh = dpre2 @ params.w2
    dpre1 = dh * (c.h > 0)
    g["w1"] = dpre1.T @ c.z
    g["b1"] = dpre1.sum(axis=0)
    dz = dpre1 @ params.w1
    dzpre = dz * (c.z > 0)
    dz_mu, dz_agg = dzpre[:, :p], dzpre[:, p:]
    dmu = dz_mu + inp.degrees[:, None] * dz_agg - inp.adjacency @ dz_agg
    dpre0 = dmu * (c.mu > 0)
    g["theta1"] = dpre0.T @ _state_bits(inp.s_bits, inp.t_bits)
    g["theta2"] = dpre0.T @ inp.x
    return loss, g


def zero_like(params: QNetParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.as_dict().items()}


def add_grads(acc: dict[str, np.ndarray], g: dict[str, np.ndarray]) -> None:
    for name in acc:
        acc[name] += g[name]


def sgd_step(params: QNetParams, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place vanilla SGD update."""
    for name, arr in params.as_dict().items():
        arr -= lr * grads[name]


def save_checkpoint(params: QNetParams, path, meta: dict | None = None) -> None:
    """JSON checkpoint; float repr round-trips exactly, so reloads are bitwise."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "p_dim": params.p_dim,
        "k": params.k,
        "meta": meta or {},
        "params": {name: arr.tolist() for name, arr in params.as_dict().items()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> tuple[QNetParams, dict]:
    """Read a checkpoint; every tensor must be present, a nesting of JSON
    numbers (no booleans), finite and shaped as the ``p_dim``/``k`` header
    says, else ValueError names the tensor.  Any other JSON shape is a
    ValueError too."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    p, k = payload.get("p_dim"), payload.get("k")
    # type(...) is int: JSON true/false are bools, which isinstance takes for ints
    if not all(type(v) is int and v >= 1 for v in (p, k)):
        raise ValueError(f"checkpoint header needs positive integers p_dim and k, "
                         f"got {p!r} and {k!r}")
    raw, meta = payload.get("params", {}), payload.get("meta", {})
    for field, value in (("params", raw), ("meta", meta)):
        if not isinstance(value, dict):
            raise ValueError(f"checkpoint {field} must be an object, "
                             f"got {type(value).__name__}")
    arrays = {}
    for name, (shape, _) in _param_table(p, k).items():
        if name not in raw:
            raise ValueError(f"checkpoint is missing tensor {name}")
        # as objects, a ragged nesting keeps lists as leaves and JSON
        # true/false stay bools, so the leaf types alone decide
        leaves = np.asarray(raw[name], dtype=object)
        if not all(type(v) in (int, float) for v in leaves.flat):
            raise ValueError(f"checkpoint tensor {name} is not an array of numbers")
        if leaves.shape != shape:
            raise ValueError(f"checkpoint header (p_dim={p}, k={k}) disagrees with "
                             f"tensor {name}: shape {leaves.shape}, expected {shape}")
        try:  # an integer past the float range overflows
            arr = leaves.astype(float)
            finite = bool(np.all(np.isfinite(arr)))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"checkpoint tensor {name} holds non-finite values")
        arrays[name] = arr
    return QNetParams(**arrays), meta
