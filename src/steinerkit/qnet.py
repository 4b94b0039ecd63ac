"""Graph Q-network: one forward pass, a decoder, explicit gradients.

The network scores "add vertex v to the partial tree" actions.
``forward`` encodes and processes a sequence of inputs stacked row-wise:
encoding mixes each vertex's tree-membership and terminal bits with its
nearest-terminal distance features, and processing runs one
neighborhood-difference aggregation through a two-layer perceptron.  Its
``ForwardCache`` keeps each stage's output.  ``q_values`` and ``grad``
(one input) and ``stacked_q_values`` and ``stacked_grad`` (a replay
batch) then decode: a pooled graph summary and the candidate vertex
embedding combine into a scalar score.

Everything is plain numpy with a hand-written backward pass.  Graphs are
small (tens to hundreds of vertices), so one input's products are too
small to hide numpy's per-call overhead; a replay batch of 16 therefore
runs as one stack of rows, in buffers its learner reuses every step.
Only products whose rows do not depend on the row count run stacked:
both encoder products, the two processor layers, the candidate mix and
the back-products through them.  The adjacency products, pooled sums,
pooled mix, readout and one-row decode (GEMVs whose rows do depend on
it) and every weight gradient (a sum over one input's rows) run per
input, so each input gets the bytes of its own ``q_values`` and
``grad``, and results stay exactly reproducible.
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


def _buffer(workspace: dict | None, name: str, rows: int, cols: int) -> np.ndarray:
    """The leading ``rows`` of the workspace's ``name`` buffer, or a fresh
    array without a workspace.  A buffer is replaced only when a stack
    outgrows it, so it never holds more rows than the largest it served."""
    if workspace is None:
        return np.empty((rows, cols))
    buf = workspace.get(name)
    if buf is None or len(buf) < rows:
        buf = workspace[name] = np.empty((rows, cols))
    return buf[:rows]


def _stacked_matmul(a: np.ndarray, w: np.ndarray, blocks, out: np.ndarray) -> np.ndarray:
    """``a @ w`` into ``out`` as one product over every block's rows.

    A row of a product comes out the same whatever the row count, except
    where a block's own product would take another kernel: numpy hands a
    one-row or one-column product to GEMV, and OpenBLAS's small-matrix
    kernel for ``A @ B.T`` (M*N <= 1200, K >= 32) sums in another order.
    Such a block is redone alone, so every block's rows hold the bytes of
    its own product.
    """
    np.matmul(a, w, out=out)
    if len(blocks) > 1:
        k, n = w.shape
        for s, e in blocks:
            if e - s == 1 or n == 1 or (k >= 32 and (e - s) * n <= 1200):
                out[s:e] = a[s:e] @ w
    return out


def _decode(params: QNetParams, pooled, mu_v):
    """Decoder pre-activation, activation and value of one candidate row
    ``mu_v`` (P,).  Arrays here are tiny, so filling ``qpre`` in place
    beats the call overhead of concatenate; the values are the same."""
    p = params.p_dim
    qpre = np.empty(2 * p)
    qpre[:p] = params.theta4 @ pooled
    qpre[p:] = mu_v @ params.theta5.T
    qr = np.maximum(qpre, 0.0)
    return qpre, qr, qr @ params.theta3


@dataclass
class ForwardCache:
    """Post-activation arrays of one forward pass over stacked inputs.

    Input i owns rows ``blocks[i]`` of every array and ``pooled[i]``;
    ``st``, ``x`` and ``deg`` are the stacked encoder inputs.  relu(a) > 0
    exactly where a > 0, so backward masks on these directly.
    """

    mu: np.ndarray
    z: np.ndarray
    h: np.ndarray
    mu_p: np.ndarray
    pooled: list[np.ndarray]
    blocks: list[tuple[int, int]]
    st: np.ndarray
    x: np.ndarray
    deg: np.ndarray


def forward(params: QNetParams, inputs, workspace: dict | None = None) -> ForwardCache:
    """Encoder, then one processor round, over ``inputs`` stacked row-wise;
    one input is the one-block case.  The cache keeps each activation, in
    ``workspace``'s buffers when one is given.

    ``mu`` embeds each vertex from its state bits and distance features;
    ``mu_p`` is rectified [mu, neighborhood difference] through the MLP.
    Only products whose rows do not depend on the row count run stacked;
    the adjacency products and pooled sums run per input.
    """
    p, k = params.p_dim, params.k
    blocks, rows = [], 0
    for inp in inputs:
        blocks.append((rows, rows + len(inp.s_bits)))
        rows = blocks[-1][1]
    st = _buffer(workspace, "st", rows, 2)
    for inp, (a, b) in zip(inputs, blocks):
        st[a:b, 0] = inp.s_bits
        st[a:b, 1] = inp.t_bits
    if len(inputs) == 1:  # one input's own arrays are the stack
        x, deg = np.asarray(inputs[0].x, dtype=float), inputs[0].degrees[:, None]
    else:
        x, deg = _buffer(workspace, "x", rows, k), _buffer(workspace, "deg", rows, 1)
        for inp, (a, b) in zip(inputs, blocks):
            x[a:b] = inp.x
            deg[a:b, 0] = inp.degrees

    mu = _stacked_matmul(st, params.theta1.T, blocks, _buffer(workspace, "mu", rows, p))
    mu += _stacked_matmul(x, params.theta2.T, blocks, _buffer(workspace, "h", rows, p))
    np.maximum(mu, 0.0, out=mu)
    agg = np.multiply(deg, mu, out=_buffer(workspace, "h", rows, p))
    for inp, (a, b) in zip(inputs, blocks):
        agg[a:b] -= inp.adjacency @ mu[a:b]
    z = _buffer(workspace, "z", rows, 2 * p)
    z[:, :p] = mu
    z[:, p:] = agg
    np.maximum(z, 0.0, out=z)
    h = _stacked_matmul(z, params.w1.T, blocks, _buffer(workspace, "h", rows, p))
    h += params.b1
    np.maximum(h, 0.0, out=h)
    mu_p = _stacked_matmul(h, params.w2.T, blocks, _buffer(workspace, "mu_p", rows, p))
    mu_p += params.b2
    np.maximum(mu_p, 0.0, out=mu_p)
    return ForwardCache(mu=mu, z=z, h=h, mu_p=mu_p,
                        pooled=[mu_p[a:b].sum(axis=0) for a, b in blocks],
                        blocks=blocks, st=st, x=x, deg=deg)


def stacked_q_values(params: QNetParams, inputs, workspace: dict | None = None) -> list:
    """``q_values`` of each input, from one stacked forward.  The candidate
    mix runs stacked; the pooled mix and the readout, a GEMV whose rows
    depend on the row count, run per input.  Each vector owns its data."""
    c = forward(params, inputs, workspace)
    p, rows = params.p_dim, len(c.mu_p)
    # z and h are spent once mu_p exists, so their buffers take the decoder
    qr = _buffer(workspace, "z", rows, 2 * p)
    qr[:, p:] = _stacked_matmul(c.mu_p, params.theta5.T, c.blocks,
                                 _buffer(workspace, "h", rows, p))
    for (a, b), pooled in zip(c.blocks, c.pooled):
        qr[a:b, :p] = params.theta4 @ pooled
    np.maximum(qr, 0.0, out=qr)
    return [qr[a:b] @ params.theta3 for a, b in c.blocks]


def q_values(params: QNetParams, inp: NetInput) -> np.ndarray:
    """Action values for every vertex at once (callers mask to the frontier)."""
    return stacked_q_values(params, (inp,))[0]


def _accumulate(acc: dict[str, np.ndarray], name: str, g: np.ndarray) -> None:
    if name in acc:
        acc[name] += g
    else:
        acc[name] = g


def _backward(params: QNetParams, c: ForwardCache, inputs, actions, targets,
              acc: dict[str, np.ndarray], workspace: dict | None = None) -> float:
    """Sum of the squared-error losses (target - Q)^2 of the stacked samples;
    each sample's gradient is added into ``acc`` (a tensor absent from it is
    set to the first sample's), tensor by tensor in sample order.

    Backward mirrors ``forward`` exactly; relu passes gradient only where
    the pre-activation was strictly positive.  The pooled decoder summary
    sends its gradient to every vertex row, the candidate arm only to v.
    The back-products through w2 and w1 run stacked; the one-row decode,
    the adjacency products and every weight gradient, a sum over one
    sample's rows, run per sample.  The cache is spent: its rows are
    overwritten by their gradients.
    """
    if not np.all(np.isfinite(c.mu)):
        raise FloatingPointError("non-finite values after the encoder")
    if not np.all(np.isfinite(c.mu_p)):
        raise FloatingPointError("non-finite values after the processor")
    p, rows = params.p_dim, len(c.mu_p)
    total = 0.0
    dmu_p = _buffer(workspace, "d1", rows, p)
    for (a, b), pooled, v, target in zip(c.blocks, c.pooled, actions, targets):
        if not 0 <= v < b - a:
            raise IndexError(f"action {v} is not a vertex of a {b - a}-vertex input")
        qpre, qr, q = _decode(params, pooled, c.mu_p[a + v])
        q = float(q)
        if not np.isfinite(q) or not np.isfinite(target):
            raise FloatingPointError("non-finite value in the decoder output")
        diff = q - target
        total += diff * diff
        dq = 2.0 * diff
        _accumulate(acc, "theta3", dq * qr)
        dqpre = dq * params.theta3 * (qpre > 0)
        d_g4, d_v5 = dqpre[:p], dqpre[p:]
        _accumulate(acc, "theta4", d_g4[:, None] * pooled)
        _accumulate(acc, "theta5", d_v5[:, None] * c.mu_p[a + v])
        dmu_p[a:b] = params.theta4.T @ d_g4
        dmu_p[a + v] += params.theta5.T @ d_v5

    dpre2 = np.multiply(dmu_p, c.mu_p > 0, out=dmu_p)
    for a, b in c.blocks:
        _accumulate(acc, "w2", dpre2[a:b].T @ c.h[a:b])
        _accumulate(acc, "b2", dpre2[a:b].sum(axis=0))
    # once an activation is spent but for its mask, its buffer takes the
    # gradient of its pre-activation: h's takes dpre1, z's dzpre, dpre2's dmu
    h_on = c.h > 0
    dpre1 = _stacked_matmul(dpre2, params.w2, c.blocks, _buffer(workspace, "h", rows, p))
    np.multiply(dpre1, h_on, out=dpre1)
    for a, b in c.blocks:
        _accumulate(acc, "w1", dpre1[a:b].T @ c.z[a:b])
        _accumulate(acc, "b1", dpre1[a:b].sum(axis=0))
    z_on = c.z > 0
    dzpre = _stacked_matmul(dpre1, params.w1, c.blocks, _buffer(workspace, "z", rows, 2 * p))
    np.multiply(dzpre, z_on, out=dzpre)
    dz_mu, dz_agg = dzpre[:, :p], dzpre[:, p:]
    dmu = np.multiply(c.deg, dz_agg, out=_buffer(workspace, "d1", rows, p))
    dmu += dz_mu
    for inp, (a, b) in zip(inputs, c.blocks):
        dmu[a:b] -= inp.adjacency @ dz_agg[a:b]
    dpre0 = np.multiply(dmu, c.mu > 0, out=dmu)
    for a, b in c.blocks:
        _accumulate(acc, "theta1", dpre0[a:b].T @ c.st[a:b])
        _accumulate(acc, "theta2", dpre0[a:b].T @ c.x[a:b])
    return total


def grad(params: QNetParams, inp: NetInput, v: int, target: float):
    """Squared-error loss (target - Q)^2 and its gradient for one sample."""
    g: dict[str, np.ndarray] = {}
    loss = _backward(params, forward(params, (inp,)), (inp,), (v,), (target,), g)
    return loss, g


def stacked_grad(params: QNetParams, inputs, actions, targets,
                 workspace: dict | None = None):
    """Summed loss and gradient of the samples ``(inputs[i], actions[i],
    targets[i])``, from one stacked forward and backward.  Each tensor
    starts from zeros and adds the samples in order, so the bytes equal
    ``zero_like`` plus ``grad`` of each sample added in that order."""
    acc = zero_like(params)
    loss = _backward(params, forward(params, inputs, workspace), inputs, actions,
                     targets, acc, workspace)
    return loss, acc


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
