"""Problem instances, hardness metrics, and the simulation environment.

An instance is a pair of mean vectors (u_bar, v_bar) with entries in
[0, 1].  Pulling the pair (i, j) returns the product of two independent
Bernoulli draws, one per factor, so the expected-reward matrix is the
rank-one outer product u_bar v_bar^T.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int: an integer of any type but bool, at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return int(value)


@dataclass
class Rank1Instance:
    """Mean vectors of a rank-one Bernoulli reward model."""

    u_bar: np.ndarray
    v_bar: np.ndarray

    def __post_init__(self):
        try:
            self.u_bar = np.asarray(self.u_bar, dtype=np.float64)
            self.v_bar = np.asarray(self.v_bar, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"mean vectors must be numeric: {exc}") from exc
        for name, arr in (("u_bar", self.u_bar), ("v_bar", self.v_bar)):
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a nonempty 1-d array")
            if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"{name} entries must lie in [0, 1]")

    @property
    def K(self) -> int:
        return self.u_bar.size

    @property
    def L(self) -> int:
        return self.v_bar.size


@dataclass
class HardnessMetrics:
    """Gap structure and scale parameters of an instance.

    mu is the smaller of the two mean-vector averages, p_max the largest
    single entry, and gamma = max(mu, 1 - p_max).  Minimum gaps are taken
    over strictly positive gaps only and are +inf when every row (column)
    shares the best mean.
    """

    best_row: int
    best_col: int
    best_value: float
    row_gaps: np.ndarray = field(repr=False)
    col_gaps: np.ndarray = field(repr=False)
    min_row_gap: float
    min_col_gap: float
    mu: float
    p_max: float
    gamma: float


def needle_instance(
    K: int, L: int, p_u: float, p_v: float, delta_u: float, delta_v: float
) -> Rank1Instance:
    """One bumped row and column: u_bar = (p_u+delta_u, p_u, ..., p_u)."""
    K, L = _integer(K, "K", 1), _integer(L, "L", 1)
    for name, p, d in (("u", p_u, delta_u), ("v", p_v, delta_v)):
        if d <= 0.0:
            raise ValueError(f"delta_{name} must be positive, got {d!r}")
        if p < 0.0 or p + d > 1.0:
            raise ValueError(f"need 0 <= p_{name} and p_{name} + delta_{name} <= 1")
    u = np.full(K, p_u, dtype=np.float64)
    u[0] = p_u + delta_u
    v = np.full(L, p_v, dtype=np.float64)
    v[0] = p_v + delta_v
    return Rank1Instance(u_bar=u, v_bar=v)


def pbm_like_instance(K: int, L: int, head_mass: float, decay: float) -> Rank1Instance:
    """Geometric-decay means head_mass * decay^(i-1), clipped to [0, 1].

    Both vectors use the same scheme, giving a click-model-like profile
    with a few strong entries and a long weak tail.
    """
    K, L = _integer(K, "K", 1), _integer(L, "L", 1)
    if head_mass < 0.0:
        raise ValueError(f"head_mass must be >= 0, got {head_mass!r}")
    if not 0.0 <= decay <= 1.0:
        raise ValueError(f"decay must lie in [0, 1], got {decay!r}")
    u = np.clip(head_mass * decay ** np.arange(K, dtype=np.float64), 0.0, 1.0)
    v = np.clip(head_mass * decay ** np.arange(L, dtype=np.float64), 0.0, 1.0)
    return Rank1Instance(u_bar=u, v_bar=v)


def compute_metrics(inst: Rank1Instance) -> HardnessMetrics:
    """Hardness summary of an instance; pure, ties break to lowest index."""
    u, v = inst.u_bar, inst.v_bar
    best_row = int(np.argmax(u))
    best_col = int(np.argmax(v))
    row_gaps = u[best_row] - u
    col_gaps = v[best_col] - v
    pos_r = row_gaps[row_gaps > 0.0]
    pos_c = col_gaps[col_gaps > 0.0]
    mu = float(min(u.mean(), v.mean()))
    p_max = float(max(u[best_row], v[best_col]))
    return HardnessMetrics(
        best_row=best_row,
        best_col=best_col,
        best_value=float(u[best_row] * v[best_col]),
        row_gaps=row_gaps,
        col_gaps=col_gaps,
        min_row_gap=float(pos_r.min()) if pos_r.size else math.inf,
        min_col_gap=float(pos_c.min()) if pos_c.size else math.inf,
        mu=mu,
        p_max=p_max,
        gamma=float(max(mu, 1.0 - p_max)),
    )


# numpy's default bit generator, PCG64, is the 128-bit LCG s -> a*s + inc
# (mod 2**128) with the XSL-RR output; Generator.random returns that
# output >> 11, times 2**-53 (O'Neill, PCG, HMC-CS-2014-0905)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# from this K + L up, play computes the four uniforms a step reads by
# skip-ahead instead of drawing all K + L; below it drawing is cheaper
_JUMP_SPAN = 96
# steps per pass of the skip-ahead: about 30 passes over arrays of 4 * 1,024
# uint64 stay in cache, where arrays of a whole block do not
_PIECE = 1024


def _affine128(ah, al, ch, cl, xh, xl):
    """(A*x + C) mod 2**128 on uint64 limbs (hi, lo), elementwise; the low
    product's high word is assembled from 32-bit halves."""
    m32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    a0, a1, x0, x1 = al & m32, al >> s32, xl & m32, xl >> s32
    p01, p10 = a0 * x1, a1 * x0
    mid = (a0 * x0 >> s32) + (p01 & m32) + (p10 & m32)
    hi = a1 * x1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32) + ah * xl + al * xh
    lo = al * xl
    out = lo + cl
    hi += ch + (out < lo)
    return hi, out


def _split_jumps(A: int, C: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the map J: s -> A*s + C mod 2**128, the limbs (A hi, A lo, C hi,
    C lo) of J**r for r < b and of J**(q*b) for q <= n // b, b = isqrt(n) + 1,
    in the columns of two uint64 arrays; every t <= n is q*b + r, so J**t is
    J**r followed by J**(q*b)."""
    b = math.isqrt(n) + 1
    short = [(1, 0)]
    for _ in range(b):
        a, c = short[-1]
        short.append((A * a & _MASK128, (A * c + C) & _MASK128))
    A_b, C_b = short.pop()
    long = [(1, 0)]
    for _ in range(n // b):
        a, c = long[-1]
        long.append((A_b * a & _MASK128, (A_b * c + C_b) & _MASK128))
    return tuple(np.array([[v >> k & _MASK64 for v in vs] for vs in zip(*js) for k in (64, 0)], np.uint64)
                 for js in (short, long))


def _jump_tables(span: int, inc: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """For increment ``inc``: the jumps by o + 1 draws as limbs (A hi, A lo,
    C hi, C lo) in column o of a (4, span) array, and the split of the jump
    by span draws up to ``_PIECE``."""
    short, long = _split_jumps(_PCG64_MULT, inc, span)
    # the jump by q*b + r draws for every q and r: (A, C) of the short
    # jumps, times A and plus (0, C) of each long one
    zeros = np.zeros(long.shape[1], np.uint64)
    hi, lo = _affine128(long[0, :, None, None], long[1, :, None, None],
                        np.column_stack((zeros, long[2]))[:, :, None],
                        np.column_stack((zeros, long[3]))[:, :, None], short[0::2], short[1::2])
    table = np.stack((hi[:, 0], lo[:, 0], hi[:, 1], lo[:, 1])).reshape(4, -1)[:, 1:span + 1].copy()
    A, C = (int(table[k, -1]) << 64 | int(table[k + 1, -1]) for k in (0, 2))
    return table, _split_jumps(A, C, _PIECE)


class Environment:
    """Plays pairs of an instance and accumulates the regrets.

    Every step advances the stream of ``rng`` by exactly K + L uniforms
    in a fixed order (row coordinates first, then column coordinates),
    realizing the full Bernoulli vectors u_t and v_t; the reward of pair
    (i, j) is u_t[i] * v_t[j].  The stochastic regret compares the
    played pair against the best pair on the same draws; the pseudo
    regret compares expected values.  Step t reads four positions of the
    stream: t*(K+L) plus the played and the best row, and K plus the
    played and the best column, each compared with its mean.

    ``step`` plays one pair, reading a chunk of ``chunk_steps`` steps'
    uniforms through a memoryview; a chunk holds at most 32,768 uniforms
    unless one step needs more, and the chunked stream is identical to
    the per-step stream.  ``play`` scores a block of pairs in numpy,
    reading what is left of the chunk and then the steps after it: below
    K + L = ``_JUMP_SPAN`` from fresh chunks, and from there up by
    skip-ahead (Brown, "Random number generation with arbitrary strides",
    1994), which computes only the four uniforms each step reads.  Every
    jump, by an offset within a step or by whole steps, is a short jump
    followed by a long one from a split of about 2*sqrt(n) jumps; the
    generator's state is then set to where drawing would leave it.  So
    ``rng`` must be driven by a ``PCG64``.  The two can be interleaved
    freely.
    """

    def __init__(self, inst: Rank1Instance, rng: np.random.Generator):
        if not isinstance(getattr(rng, "bit_generator", None), np.random.PCG64):
            raise ValueError("rng must be a numpy Generator driven by PCG64")
        self.inst = inst
        self._rng = rng
        self._u = inst.u_bar.tolist()
        self._v = inst.v_bar.tolist()
        self._K = inst.K
        self._span = inst.K + inst.L
        m = compute_metrics(inst)
        self._best_row, self._best_col, self._best_value = m.best_row, m.best_col, m.best_value
        self.chunk_steps = max(1, 32768 // self._span)
        # the current chunk of uniforms and a memoryview of it; _pos is the
        # offset of its first unread uniform, a multiple of K + L
        self._chunk = np.empty(0)
        self._mv = memoryview(self._chunk)
        self._pos = 0
        # skip-ahead tables, built by the first play that jumps, for the
        # generator's increment _jump_inc: _offset_jumps[:, o] is the jump
        # by o + 1 draws and _piece_jumps the split of the jump by K + L
        # draws up to _PIECE
        self._jump_inc = None
        self._offset_jumps = None
        self._piece_jumps = None
        self.steps = 0
        self.cum_pseudo_regret = 0.0
        self.cum_stochastic_regret = 0.0

    def _draw(self) -> None:
        """Replace the chunk by the next ``chunk_steps`` steps' uniforms."""
        self._chunk = self._rng.random(self.chunk_steps * self._span)
        self._mv = memoryview(self._chunk)
        self._pos = 0

    def _jump(self, local: np.ndarray, z: np.ndarray) -> None:
        """Fill z[t] with the uniforms at offsets local[t] of the t-th
        K + L uniforms ahead of the generator, then advance it past them."""
        bg = self._rng.bit_generator
        state = bg.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        n = len(local)
        if inc != self._jump_inc:
            self._offset_jumps, self._piece_jumps = _jump_tables(self._span, inc)
            self._jump_inc = inc
        short, long = self._piece_jumps
        sh, sl = np.uint64(s >> 64), np.uint64(s & _MASK64)
        for a in range(0, n, _PIECE):
            b = min(n, a + _PIECE)
            # the state after t*(K+L) draws from the piece's start, for
            # t = q*b + r at row q, column r; then each step's four states,
            # XSL-RR, and Generator.random's float
            ph, pl = _affine128(*long[:, :(b - a) // short.shape[1] + 1], sh, sl)
            ph, pl = (x.ravel() for x in _affine128(*short, ph[:, None], pl[:, None]))
            hi, lo = _affine128(*(t.take(local[a:b]) for t in self._offset_jumps),
                                ph[:b - a, None], pl[:b - a, None])
            v, rot = hi ^ lo, hi >> np.uint64(58)
            out = (v >> rot) | (v << ((np.uint64(64) - rot) & np.uint64(63)))
            np.multiply(out >> np.uint64(11), 2.0**-53, out=z[a:b])
            sh, sl = ph[b - a], pl[b - a]
        # the state dict read on entry keeps any buffered 32-bit half
        state["state"]["state"] = int(sh) << 64 | int(sl)
        bg.state = state

    def step(self, i: int, j: int) -> int:
        K = self._K
        if type(i) is not int or type(j) is not int:
            # checked before a chunk is drawn: a float would fail only at the
            # lookups, after the draw, a bool would play index 0 or 1, and
            # a narrow numpy integer would overflow in the offsets below
            i, j = _integer(i, "row index"), _integer(j, "column index")
        if i < 0 or i >= K:
            raise IndexError(f"row index {i} outside [0, {K})")
        if j < 0 or j >= self._span - K:
            raise IndexError(f"column index {j} outside [0, {self._span - K})")
        pos = self._pos
        if pos == len(self._mv):
            self._draw()
            pos = 0
        z, u, v = self._mv, self._u, self._v
        reward = 1 if (z[pos + i] < u[i] and z[pos + K + j] < v[j]) else 0
        br, bc = self._best_row, self._best_col
        if z[pos + br] < u[br] and z[pos + K + bc] < v[bc]:
            self.cum_stochastic_regret += 1 - reward
        else:
            self.cum_stochastic_regret -= reward
        self.cum_pseudo_regret += self._best_value - u[i] * v[j]
        self._pos = pos + self._span
        self.steps += 1
        return reward

    def play(self, rows, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Play the pairs (rows[t], cols[t]) in order, one step each; the
        indices must have an integer dtype.

        Returns the rewards (int8) and the cumulative pseudo-regret and
        stochastic regret after each step of the block.  Step t reads the
        t-th K+L uniforms after those already read, rows first, exactly as
        ``step`` would, and the regrets are summed in the same order, so
        the results are bit-identical to m calls of ``step``.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        K, span = self._K, self._span
        m = rows.size
        if rows.shape != (m,) or cols.shape != (m,):
            raise ValueError("rows and cols must be 1-d arrays of one length")
        if m == 0:
            return np.zeros(0, np.int8), np.zeros(0), np.zeros(0)
        # a cast would truncate 1.9 to row 1, where step rejects it
        if not (np.issubdtype(rows.dtype, np.integer) and np.issubdtype(cols.dtype, np.integer)):
            raise ValueError(f"indices must be integers, got {rows.dtype} and {cols.dtype}")
        rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
        if rows.min() < 0 or rows.max() >= K:
            raise IndexError(f"row index outside [0, {K})")
        if cols.min() < 0 or cols.max() >= span - K:
            raise IndexError(f"column index outside [0, {span - K})")
        # the four uniforms step t reads (its row, its column, the best row
        # and the best column), as offsets into its K + L; they are read
        # from the current chunk while it lasts, then from fresh chunks or,
        # from _JUMP_SPAN up, by skip-ahead
        br, bc = self._best_row, self._best_col
        local = np.column_stack((rows, cols + K, np.full(m, br), np.full(m, K + bc)))
        z = np.empty((m, 4))
        a = 0
        while a < m:
            if self._pos == len(self._chunk):
                if span >= _JUMP_SPAN:
                    self._jump(local[a:], z[a:])
                    break
                self._draw()
            b = min(m, a + (len(self._chunk) - self._pos) // span)
            starts = self._pos + span * np.arange(b - a)
            self._chunk.take(local[a:b] + starts[:, None], out=z[a:b])
            self._pos += (b - a) * span
            a = b
        u, v = self.inst.u_bar[rows], self.inst.v_bar[cols]
        hit = (z[:, 0] < u) & (z[:, 1] < v)
        best = (z[:, 2] < self._u[br]) & (z[:, 3] < self._v[bc])
        rewards = hit.view(np.int8)
        stoch = self.cum_stochastic_regret + np.cumsum(best.view(np.int8) - rewards, dtype=np.int64)
        gaps = np.empty(m + 1)
        gaps[0] = self.cum_pseudo_regret
        np.subtract(self._best_value, u * v, out=gaps[1:])
        # a sequential left fold: the same additions, in the same order, as step
        pseudo = np.add.accumulate(gaps)[1:]
        self.cum_pseudo_regret = float(pseudo[-1])
        self.cum_stochastic_regret = float(stoch[-1])
        self.steps += m
        return rewards, pseudo, stoch


@contextmanager
def _open_replacing(path):
    """A text file beside ``path`` that replaces it once the block ends;
    if the block raises, the file is removed and ``path`` left as it was."""
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_instance(inst: Rank1Instance, path) -> None:
    """Write an instance as a JSON object {"u": [...], "v": [...]}, replacing
    the file in one step."""
    payload = {"u": [float(x) for x in inst.u_bar], "v": [float(x) for x in inst.v_bar]}
    with _open_replacing(path) as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_instance(path) -> Rank1Instance:
    """Read an instance written by ``save_instance``.

    Distinguishes the failure modes: a missing file raises
    FileNotFoundError, malformed JSON raises ValueError mentioning JSON,
    and structural problems (missing keys, empty arrays, entries that are
    not JSON numbers or lie outside [0, 1]) raise ValueError describing
    the field.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object with arrays \"u\" and \"v\"")
    for key in ("u", "v"):
        if key not in obj:
            raise ValueError(f'{path}: missing "{key}" array')
        if not isinstance(obj[key], list) or len(obj[key]) == 0:
            raise ValueError(f'{path}: "{key}" must be a nonempty array')
        bad = [x for x in obj[key] if type(x) not in (int, float)]
        if bad:
            raise ValueError(f'{path}: "{key}" entries must be numbers, got {bad[0]!r}')
    return Rank1Instance(u_bar=obj["u"], v_bar=obj["v"])


_NEEDLE_KEYS = {"K", "L", "p", "gap", "p_u", "p_v", "delta_u", "delta_v"}
_PBM_KEYS = {"K", "L", "head_mass", "decay"}


def _parse_kv(body: str, allowed: set[str], kind: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"bad {kind} spec field {part!r}, expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"unknown {kind} spec key {key!r} (allowed: {sorted(allowed)})")
        if key in out:
            raise ValueError(f"{kind} spec repeats key {key!r}")
        out[key] = value.strip()
    return out


def _need(kv: dict[str, str], key: str, kind: str, cast: type):
    label, what = ("int", "an integer") if cast is int else ("number", "a number")
    if key not in kv:
        raise ValueError(f"{kind} spec requires {key}=<{label}>")
    try:
        return cast(kv[key])
    except ValueError as exc:
        raise ValueError(f"{kind} spec: {key} must be {what}, got {kv[key]!r}") from exc


def parse_instance_spec(spec: str) -> Rank1Instance:
    """Build an instance from an inline generator spec or a file path.

    Formats: ``needle:K=8,L=8,p=0.25,gap=0.5`` (p/gap may be split into
    p_u/p_v and delta_u/delta_v, which override them for their side),
    ``pbm-like:K=16,L=16,head_mass=0.85,decay=0.6``, or anything else is
    treated as a path to an instance file.  A key may appear only once.
    """
    if spec.startswith("needle:"):
        kv = _parse_kv(spec[len("needle:"):], _NEEDLE_KEYS, "needle")
        if "p" in kv:
            kv.setdefault("p_u", kv["p"])
            kv.setdefault("p_v", kv["p"])
        if "gap" in kv:
            kv.setdefault("delta_u", kv["gap"])
            kv.setdefault("delta_v", kv["gap"])
        return needle_instance(
            _need(kv, "K", "needle", int),
            _need(kv, "L", "needle", int),
            _need(kv, "p_u", "needle", float),
            _need(kv, "p_v", "needle", float),
            _need(kv, "delta_u", "needle", float),
            _need(kv, "delta_v", "needle", float),
        )
    if spec.startswith("pbm-like:"):
        kv = _parse_kv(spec[len("pbm-like:"):], _PBM_KEYS, "pbm-like")
        return pbm_like_instance(
            _need(kv, "K", "pbm-like", int),
            _need(kv, "L", "pbm-like", int),
            _need(kv, "head_mass", "pbm-like", float),
            _need(kv, "decay", "pbm-like", float),
        )
    return load_instance(spec)
