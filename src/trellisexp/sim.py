"""Trellis-code ensemble simulator.

Samples time-varying trellis codes (general i.i.d.-Q labels or the linear
GF(2) subclass), encodes with zero-tail termination, transmits through a
DMC or a one-step-memory channel, Viterbi-decodes with a per-symbol log
metric, estimates the per-node first-error-event probability, enumerates
incorrect-path joint types, and audits the typicality conditions.

Everything is a deterministic function of (config, seed): randomness comes
from counter-based Philox streams keyed by (seed, code index, purpose).
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import PROB_ATOL, Dmc, _check_nonnegative, _input_dist, _metric
from .memory import MarkovChannel, memoryless_lift

ENUM_BUDGET = 10_000_000
DECODE_BATCH = 256  # blocks per viterbi_decode call in estimate_error_exponent
UNION_TAIL_TERMS = 10_000  # most terms of the union-bound series summed
_TUPLE_CELLS = 16  # most output tuples Y^g read by one branch-table lookup
_CHUNK_BYTES = 1 << 20  # branch metrics gathered at once by viterbi_decode


class LengthMismatch(ValueError):
    pass


class EnumerationBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class EnsembleConfig:
    """Trellis ensemble parameters; m, n, k, L and seed must be integers,
    and seed nonnegative (ValueError otherwise)."""

    m: int          # input bits per branch
    n: int          # channel symbols per branch
    k: int          # memory in branches; constraint length K = m*k
    L: int = None   # block length in branches (default 100*k)
    linear: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.L is None:
            object.__setattr__(self, "L", 100 * self.k)
        for name in ("m", "n", "k", "L", "seed"):  # k first: it sets L's default
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        _check_nonnegative("seed", self.seed)  # the key of every Philox stream
        if min(self.m, self.n, self.k) < 1:
            raise ValueError("m, n, k must all be >= 1")
        if self.L < 1:
            raise ValueError("L must be >= 1")

    @property
    def constraint_length(self):
        return self.m * self.k

    @property
    def rate_nats(self):
        return self.m / self.n * math.log(2.0)

    @property
    def num_states(self):
        return 1 << (self.m * (self.k - 1))

    @property
    def num_branches(self):
        return self.L + self.k - 1  # includes the k-1 zero-tail branches


@dataclass(frozen=True)
class TrellisCode:
    """Sampled ensemble member: full branch-label table.

    labels[t, window] is the n-symbol branch output at time t.  The K-bit
    window of branch t packs the input blocks (u_t, u_{t-1}, ..., u_{t-k+1})
    with u_t in the top m bits: window = (u_t << m(k-1)) | state, where the
    state, the low m(k-1) bits (window & (num_states - 1)), holds the k-1
    previous blocks, and the next state is window >> m.  Two paths agree at
    a node iff their states there are equal, so an incorrect path has left
    the correct one where the window of the input difference is nonzero and
    its state bits are zero.  Linear codes also carry their generator
    matrices and offsets.
    """

    cfg: EnsembleConfig
    j: int
    labels: np.ndarray                 # (T, 2^K, n) symbol indices
    generators: np.ndarray = None      # (T, k, m, n) bits, linear only
    offsets: np.ndarray = None         # (T, n) bits, linear only


def _rng(seed, *stream):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed),
                                                counter=list(stream) + [0] * (4 - len(stream))))


def _digits(values, width, count):
    """Base-2^width digits of integer `values`, most significant first:
    shape values.shape + (count,)."""
    shifts = width * np.arange(count - 1, -1, -1)
    return (np.asarray(values)[..., None] >> shifts) & ((1 << width) - 1)


def sample_code(cfg: EnsembleConfig, j: int = 2, q=None, code_index: int = 0) -> TrellisCode:
    """Draw one code. General codes: labels i.i.d. Q^n per (t, window) cell,
    with q None for uniform labels or one probability per code symbol.
    Linear codes: equiprobable generator matrices and offsets over GF(2),
    whose labels are uniform, so q must be None or uniform to within
    PROB_ATOL (ValueError otherwise)."""
    p = None if q is None else _input_dist(q, j, "code symbol").q
    rng = _rng(cfg.seed, code_index)
    t_total = cfg.num_branches
    cells = 1 << cfg.constraint_length
    if cfg.linear:
        if j != 2:
            raise ValueError("linear codes require a binary channel alphabet")
        if p is not None and np.any(np.abs(p - 0.5) > PROB_ATOL):
            raise ValueError(f"linear codes draw uniform labels; q must be uniform, "
                             f"got {p.tolist()}")
        gens = rng.integers(0, 2, size=(t_total, cfg.k, cfg.m, cfg.n), dtype=np.int8)
        offs = rng.integers(0, 2, size=(t_total, cfg.n), dtype=np.int8)
        # bit i of a window, most significant first, meets row i of the
        # (current..oldest) generators
        win_bits = _digits(np.arange(cells), 1, cfg.constraint_length)
        gflat = gens.reshape(t_total, cfg.constraint_length, cfg.n)
        labels = (np.einsum("wb,tbn->twn", win_bits, gflat) + offs[:, None, :]) % 2
        return TrellisCode(cfg, j, labels.astype(np.int8), gens, offs)
    labels = rng.choice(j, size=(t_total, cells, cfg.n), p=p).astype(np.int8)
    return TrellisCode(cfg, j, labels)


def _batch(values, width, what):
    """`values` as a (B, width) array, and whether they were one sequence
    (shape (width,)) rather than a batch (shape (B, width))."""
    a = np.asarray(values)
    if a.ndim not in (1, 2) or a.shape[-1] != width:
        raise LengthMismatch(f"expected {width} {what} or a (B, {width}) batch, "
                             f"got shape {a.shape}")
    return a.reshape(-1, width), a.ndim == 1


def _info_to_blocks(bits, m, length):
    """Block integers (B, length) from checked info bits (B, m*length)."""
    weights = 1 << np.arange(m - 1, -1, -1)
    return (bits.reshape(len(bits), length, m) * weights).sum(axis=2)


def _block_windows(blocks, cfg):
    """Window integers per branch for block integers (B, T) with zero history:
    block t-i sits at bit offset m(k-1-i) of window t."""
    b, t_total = blocks.shape
    wins = np.zeros((b, t_total), dtype=np.int64)
    for i in range(min(cfg.k, t_total)):
        wins[:, i:] |= blocks[:, :t_total - i].astype(np.int64) << (cfg.m * (cfg.k - 1 - i))
    return wins


def encode(code: TrellisCode, info_bits) -> np.ndarray:
    """Encode m*L info bits, or a (B, m*L) batch, into n*(L+k-1) channel
    symbols per message (zero-tail).  Bits outside {0, 1} raise ValueError."""
    cfg = code.cfg
    bits, single = _batch(info_bits, cfg.m * cfg.L, "info bits")
    _check_symbols(bits, 2, "info bits", "binary alphabet")
    blocks = _info_to_blocks(bits, cfg.m, cfg.L)
    tail = np.zeros((blocks.shape[0], cfg.k - 1), dtype=np.int64)
    blocks = np.concatenate([blocks, tail], axis=1)
    rows = _block_windows(blocks, cfg)  # row t 2^K + window of the flat labels
    rows += np.arange(cfg.num_branches) << cfg.constraint_length
    flat = code.labels.reshape(-1, cfg.n)
    # one gather per symbol column: a gather of n-symbol rows is slower
    symbols = np.empty(rows.shape + (cfg.n,), dtype=flat.dtype)  # (B, T, n)
    for i in range(cfg.n):
        symbols[..., i] = np.take(flat[:, i], rows)
    out = symbols.reshape(blocks.shape[0], -1)
    return out[0] if single else out


def _check_symbols(symbols, size, what, alphabet):
    """ValueError unless every entry of the integer array `symbols` lies in
    [0, size): numpy would read a negative symbol from the end of a table."""
    if not np.issubdtype(symbols.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {symbols.dtype}")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= size):
        raise ValueError(f"{what} must lie in [0, {size}), the {alphabet} of size "
                         f"{size}; got values in [{symbols.min()}, {symbols.max()}]")


def transmit(channel, symbols, rng) -> np.ndarray:
    """Draw channel outputs for a symbol sequence or a batch (B, N) of them.

    Every channel is drawn in one form, W(y | x, x_prev): a Dmc is run as
    its `memoryless_lift`.  Each row of a batch is its own sequence, with
    x_prev = 0 before its first symbol.  Symbols outside [0, J) raise
    ValueError.

    One uniform u per symbol picks the output: y is the number of
    cumulative sums W(0 | .) + ... + W(c | .), c < Y - 1, that u exceeds,
    counted one threshold column at a time over the flat (x, x_prev) cell
    x J + x_prev.  The last cumulative sum is never compared, since u < 1
    never passes it, so y = Y - 1 is reached even where rounding leaves
    that sum below 1.
    """
    if isinstance(channel, Dmc):
        channel = memoryless_lift(channel)
    elif not isinstance(channel, MarkovChannel):
        raise TypeError(f"unsupported channel type {type(channel).__name__}")
    j, _, y_count = channel.w.shape
    x = np.asarray(symbols)
    _check_symbols(x, j, "channel input symbols", "channel's input alphabet")
    cell = x.astype(np.intp) * j
    cell[..., 1:] += x[..., :-1]
    thresholds = np.cumsum(channel.w, axis=2).reshape(j * j, y_count)
    u = rng.random(x.size).reshape(x.shape)
    y = np.zeros(x.shape, dtype=np.intp)
    for c in range(y_count - 1):
        y += u > thresholds[:, c][cell]
    return y


def _log_metric(metric) -> np.ndarray:
    """Per-symbol log metric table ln W~(y|x) from a Dmc or raw matrix."""
    if isinstance(metric, Dmc):
        w = metric.w
    elif isinstance(metric, MarkovChannel):
        raise TypeError("the decoding metric must be a Dmc or a (J, Y) matrix; "
                        "a MarkovChannel needs memory-aware decoding, which "
                        "viterbi_decode does not do")
    else:
        w = _metric(metric, "decoding metric")
    with np.errstate(divide="ignore"):
        return np.log(w)


def _branch_tables(code: TrellisCode, logw, ys):
    """Flat branch-metric tables and their row indexes for outputs ys (B, T, n).

    The first g output symbols of a branch form one tuple, g the largest
    size with Y^g <= _TUPLE_CELLS; each further symbol is a tuple of its
    own.  A tuple of h symbols y_a .. y_{a+h-1} has the table (T * Y^h, 2^K)
    whose row t Y^h + c, c = y_a Y^{h-1} + ... + y_{a+h-1}, holds
    sum_i ln W~(y_i | labels[t, w, i]) over the tuple, summed left to
    right, and the (T, B) intp index of the row that each branch reads.
    Only the first tuple is joint: a later one's own sum would round
    differently from the running sum that the decoder adds it to.
    """
    cfg, y_count = code.cfg, logw.shape[1]
    t_total, w_count = cfg.num_branches, 1 << cfg.constraint_length
    g = 1
    while g < cfg.n and y_count ** (g + 1) <= _TUPLE_CELLS:
        g += 1
    tables, rows = [], []
    for first, last in [(0, g)] + [(i, i + 1) for i in range(g, cfg.n)]:
        cells = y_count ** (last - first)
        table = np.empty((t_total, cells, w_count))
        # intp labels: numpy would convert int8 ones on every gather
        labels = [code.labels[..., i].astype(np.intp) for i in range(first, last)]
        for c, outs in enumerate(itertools.product(range(y_count), repeat=last - first)):
            col = logw[:, outs[0]][labels[0]]  # (T, 2^K)
            for y, lab in zip(outs[1:], labels[1:]):
                col += logw[:, y][lab]
            table[:, c] = col
        row = np.zeros((t_total, len(ys)), dtype=np.intp)
        for i in range(first, last):
            row *= y_count
            row += ys[:, :, i].T
        row += np.arange(0, t_total * cells, cells)[:, None]
        tables.append(table.reshape(-1, w_count))
        rows.append(row)
    return tables, rows


def _forward(code: TrellisCode, logw, ys) -> np.ndarray:
    """Add-compare-select over every branch of outputs ys (B, T, n); returns
    choice (T, B, S), the `low` of each state's surviving window."""
    cfg = code.cfg
    b, t_total = ys.shape[:2]
    s_count, u_count = cfg.num_states, 1 << cfg.m
    w_count = s_count * u_count
    tables, rows = _branch_tables(code, logw, ys)
    span_len = min(t_total, max(1, _CHUNK_BYTES // (8 * max(b, 1) * w_count)))
    chunk = np.empty((span_len, b, w_count))
    cands = chunk.reshape(span_len, b, u_count, s_count)  # the add step's view
    pairs = chunk.reshape(span_len, b, s_count, u_count)  # [s', low] of window (s' << m) | low
    alpha = np.full((b, s_count), -1e30)
    alpha[:, 0] = 0.0  # encoder starts in the all-zero state
    preds = alpha[:, None, :]  # the predecessor state of window w is w & (S - 1)
    choice = np.empty((t_total, b, s_count), dtype=np.min_scalar_type(u_count - 1))
    for t0 in range(0, t_total, len(chunk)):
        bms = chunk[:t_total - t0]
        span = slice(t0, t0 + len(bms))
        # rows are in range; mode="raise" would gather into a copy of `out`
        np.take(tables[0], rows[0][span], axis=0, out=bms, mode="clip")
        for table, row in zip(tables[1:], rows[1:]):
            bms += table[row[span]]
        for i in range(len(bms)):
            cands[i] += preds
            vals = pairs[i]
            # tournament over the bits of `low`; the strict > keeps ties left
            for level in range(cfg.m - 1):
                left, right = vals[..., 0::2], vals[..., 1::2]
                take = right > left
                vals = np.maximum(left, right)
                low = np.where(take, low[..., 1::2] + (1 << level),
                               low[..., 0::2]) if level else take
            left, right = vals[..., 0], vals[..., 1]
            if cfg.m == 1:
                np.greater(right, left, out=choice[t0 + i])
            else:
                choice[t0 + i] = np.where(right > left, low[..., 1] + (u_count >> 1), low[..., 0])
            np.maximum(left, right, out=alpha)
    return choice


def viterbi_decode(code: TrellisCode, metric, outputs) -> np.ndarray:
    """Maximum-metric path with zero terminal state; returns m*L info bits.

    `metric` is a Dmc (use its W as the decoding metric) or a (J, Y) matrix
    with J = code.j.  Accepts a single output sequence or a batch
    (B, n*(L+k-1)) of symbols in [0, Y); anything else raises ValueError.

    States and windows are laid out as in `TrellisCode`.
    For k >= 2 the 2^m predecessors of state s' are
    ((s' & low_mask) << m) | low, low < 2^m, with low_mask = 2^{m(k-2)} - 1;
    the branch from each carries input s' >> m(k-2) and window
    (s' << m) | low.  So the windows of s' are contiguous, and the
    predecessor of window w is w & (S - 1): the add step adds the path
    metrics to the branch metrics, viewed as (B, 2^m, S), in place, and
    views the sums as (B, S, 2^m) candidates.  For k = 1 the one state is
    its own predecessor and the choice is the input.

    Branch metrics come from one table per output tuple (`_branch_tables`):
    the first g symbols of a branch are read together, g the largest size
    with Y^g <= 16 (`_TUPLE_CELLS`), so every branch with Y^n <= 16
    (n <= 4 at Y = 2, n <= 2 at Y = 3) is one lookup, and each further
    symbol is added from its own table.  At k = 8, L = 200, n = Y = 2 the table holds T*Y^n*2^K =
    207*4*256 float64s (1.7 MB), built once per call.  Each entry is the
    left-to-right sum that a per-symbol loop forms, so the decoded bits do
    not depend on g.  The metrics of a time chunk of branches, about 1 MiB
    of float64s (`_CHUNK_BYTES`; 2 branches at B = 256, K = 8, and 32 at
    K = 4), are gathered with one `np.take` per tuple into one reused
    buffer.

    Compare-select is a binary tournament over the m bits of `low`: at each
    level the candidates pair up as (even, odd) neighbours, the odd one
    wins only if strictly greater, and the winner's `low` gains that
    level's bit.  So a tie keeps the predecessor with the smaller state
    index (the smaller `low`), and the survivor is the first maximiser, the
    one an argmax would pick.  The last level writes the survivors' `low`
    into choice[t] and their metrics into the path-metric buffer in place.
    The traceback walks choice (T, B, S) from the zero terminal state by
    flat index, storing each chosen window, and shifts the input blocks
    out of all windows at once.
    """
    cfg = code.cfg
    logw = _log_metric(metric)
    if logw.ndim != 2 or logw.shape[0] != code.j:
        raise ValueError(f"the decoding metric must be a (J, Y) matrix with J = {code.j} "
                         f"rows, the code's alphabet size; got shape {logw.shape}")
    ys, single = _batch(outputs, cfg.n * cfg.num_branches, "output symbols")
    _check_symbols(ys, logw.shape[1], "output symbols", "metric's output alphabet")
    b = ys.shape[0]
    choice = _forward(code, logw, ys.reshape(b, cfg.num_branches, cfg.n))

    # traceback from the zero terminal state: the chosen window is
    # (s' << m) | low, its top m bits the input, its low m(k-1) bits the
    # predecessor state
    s_count = cfg.num_states
    wins = np.empty((cfg.num_branches, b), dtype=np.int64)
    state = np.zeros(b, dtype=np.int64)
    base = np.arange(0, b * s_count, s_count)
    for t in range(cfg.num_branches - 1, -1, -1):
        np.bitwise_or(state << cfg.m, choice[t].reshape(-1)[base + state], out=wins[t])
        state = wins[t] & (s_count - 1)
    wins >>= cfg.m * (cfg.k - 1)  # the input blocks
    bits = _digits(wins[:cfg.L].T, 1, cfg.m).reshape(b, cfg.m * cfg.L).astype(np.int8)
    return bits[0] if single else bits


@dataclass(frozen=True)
class ErrorEstimate:
    events: int
    nodes: int
    p_e: float
    exponent: float
    wilson_low: float
    wilson_high: float
    no_errors: bool


def _wilson(successes, trials, z=1.959963984540054):
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_error_exponent(code: TrellisCode, channel, trials: int, rng,
                            metric=None) -> ErrorEstimate:
    """Monte-Carlo per-node first-error-event probability over `trials` blocks.

    An event is charged to the node where the decoded path first diverges
    from the correct one: the window of the input difference is nonzero
    while its state bits are zero (the paths agree at that node).
    With zero events the reported p_e is the one-sided 95% Clopper-Pearson
    ceiling and the exponent is the matching lower bound.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = code.cfg
    metric = channel if metric is None else metric
    events = 0
    done = 0
    while done < trials:
        b = min(DECODE_BATCH, trials - done)
        info = rng.integers(0, 2, size=(b, cfg.m * cfg.L), dtype=np.int8)
        x = encode(code, info)
        y = transmit(channel, x, rng)
        dec = viterbi_decode(code, metric, y)
        # blocks sit in disjoint bit fields, so the window of the bit XOR
        # is the XOR of the two paths' windows
        wins = _block_windows(_info_to_blocks(info ^ dec, cfg.m, cfg.L), cfg)
        events += int(np.count_nonzero((wins != 0) & ((wins & (cfg.num_states - 1)) == 0)))
        done += b
    nodes = trials * cfg.L
    no_errors = events == 0
    if no_errors:
        p_e = 1.0 - 0.05 ** (1.0 / nodes)  # exact one-sided 95% upper bound
    else:
        p_e = events / nodes
    lo, hi = _wilson(events, nodes)
    exponent = -math.log(p_e) / cfg.constraint_length
    return ErrorEstimate(events, nodes, p_e, exponent, lo, hi, no_errors)


@dataclass(frozen=True, eq=False)
class PairTypeTable:
    """Counts N_l(P) of incorrect-path pairs per unmerged-extension length l.

    One row per distinct type, in ascending (l, counts) order, as int64
    arrays: `ls` (types,) holds the type's l, `counts` (types, j*j) its
    flattened symbol-pair occurrence counts (total n*(k+l)) and
    `multiplicities` (types,) its N_l(P).  pair_totals[l] is the number of
    enumerated (correct-window, incorrect-path) pairs; the multiplicities
    of each l sum to it.
    """

    j: int
    ls: np.ndarray
    counts: np.ndarray
    multiplicities: np.ndarray
    pair_totals: dict

    @property
    def entries(self) -> dict:
        """The same types as a dict {(l, counts tuple): N_l(P)}, in the
        arrays' order, built on each read."""
        return {(l, tuple(row)): c for l, row, c in zip(
            self.ls.tolist(), self.counts.tolist(), self.multiplicities.tolist())}


@functools.cache
def _deviation_patterns(l, k, m):
    """Input-difference patterns (d_0, ..., d_l) over the l+1 free branches
    of an incorrect path that remerges exactly after k+l branches: d_0 and
    d_l nonzero, and the state bits of windows 1..l nonzero (the paths
    disagree at nodes 1..l; d_l != 0 keeps them apart up to node k+l-1).
    At k = 1 the state is empty, so only l = 0 has patterns.  A tuple of
    tuples with d_0 as the least significant base-2^m digit, built once per
    (l, k, m) and shared by every code."""
    if k == 1 and l > 0:
        return ()
    cfg = EnsembleConfig(m=m, n=1, k=k, L=1)
    seqs = _digits(np.arange(1 << m * (l + 1)), m, l + 1)[:, ::-1]
    states = _block_windows(seqs, cfg)[:, 1:] & (cfg.num_states - 1)
    keep = (seqs[:, 0] != 0) & (seqs[:, -1] != 0) & np.all(states != 0, axis=1)
    return tuple(map(tuple, seqs[keep].tolist()))


@functools.cache
def _pattern_windows(l, k, m):
    """Windows of the input difference of each `_deviation_patterns(l, k, m)`
    pattern over the k+l branches from the divergence node: a read-only
    (patterns, k+l) int64 array, built once per (l, k, m) and shared by
    every code.  No difference precedes the node, so the windows start
    from zero history."""
    pats = _deviation_patterns(l, k, m)
    diffs = np.zeros((len(pats), k + l), dtype=np.int64)
    diffs[:, :l + 1] = np.reshape(pats, (-1, l + 1))
    dwin = _block_windows(diffs, EnsembleConfig(m=m, n=1, k=k, L=1))
    dwin.flags.writeable = False
    return dwin


def _key_layout(cells, total):
    """Packing of a count row of `cells` cells, each at most `total`, as
    base-(total + 1) digits, cell 0 most significant, into as few int64
    words as hold them: the word of each cell and its place value there.
    Since no digit carries, ascending keys (word 0 first) are ascending
    rows."""
    base = total + 1
    per_word = 1
    while base ** (per_word + 1) < 1 << 63:
        per_word += 1
    cell = np.arange(cells)
    word = cell // per_word
    last = np.minimum((word + 1) * per_word, cells) - 1  # least significant cell of the word
    return word, np.int64(base) ** (last - cell)


def _pair_keys(code: TrellisCode, l, dwin, weight, fixed) -> np.ndarray:
    """Packed type keys (words, pairs) of every (correct path, pattern)
    pair over the k+l branches from node k-1, pattern-major.

    weight[:, x*j + x'] is the packed key of one symbol pair (x, x'), and
    dwin (patterns, k+l) the patterns' difference windows
    (`_pattern_windows`).  The per-branch table F[:, p, t, w] sums the
    weight over the n symbols of branch node + t with correct window w and
    incorrect window w ^ dwin_p(t), for only the windows the correct path
    can take there: all 2^K, or the one window of `fixed` (block integers
    covering 2k+l-1 blocks), whose keys are F summed along that window.
    Over all correct paths, the keys are built branch by branch: the
    carried keys of windows w, viewed as (prefix, next state w >> m,
    dropped block), move the dropped block into the prefix, and F of the
    next branch, viewed as (new block, state), is added by broadcasting.
    So each pair costs one int64 add per word per branch.  Only the
    multiset of keys matters, not their order.
    """
    cfg, j = code.cfg, code.j
    node, span = cfg.k - 1, cfg.k + l
    if fixed is None:
        wins = np.arange(1 << cfg.constraint_length)[None, :]  # (1, 2^K)
    else:
        wins = _block_windows(fixed[None, :node + span], cfg)[0, node:, None]  # (span, 1)
    # windows pack blocks into disjoint bit fields, so an incorrect
    # path's window is the correct one XOR the window of the difference
    t_span = np.arange(node, node + span)[:, None]
    cells = (code.labels[t_span, wins].astype(np.intp) * j
             + code.labels[t_span, wins ^ dwin[:, :, None]])  # (patterns, span, X, n)
    f = weight[:, cells[..., 0]]
    for i in range(1, cfg.n):
        f += weight[:, cells[..., i]]
    if fixed is not None:
        return f.sum(axis=(2, 3))
    words, count = len(weight), len(dwin)
    u_count, s_count = 1 << cfg.m, cfg.num_states
    keys = f[:, :, 0, None, :]  # (words, patterns, prefixes, 2^K)
    for t in range(1, span):
        prefixes = keys.shape[2]
        dropped = keys.reshape(words, count, prefixes, s_count, u_count).swapaxes(3, 4)
        out = np.empty((words, count, prefixes, u_count, u_count, s_count), dtype=np.int64)
        np.add(dropped[:, :, :, :, None, :],
               f[:, :, t].reshape(words, count, 1, 1, u_count, s_count), out=out)
        keys = out.reshape(words, count, prefixes * u_count, u_count * s_count)
    return keys.reshape(words, -1)


def _distinct_keys(keys: np.ndarray):
    """Distinct columns of packed keys (words, pairs), ascending with word
    0 most significant, and their multiplicities.  Sorts `keys` in place
    when it is one word."""
    if len(keys) == 1:
        keys.sort(axis=1)
        ranked = keys
    else:
        ranked = keys[:, np.lexsort(keys[::-1])]
    first = np.ones(ranked.shape[1], dtype=bool)
    first[1:] = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    starts = np.flatnonzero(first)
    return ranked[:, starts], np.diff(np.append(starts, ranked.shape[1]))


def enumerate_pair_types(code: TrellisCode, l_max: int, fixed_message=None) -> PairTypeTable:
    """Exact joint-type counts for all incorrect paths with extension l <= l_max.

    The divergence node is fixed at t = k-1 (the first node with a full
    input history inside the block).  By default counts are averaged over
    all correct-path input windows (message-averaged mode); passing
    `fixed_message` (a sequence of block integers in [0, 2^m) covering the
    window) restricts to one correct path.

    Each count row of j^2 cells, each at most N = n(k + l_max), is packed
    as base-(N+1) digits into int64 words by one layout that serves every
    l: one word whenever (N+1)^{j^2} < 2^63, that is N <= 55,107 at
    j = 2, N <= 126 at j = 3 and N <= 14 at j = 4; j = 16 takes 12 words
    at N = 6.  The keys are summed branch by branch along the trellis
    (`_pair_keys`, with the difference windows of each (l, k, m) built
    once, `_pattern_windows`): one int64 add per pair per word per branch,
    with no per-pair label gather.  The keys of each l are sorted on their
    own (a lexsort over the words when there are several), which gives
    that l's distinct types in ascending order; the distinct keys of all l
    are joined in ascending l and unpacked into count rows in one
    expression, with no per-type Python object.  Message-averaged, m = 1,
    n = 2, k = 7, l_max = 5 (5.59 M pairs) takes about 0.07-0.09 s and
    49 MiB of traced allocations, and k = 9, l_max = 3 (5.51 M pairs)
    about 0.065-0.085 s and 49 MiB (2 CPUs, numpy 2.4).

    Every check is settled for every l before anything is built: a first
    pass over l = 1..l_max requires l_max >= 0 and L >= 2k + l - 1 (the
    correct path's window u_0 .. u_{2k+l-2} must lie in the information
    part of the block; ValueError otherwise), fixed-message blocks that
    are integers in [0, 2^m) (ValueError) and cover that window
    (LengthMismatch), and a pair total (windows x deviation patterns)
    within `ENUM_BUDGET`, read at each call (EnumerationBudgetExceeded).
    It stops at the first l that fails.  The second pass builds keys only
    for the l that have patterns.
    """
    _check_nonnegative("l_max", l_max)
    cfg = code.cfg
    m, k = cfg.m, cfg.k
    fixed = None
    if fixed_message is not None:
        fixed = np.asarray(fixed_message)
        if fixed.ndim != 1:
            raise LengthMismatch(f"fixed message must be one sequence of blocks, "
                                 f"got shape {fixed.shape}")
        _check_symbols(fixed, 1 << m, "fixed message blocks", "block alphabet")
    pair_totals, plan = {}, []
    for l in range(1, l_max + 1):
        win_len = 2 * k + l - 1  # correct blocks from u_0 to the remerge
        if win_len > cfg.L:  # the correct path's inputs end at time L
            raise ValueError(f"block too short for l={l}: need L >= 2k+l-1 = "
                             f"{win_len}, got L={cfg.L}")
        if fixed is not None and len(fixed) < win_len:
            raise LengthMismatch(f"fixed message must cover {win_len} blocks")
        n_windows = (1 << m) ** win_len if fixed is None else 1
        pats = _deviation_patterns(l, k, m)
        total = n_windows * len(pats)
        if total > ENUM_BUDGET:
            raise EnumerationBudgetExceeded(f"l={l}: {total} pairs exceed budget {ENUM_BUDGET}")
        pair_totals[l] = total
        if pats:  # none at k = 1: nothing to build
            plan.append(l)
    cells, total = code.j * code.j, cfg.n * (k + l_max)
    word, place = _key_layout(cells, total)
    weight = np.zeros((word[-1] + 1, cells), dtype=np.int64)
    weight[word, np.arange(cells)] = place
    blocks = [(np.zeros(0, np.int64), np.zeros((len(weight), 0), np.int64), np.zeros(0, np.int64))]
    for l in plan:  # one sort and one (ls, keys, multiplicities) block per l
        keys, mult = _distinct_keys(_pair_keys(code, l, _pattern_windows(l, k, m), weight, fixed))
        blocks.append((np.full(len(mult), l, dtype=np.int64), keys, mult))
    ls, keys, mults = (np.concatenate(parts, axis=-1) for parts in zip(*blocks))
    return PairTypeTable(code.j, ls, keys[word].T // place % (total + 1), mults, pair_totals)


@dataclass(frozen=True, eq=False)
class TypicalityReport:
    """The types of one code that violate a typicality condition at slack
    epsilon, one row each in the enumerator's (l, counts) order, as arrays:
    `ls` (rows,), `counts` (rows, j*j), `observed` (rows,) its N_l(P) and
    `bound` (rows,) the bound it broke, 0 for the first condition."""

    epsilon: float
    ls: np.ndarray
    counts: np.ndarray
    observed: np.ndarray
    bound: np.ndarray

    @property
    def violations(self) -> tuple:
        """The same rows as (l, counts tuple, N_l(P), bound) tuples, built on
        each read."""
        return tuple((l, tuple(row), c, b) for l, row, c, b in zip(
            self.ls.tolist(), self.counts.tolist(), self.observed.tolist(),
            self.bound.tolist()))

    @property
    def is_typical(self):
        return len(self.ls) == 0


def _log_multinomials(counts: np.ndarray) -> np.ndarray:
    """ln [N! / prod c!] for each row of a 2-D count array, N its row sum.

    Every ln c! is read from one table of `math.lgamma(c + 1)`, c = 0..max N,
    so each carries lgamma's own last-bit error, where a running sum of
    logs would drift with N.
    """
    sizes = counts.sum(axis=1)
    log_factorial = np.array([math.lgamma(c + 1) for c in range(sizes.max() + 1)])
    return log_factorial[sizes] - log_factorial[counts].sum(axis=1)


def typicality_check(code: TrellisCode, q, epsilon: float, l_max: int) -> TypicalityReport:
    """Check the two enumerator conditions for one code at slack epsilon.

    epsilon is a base-2 exponent slack per channel use, matching the
    analytic union bound.  E{N_l(P)} is the exact pair total times the exact
    multinomial type probability under QxQ,
    log2 E = log2 total + [ln N! - sum ln c!] / ln 2 + sum_c c log2 QQ'(c),
    scored for all types at once, in one pass over the table's arrays
    (`ls`, `counts`, `multiplicities`).  The report keeps the violating
    types as arrays in the table's order (`ls`, `counts`, `observed`
    N_l(P) and `bound`, 0 for the first condition); its `violations`
    builds the (l, counts tuple, N_l(P), bound) tuples on each read.  A
    type whose E sits exactly on the first-condition threshold
    (2^m - 1) 2^{-n(k+l) eps} (possible when n(k+l) eps is an integer) is
    decided by the last-bit rounding of the lgamma table of ln c!
    (`_log_multinomials`); choose eps with n(k+l) eps non-integer for a
    decision that does not hang on it.  A non-finite
    epsilon raises ValueError; q is read as every route reads it, so a q
    whose length is not code.j raises DimensionMismatch and one that is not
    a distribution ValueError.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    qv = _input_dist(q, code.j, "code symbol").q
    cfg = code.cfg
    table = enumerate_pair_types(code, l_max)
    ls, counts, observed = table.ls, table.counts, table.multiplicities
    if not len(ls):
        return TypicalityReport(epsilon, ls, counts, observed, np.zeros(0))
    qq = np.outer(qv, qv).reshape(-1)
    log2_qq = np.log2(qq, out=np.full_like(qq, -np.inf), where=qq > 0)
    log2_p = (np.where(counts > 0, log2_qq, 0.0) * counts).sum(axis=1)  # -inf off Q's support
    totals = np.array([table.pair_totals.get(l, 0) for l in range(ls[-1] + 1)])  # indexed by l
    log2_en = np.log2(totals[ls]) + (_log_multinomials(counts) / math.log(2.0) + log2_p)
    slack = cfg.n * (cfg.k + ls) * epsilon
    # first condition: the type should be unpopulated; second: not too many
    first = log2_en < math.log2((1 << cfg.m) - 1) - slack
    bad = np.flatnonzero(first | (np.log2(observed) > slack + log2_en))
    bound = np.where(first[bad], 0.0, np.exp2(slack[bad] + log2_en[bad]))
    return TypicalityReport(epsilon, ls[bad], counts[bad], observed[bad], bound)


def typicality_union_bound(cfg: EnsembleConfig, j: int, epsilon: float) -> float:
    """Analytic union bound (2^m - 1) sum_{l >= k+1} (n l + 1)^{J^2} 2^{-n l eps}.

    inf when the series has not converged within UNION_TAIL_TERMS terms,
    as at every eps <= 0, where it diverges.  A NaN epsilon raises
    ValueError.
    """
    if math.isnan(epsilon):
        raise ValueError(f"epsilon must be a number, got {epsilon}")
    total = 0.0
    for l in range(cfg.k + 1, cfg.k + 1 + UNION_TAIL_TERMS):
        term = (cfg.n * l + 1) ** (j * j) * 2.0 ** (-cfg.n * l * epsilon)
        total += term
        if term < 1e-18 * max(total, 1.0):
            return ((1 << cfg.m) - 1) * total
    return math.inf


def typicality_audit(cfg: EnsembleConfig, j, q, num_codes: int, epsilon: float,
                     l_max: int):
    """Sample codes and report (atypical fraction, per-code reports, bound)."""
    reports = []
    atypical = 0
    for i in range(num_codes):
        code = sample_code(cfg, j=j, q=q, code_index=i)
        rep = typicality_check(code, q, epsilon, l_max)
        reports.append(rep)
        if not rep.is_typical:
            atypical += 1
    bound = typicality_union_bound(cfg, j, epsilon)
    return atypical / num_codes, reports, bound
