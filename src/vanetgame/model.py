"""Domain model: players, game configuration, coalitions, coalition structures.

Players are numbered from 1. Vehicles take ids 1..K, roadside units (RSUs)
take ids K+1..K+M. The network operator that receives all uplink traffic is
not a player and has no payoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "Coalition",
    "CoalitionStructure",
    "GameConfig",
    "make_config",
    "validate_config",
    "split_members",
    "check_structure",
    "canonical_structure",
    "parse_structure",
    "format_structure",
    "enumerate_partitions",
    "iter_partitions",
    "structure_csv_blocks",
    "unrank_partition",
    "bell_number",
    "normalize_structure",
]

# A coalition is a frozenset of 1-based player ids; a coalition structure is a
# tuple of pairwise-disjoint coalitions covering every player, ordered by each
# coalition's smallest member.
Coalition = frozenset
CoalitionStructure = tuple

# Most label rows expanded at once, and so most CSV rows in one structure_csv_blocks block
_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class GameConfig:
    """Exogenous parameters of one game instance.

    Matrix layout follows the config-file schema (each shape is in _SHAPES):
    `enc`, `price`, `cost_fwd` and `cost_rcv` have one row per RSU and one
    column per vehicle; `delta` has one row per vehicle. All arrays become
    read-only float64 on construction, so instances can be shared freely
    across parallel evaluations.
    """

    K: int
    M: int
    p: np.ndarray          # per-slot activity probability per vehicle
    enc: np.ndarray        # encounter probability, RSU row x vehicle col
    delta: np.ndarray      # rate increase when the RSU relays the vehicle
    price: np.ndarray      # fee charged per relayed transmission
    cost_fwd: np.ndarray   # RSU cost of forwarding one transmission
    cost_rcv: np.ndarray   # RSU cost of receiving one transmission
    alpha: np.ndarray      # vehicle weight on throughput
    beta: np.ndarray       # vehicle weight on payment
    gamma: np.ndarray      # RSU weight on revenue
    mu: np.ndarray         # RSU weight on cost

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "M", int(self.M))
        for name in ("p", "enc", "delta", "price", "cost_fwd", "cost_rcv",
                     "alpha", "beta", "gamma", "mu"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_players(self) -> int:
        return self.K + self.M

    @property
    def vehicles(self) -> range:
        return range(1, self.K + 1)

    @property
    def rsus(self) -> range:
        return range(self.K + 1, self.K + self.M + 1)

    def vrow(self, vehicle: int) -> int:
        """0-based index of a vehicle id into the (K, ...) arrays."""
        return vehicle - 1

    def rrow(self, rsu: int) -> int:
        """0-based index of an RSU id into the (M, ...) arrays."""
        return rsu - self.K - 1


class ConfigError(ValueError):
    """Invalid game config or config file; .errors carries the full violation list."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# The one statement of each parameter's shape, as a function of (K, M)
_SHAPES = {
    "p": lambda K, M: (K,),
    "enc": lambda K, M: (M, K),
    "delta": lambda K, M: (K, M),
    "price": lambda K, M: (M, K),
    "cost_fwd": lambda K, M: (M, K),
    "cost_rcv": lambda K, M: (M, K),
    "alpha": lambda K, M: (K,),
    "beta": lambda K, M: (K,),
    "gamma": lambda K, M: (M,),
    "mu": lambda K, M: (M,),
}


def make_config(K, M, *, p, enc, delta, price, cost_fwd, cost_rcv,
                alpha=1.0, beta=1.0, gamma=1.0, mu=1.0) -> GameConfig:
    """Build a GameConfig, spreading scalar parameters to full arrays.

    The values are checked before any of them is spread, so a bad K or M
    builds nothing of its size; ConfigError lists every violation. A scalar
    spreads to its parameter's shape, and an empty list stands for any shape
    with a zero dimension (an RSU matrix when M = 0).
    """
    K, M = int(K), int(M)
    given = dict(p=p, enc=enc, delta=delta, price=price, cost_fwd=cost_fwd,
                 cost_rcv=cost_rcv, alpha=alpha, beta=beta, gamma=gamma, mu=mu)
    arrays = {name: np.asarray(value, dtype=np.float64) for name, value in given.items()}
    errors = _violations(K, M, arrays, spreads=True)
    if errors:
        raise ConfigError(errors)
    return GameConfig(K=K, M=M, **{
        name: np.full(shape(K, M), float(arrays[name])) if arrays[name].ndim == 0
        else arrays[name].reshape(shape(K, M)) for name, shape in _SHAPES.items()})


def _violations(K: int, M: int, arrays, spreads: bool) -> list[str]:
    """Every violation in K, M and the parameter arrays; `spreads` says whether they spread."""
    errors: list[str] = []
    if K < 1:
        errors.append("K: need at least one vehicle")
    if M < 0:
        errors.append("M: RSU count must be nonnegative")
    for name, shape in _SHAPES.items():
        arr = arrays[name]
        expected = shape(K, M)
        # the shape rule: the expected shape or, where values spread, a scalar or
        # an empty list for an expected shape with a zero dimension
        spreadable = arr.shape == () or arr.shape == (0,) and 0 in expected
        if arr.shape != expected and not (spreads and spreadable):
            errors.append(f"{name}: shape mismatch, expected {expected}, got {arr.shape}")
            continue
        if arr.size and not np.isfinite(arr).all():
            errors.append(f"{name}: non-finite entries")
            continue
        if name in ("p", "enc") and arr.size and ((arr < 0.0) | (arr > 1.0)).any():
            errors.append(f"{name}: probability out of range [0, 1]")
        if name in ("delta", "price", "cost_fwd", "cost_rcv") and arr.size and (arr < 0.0).any():
            errors.append(f"{name}: negative entries")
    return errors


def validate_config(cfg: GameConfig) -> list[str]:
    """Check every invariant and return the full list of violations.

    An empty list means the config is valid. Validation never aborts early,
    so callers see all problems at once. Every array must have its full
    shape here: nothing spreads in a built GameConfig.
    """
    return _violations(cfg.K, cfg.M, {name: getattr(cfg, name) for name in _SHAPES},
                       spreads=False)


def split_members(members, K: int):
    """Split a coalition into (vehicles, rsus), each sorted ascending."""
    vehicles = tuple(sorted(m for m in members if m <= K))
    rsus = tuple(sorted(m for m in members if m > K))
    return vehicles, rsus


def check_structure(cs, n_players: int) -> list[str]:
    """Return every violated coalition-structure invariant (empty list if valid)."""
    errors: list[str] = []
    seen: set[int] = set()
    for block in cs:
        if len(block) == 0:
            errors.append("empty coalition")
            continue
        for m in block:
            if not (1 <= m <= n_players):
                errors.append(f"player {m} out of range 1..{n_players}")
            elif m in seen:
                errors.append(f"player {m} appears in more than one coalition")
            seen.add(m)
    missing = set(range(1, n_players + 1)) - seen
    if missing:
        errors.append(f"players {sorted(missing)} missing from the structure")
    return errors


def canonical_structure(blocks) -> CoalitionStructure:
    """Order coalitions by their smallest member."""
    return tuple(sorted((frozenset(b) for b in blocks), key=min))


def parse_structure(text: str, n_players: int) -> CoalitionStructure:
    """Parse "1,2|3|4" into a coalition structure and validate it."""
    blocks = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            raise ValueError(f"bad structure spec {text!r}: empty coalition")
        tokens = [tok.strip() for tok in part.split(",")]
        # int() also takes '1_0', '+1' and non-ASCII digits such as '\uff11'
        if not all(tok.isascii() and tok.isdecimal() for tok in tokens):
            raise ValueError(f"bad structure spec {text!r}: non-integer member")
        members = [int(tok) for tok in tokens]
        if len(set(members)) < len(members):
            repeated = min(m for m in members if members.count(m) > 1)
            raise ValueError(f"bad structure spec {text!r}: "
                             f"player {repeated} appears more than once")
        blocks.append(frozenset(members))
    cs = canonical_structure(blocks)
    errors = check_structure(cs, n_players)
    if errors:
        raise ValueError(f"bad structure spec {text!r}: " + "; ".join(errors))
    return cs


def format_structure(cs) -> str:
    return "|".join(",".join(str(m) for m in sorted(b)) for b in canonical_structure(cs))


def _blocks_of(labels) -> CoalitionStructure:
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for idx, lab in enumerate(labels):
        blocks[lab].append(idx + 1)
    return tuple(frozenset(b) for b in blocks)


def iter_partitions(n_players: int):
    """Lazily yield every set partition of {1..n}, each once, in canonical order."""
    n = int(n_players)
    if n < 1:
        raise ValueError("need at least one player to partition")
    return (_blocks_of(row.tolist()) for labels in _label_blocks(n) for row in labels)


def _label_blocks(n: int):
    """The restricted-growth label rows of every partition of {1..n}, in blocks.

    Column i holds the block of player i + 1, blocks numbered by smallest
    member, and rows come in lexicographic order, the canonical one. Rows grow
    one player at a time, each into one child per label in use and one with a
    new label, depth first and at most _BLOCK_ROWS children at a time. Labels
    are int8 up to 128 players and the smallest wider signed type beyond.
    """
    def expand(labels):
        size = labels.shape[1]
        if size == n:
            yield labels
            return
        step = max(1, _BLOCK_ROWS // (size + 1))   # a row has at most size + 1 children
        for start in range(0, labels.shape[0], step):
            yield from expand(_children(labels[start:start + step]))

    return expand(np.zeros((1, 1), np.min_scalar_type(-n)))


def _children(labels):
    """Every one-player extension of each label row, in lexicographic order."""
    width = labels.max(axis=1).astype(np.int64) + 2
    parent = np.repeat(np.arange(labels.shape[0]), width)
    label = np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
    return np.column_stack((labels[parent], label.astype(labels.dtype)))


def _digits(values, width: int):
    """ASCII digits of positive integers, right-aligned after zero bytes in `width` columns."""
    digits = np.empty((values.size, width), np.uint8)
    rest = values.copy()
    for col in range(width - 1, -1, -1):   # a scalar divisor takes numpy's fast path
        digits[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
        rest //= 10
    return digits


def _field(keys, tokens):
    """Each row's `,"1,3|2"` text as bytes in zero-padded uint32 cells, and its largest key.

    Players sorted by (key, id) form the blocks; cell m holds the m-th one's
    id bytes and, in its top byte, the `,` (same key), `|` or closing quote
    after it. csv.writer quotes the field exactly when it holds a `,`.
    """
    rows, n = keys.shape
    shift = n.bit_length()
    ranked = np.sort(keys.astype(np.int32) << shift | np.arange(n, dtype=np.int32), axis=1)
    cells = np.empty((rows, n + 1), np.uint32)
    cells[:, 1:] = tokens.take(ranked & ((1 << shift) - 1))
    ranked >>= shift
    joined = ranked[:, 1:] == ranked[:, :-1]
    cells[:, 1:-1] |= np.where(joined, np.uint32(ord(",") << 24), np.uint32(ord("|") << 24))
    quote = np.where(joined.any(axis=1), ord('"'), 0).astype(np.uint32)
    cells[:, 0] = ord(",") | quote << 8
    cells[:, -1] |= quote << 24
    return cells.astype("<u4", copy=False).view(np.uint8), ranked[:, -1]


def structure_csv_blocks(n_players: int, K: int):
    """Yield the CSV body of `vanetgame enumerate` as ASCII text blocks of whole rows.

    Row `id` is the id-th partition cs in canonical order, as csv.writer writes
    (id, format_structure(cs), format_structure(normalize_structure(cs, K)), len(cs)).
    The blocks holding a vehicle are a prefix of the labels, so the normalized
    form keeps those labels and gives every other RSU a key of its own above n.
    """
    n = int(n_players)
    if not 1 <= n <= 127:   # int8 labels
        raise ValueError("need 1 to 127 players to list partitions")
    tokens = np.array([int.from_bytes(str(m).encode(), "little") for m in range(1, n + 1)],
                      np.uint32)
    loose = np.arange(n, 2 * n, dtype=np.int32)
    id_width = len(str(bell_number(n)))
    first = 1
    for labels in _label_blocks(n):
        rows = labels.shape[0]
        structure, top = _field(labels, tokens)
        normalized, _ = _field(np.where(labels <= labels[:, :K].max(axis=1, keepdims=True),
                                        labels, loose), tokens)
        mat = np.concatenate((
            _digits(np.arange(first, first + rows), id_width),
            structure, normalized, np.full((rows, 1), ord(","), np.uint8),
            _digits(top + 1, len(str(n))), np.full((rows, 1), ord("\n"), np.uint8)), axis=1)
        first += rows
        yield mat.tobytes().translate(None, b"\0").decode("ascii")


def enumerate_partitions(n_players: int) -> list[CoalitionStructure]:
    """All set partitions of {1..n} in the order of iter_partitions.

    The result has Bell-number length.
    """
    return list(iter_partitions(n_players))


def _completions(remaining: int, used: int, memo: dict) -> int:
    """Restricted-growth suffixes of a given length after `used` labels are taken."""
    if remaining == 0:
        return 1
    key = (remaining, used)
    if key not in memo:
        memo[key] = (used * _completions(remaining - 1, used, memo)
                     + _completions(remaining - 1, used + 1, memo))
    return memo[key]


def unrank_partition(n_players: int, index: int) -> CoalitionStructure:
    """The partition at 1-based `index` of the canonical order, without enumerating.

    Walks the restricted-growth string label by label, skipping over the
    number of completions of every smaller label.
    """
    n = int(n_players)
    if n < 1:
        raise ValueError("need at least one player to partition")
    total = bell_number(n)
    if not 1 <= index <= total:
        raise ValueError(f"structure id {index} out of range 1..{total}")
    rank = index - 1
    memo: dict = {}
    labels = [0] * n
    used = 1
    for i in range(1, n):
        for lab in range(used + 1):
            count = _completions(n - i - 1, max(used, lab + 1), memo)
            if rank < count:
                break
            rank -= count
        labels[i] = lab
        used = max(used, lab + 1)
    return _blocks_of(labels)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set: every restricted-growth string."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _completions(n, 0, {})


def normalize_structure(cs, K: int) -> CoalitionStructure:
    """Split every coalition that has no vehicle into singleton coalitions.

    RSUs earn and spend nothing without a vehicle to relay, so grouping them
    is payoff-neutral; the normalized form is the canonical representative.
    Idempotent, and coalitions containing at least one vehicle pass through
    untouched.
    """
    blocks = []
    for block in cs:
        if any(m <= K for m in block):
            blocks.append(frozenset(block))
        else:
            blocks.extend(frozenset((m,)) for m in block)
    return canonical_structure(blocks)
