"""Domain model: players, game configuration, coalitions, coalition structures.

Players are numbered from 1. Vehicles take ids 1..K, roadside units (RSUs)
take ids K+1..K+M. The network operator that receives all uplink traffic is
not a player and has no payoff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
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
    "iter_structure_rows",
    "unrank_partition",
    "bell_number",
    "normalize_structure",
]

# A coalition is a frozenset of 1-based player ids; a coalition structure is a
# tuple of pairwise-disjoint coalitions covering every player, ordered by each
# coalition's smallest member.
Coalition = frozenset
CoalitionStructure = tuple


@dataclass(frozen=True)
class GameConfig:
    """Exogenous parameters of one game instance.

    Matrix layout follows the config-file schema: `enc`, `price`, `cost_fwd`
    and `cost_rcv` are (M, K) with one row per RSU and one column per vehicle;
    `delta` is (K, M) with one row per vehicle. All arrays become read-only
    float64 on construction, so instances can be shared freely across
    parallel evaluations.
    """

    K: int
    M: int
    p: np.ndarray          # (K,) per-slot activity probability per vehicle
    enc: np.ndarray        # (M, K) encounter probability, RSU row x vehicle col
    delta: np.ndarray      # (K, M) rate increase when the RSU relays the vehicle
    price: np.ndarray      # (M, K) fee charged per relayed transmission
    cost_fwd: np.ndarray   # (M, K) RSU cost of forwarding one transmission
    cost_rcv: np.ndarray   # (M, K) RSU cost of receiving one transmission
    alpha: np.ndarray      # (K,) vehicle weight on throughput
    beta: np.ndarray       # (K,) vehicle weight on payment
    gamma: np.ndarray      # (M,) RSU weight on revenue
    mu: np.ndarray         # (M,) RSU weight on cost

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

    def is_vehicle(self, player: int) -> bool:
        return 1 <= player <= self.K

    def vrow(self, vehicle: int) -> int:
        """0-based index of a vehicle id into the (K, ...) arrays."""
        return vehicle - 1

    def rrow(self, rsu: int) -> int:
        """0-based index of an RSU id into the (M, ...) arrays."""
        return rsu - self.K - 1


def _spread(value, shape) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    return arr


def make_config(K, M, *, p, enc, delta, price, cost_fwd, cost_rcv,
                alpha=1.0, beta=1.0, gamma=1.0, mu=1.0,
                check: bool = True) -> GameConfig:
    """Build a GameConfig, spreading scalar parameters to full arrays.

    With check=True (the default) the config is validated and a ValueError
    listing every violation is raised if it is not well formed.
    """
    K, M = int(K), int(M)
    cfg = GameConfig(
        K=K, M=M,
        p=_spread(p, (K,)),
        enc=_spread(enc, (M, K)),
        delta=_spread(delta, (K, M)),
        price=_spread(price, (M, K)),
        cost_fwd=_spread(cost_fwd, (M, K)),
        cost_rcv=_spread(cost_rcv, (M, K)),
        alpha=_spread(alpha, (K,)),
        beta=_spread(beta, (K,)),
        gamma=_spread(gamma, (M,)),
        mu=_spread(mu, (M,)),
    )
    if check:
        errors = validate_config(cfg)
        if errors:
            raise ValueError("invalid game config: " + "; ".join(errors))
    return cfg


_SHAPES = {
    "p": lambda c: (c.K,),
    "enc": lambda c: (c.M, c.K),
    "delta": lambda c: (c.K, c.M),
    "price": lambda c: (c.M, c.K),
    "cost_fwd": lambda c: (c.M, c.K),
    "cost_rcv": lambda c: (c.M, c.K),
    "alpha": lambda c: (c.K,),
    "beta": lambda c: (c.K,),
    "gamma": lambda c: (c.M,),
    "mu": lambda c: (c.M,),
}


def validate_config(cfg: GameConfig) -> list[str]:
    """Check every invariant and return the full list of violations.

    An empty list means the config is valid. Validation never aborts early,
    so callers see all problems at once.
    """
    errors: list[str] = []
    if cfg.K < 1:
        errors.append("K: need at least one vehicle")
    if cfg.M < 0:
        errors.append("M: RSU count must be nonnegative")
    for name, want in _SHAPES.items():
        arr = getattr(cfg, name)
        expected = want(cfg)
        if arr.shape != expected:
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
        try:
            members = [int(tok) for tok in part.split(",")]
        except ValueError:
            raise ValueError(f"bad structure spec {text!r}: non-integer member") from None
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


def _walk(n_players: int):
    """Every set partition of {1..n} once, in canonical order, as in-place lists.

    Player m joins each existing block in turn, then opens a new one:
    lexicographic restricted-growth order (Knuth, TAOCP 7.2.1.5), from {1..n}
    to all singletons, blocks ordered by smallest member, members ascending.
    Every step yields the same two lists, each block's members and each
    block's text ("1,5,6"), updated in place; readers copy what they keep.
    """
    n = int(n_players)
    if n < 1:
        raise ValueError("need at least one player to partition")
    blocks: list[list[int]] = []
    texts: list[str] = []

    def place(m):
        if m > n:
            yield blocks, texts
            return
        tok = str(m)
        for b in range(len(blocks)):
            old = texts[b]
            blocks[b].append(m)
            texts[b] = old + "," + tok
            yield from place(m + 1)
            blocks[b].pop()
            texts[b] = old
        blocks.append([m])
        texts.append(tok)
        yield from place(m + 1)
        blocks.pop()
        texts.pop()

    return place(1)


def iter_partitions(n_players: int):
    """Lazily yield every set partition of {1..n}, each once, in canonical order."""
    return (tuple(frozenset(b) for b in blocks) for blocks, _ in _walk(n_players))


def iter_structure_rows(n_players: int, K: int):
    """Yield (structure, normalized, n_coalitions) of every partition in canonical order.

    Equal to format_structure(cs), format_structure(normalize_structure(cs, K))
    and len(cs), but built from the walk's block texts: the blocks holding a
    vehicle are a prefix of the block order, and the RSUs of the other blocks
    (ascending runs, which sorted() merges) become singletons.
    """
    for blocks, texts in _walk(n_players):
        v = len(blocks)
        while v and blocks[v - 1][0] > K:
            v -= 1
        loose = sorted(itertools.chain.from_iterable(blocks[v:]))
        yield "|".join(texts), "|".join([*texts[:v], *map(str, loose)]), len(blocks)


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
    """Number of set partitions of an n-element set (Bell triangle)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


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
