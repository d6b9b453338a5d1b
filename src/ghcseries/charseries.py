"""Vector partition counts and the characters of the series modules.

The produced module N_p(E) has t-character dim E times the colored
partition count of the n-weights, shifted to start at mu + 2; the
degree-one functor image F1(p, E) has k-character given by first
differences of the same table.  The alternating-sum (Euler) character
of the derived functors is computed from a four-term window identity
that the test suite validates against an independent Koszul-complex
oracle.

Partition tables are built once per process for each n-weight multiset
and shared by every pair with that multiset.  A table runs over the
weights divided by their gcd, which is 2 when every n-weight is even, as
for principal pairs, so those tables hold half the entries; a deeper
limit grows the kept table by its new entries only.  A character reads
N's and F1's rows, in order, straight off one table through cutoff - mu,
as flat cells [weight, multiplicity, weight, multiplicity, ...]; with an
int dim E every cell is a plain int, so the CLI writes them unchecked.
"""

from __future__ import annotations

import math
from itertools import chain, compress, repeat
from operator import add, mul, neg, sub

from .errors import (
    InternalInconsistency,
    InvalidInput,
    OutOfRegime,
    UnsupportedRegime,
    WindowTooNarrow,
)
from .parabolic import CompatibleParabolic
from .record import Record
from .sl2embed import KCharacter, TruncatedTCharacter


class ModuleDatumE(Record):
    """Simple finite-dimensional p-module datum; t acts via omega.  Both fields are ints."""

    def __init__(self, omega: int, dim_e: int = 1):
        if type(omega) is not int:
            raise InvalidInput("omega must be an integer")
        if type(dim_e) is not int or dim_e < 1:
            raise InvalidInput("dim E must be a positive integer")
        self._init(locals())


# Ceiling on partition lists and cutoffs.  The heaviest rank-4 character
# (B4, highest root, mu 0) takes 0.06 s and peaks at 35 MB at cutoff 20,000,
# and 0.34 s and 104 MB at 100,000 (fresh process, 2-core Intel Xeon,
# Python 3.11).
MAX_CUTOFF = 20_000


# Partition tables built so far in this process, keyed by the n-weights
# divided by their gcd and sorted: (counts, tails), where counts[j] counts
# the partitions of j and tails[i] holds the last w entries of the table over
# the first i + 1 weights, w the i-th, from which the next entries grow.
# Total rank is capped at MAX_TOTAL_RANK, so the keys are finite and nothing
# is ever evicted.
_TABLES: dict[tuple[int, ...], tuple[list[int], list[list[int]]]] = {}


def _partition_counts(weights, limit: int) -> tuple[int, list[int]]:
    """(g, counts): g the gcd of the weights and counts[j] the colored vector
    partition count of g * j, for g * j <= limit; the count of any other x is 0.

    A partition of x is a multiset drawn from the weights, each entry of the
    defining multiset its own unbounded color, summing to x.  The table of
    each reduced multiset is kept in _TABLES and grown only by the entries a
    deeper limit adds; the caller gets a fresh list.  A negative limit gives
    the empty list; a limit above MAX_CUTOFF raises UnsupportedRegime before
    anything is allocated.
    """
    g, key = _reduced(weights, limit)
    size = _entries(limit, g)
    table = _TABLES.get(key, ([], None))
    if len(table[0]) < size:
        table = _TABLES[key] = _grown(table, key, size)
    return g, table[0][:size]


def _reduced(weights, limit: int) -> tuple[int, tuple[int, ...]]:
    """The gcd g of the weights and the weights divided by g, sorted; the
    limit is checked against MAX_CUTOFF and the weights for positivity."""
    _check_ceiling(limit)
    ws = [int(w) for w in weights]
    if any(w <= 0 for w in ws):
        raise InvalidInput("partition weights must be positive")
    g = math.gcd(*ws) or 1
    return g, tuple(sorted(w // g for w in ws))


def _entries(limit: int, g: int) -> int:
    """How many entries of a table with step g lie at or below limit."""
    return max(limit // g + 1, 0)


def _grown(table, weights: tuple[int, ...], size: int):
    """table, a (counts, tails) pair over weights, grown to size > len(counts)
    counts; ([], None) starts one.  The new entries run through each weight's
    stage.

    Each stage adds one weight w: its entry at x is the previous stage's
    entry at x plus its own at x - w, read from its tail where x - w lies
    below the new entries.  The result is a new pair, so growth that is cut
    short leaves table as it was.
    """
    counts, tails = table
    if tails is None:
        tails = [[0] * w for w in weights]
    start = len(counts)
    stage = [0] * (size - start)
    if not start:
        stage[0] = 1
    grown_tails = []
    for w, tail in zip(weights, tails):
        run = tail + stage
        for y in range(w, len(run)):
            run[y] += run[y - w]
        grown_tails.append(run[-w:])
        stage = run[w:]
    return counts + stage, grown_tails


def _check_ceiling(limit: int) -> None:
    if limit > MAX_CUTOFF:
        raise UnsupportedRegime(
            f"partition list through {limit} exceeds the ceiling {MAX_CUTOFF}"
        )


def partition_function(weights, x: int) -> int:
    """Colored partition count of x over the given positive multiset.

    The weights come from the caller, so the table is built for this call
    and not kept.
    """
    g, key = _reduced(weights, x)
    if x < 0 or x % g:
        return 0
    return _grown(([], None), key, x // g + 1)[0][-1]


def t_character_N(
    p: CompatibleParabolic, E: ModuleDatumE, cutoff: int
) -> TruncatedTCharacter:
    """t-character of the produced module, trusted through cutoff.

    The minimum t-weight is mu + 2 with multiplicity dim E; above it the
    multiplicity at x is dim E times the partition count of x - mu - 2.
    """
    mu = E.omega + p.two_rho_n_perp
    g, counts = _partition_counts(p.n_weights, cutoff - mu - 2)
    return TruncatedTCharacter(_mults(_t_rows(mu, E.dim_e, g, counts)), window=(None, cutoff))


def _t_rows(mu: int, dim_e: int, g: int, counts: list[int]) -> list[int]:
    """Cells [t-weight, multiplicity, ...] of N off a partition table with step g.

    counts[j] is the partition count of g * j, so it sits at t-weight
    mu + 2 + g * j; zero entries are left out.
    """
    return _rows(range(mu + 2, mu + 2 + g * len(counts), g), dim_e, counts)


def _rows(labels: range, dim_e: int, mults: list[int]) -> list[int]:
    """[label, dim_e * m, label, dim_e * m, ...] cells for the nonzero m of
    mults, filled by C iterators; a dim E of 1 skips the product."""
    kept = list(compress(labels, mults))
    cells = [0] * (2 * len(kept))
    cells[::2] = kept
    cells[1::2] = compress(mults if dim_e == 1 else map(mul, repeat(dim_e), mults), mults)
    return cells


def _mults(cells: list[int]) -> dict[int, int]:
    """The label -> multiplicity map of flat cells."""
    return dict(zip(cells[::2], cells[1::2]))


def euler_k_character(N: TruncatedTCharacter, cutoff: int) -> KCharacter:
    """Alternating-sum character of the derived functors, as virtual.

    The coefficient of V(delta), delta >= 0, is
        m(delta) + m(-delta) - m(delta+2) - m(-delta-2),
    which reads 2 m(0) - m(2) - m(-2) at delta = 0; it is the Euler
    characteristic of the two-step relative Koszul complex of k over t
    with coefficients in N.
    """
    lo, hi = N.window
    if hi is not None and hi < cutoff + 2:
        raise WindowTooNarrow(
            f"need t-weights through {cutoff + 2}, trusted only to {hi}"
        )
    if lo is not None and lo > -cutoff - 2:
        raise WindowTooNarrow(
            f"need t-weights down to {-cutoff - 2}, trusted only from {lo}"
        )
    mults: dict[int, int] = {}
    for delta in range(0, cutoff + 1):
        c = N.mult(delta) + N.mult(-delta) - N.mult(delta + 2) - N.mult(-delta - 2)
        if c:
            mults[delta] = c
    return KCharacter(mults, cutoff=cutoff, virtual=True)


def f1_k_character(
    p: CompatibleParabolic, E: ModuleDatumE, cutoff: int
) -> KCharacter:
    """k-character of the degree-one functor image, valid for mu >= 0.

    In that regime the degree-0 and degree-2 images vanish, so the Euler
    character is minus this one; the multiplicity of V(delta) is dim E
    times the first difference of the partition table at delta - mu.
    """
    return KCharacter(_f1_combination(p, [(1, E)], cutoff), cutoff=cutoff, virtual=False)


def _f1_mu(p: CompatibleParabolic, E: ModuleDatumE, cutoff: int) -> int:
    """mu of F1(p, E), refused below 0 and where its list would pass MAX_CUTOFF."""
    mu = E.omega + p.two_rho_n_perp
    if mu < 0:
        raise OutOfRegime(
            f"mu = {mu} < 0: lower and upper degrees need not vanish there"
        )
    _check_ceiling(cutoff - mu)
    return mu


def _f1_diffs(g: int, counts: list[int]) -> list[int]:
    """First differences P(i) - P(i - 2) of a partition table with step g.

    V(mu + i) has dim E times P(i) - P(i - 2) in F1, P the partition count;
    2 is an n-weight, so g divides 2 and P(i - 2) sits 2 // g entries back.
    """
    if 2 % g:
        raise InternalInconsistency("n carries no weight-2 root")
    diffs = list(map(sub, counts, [0] * (2 // g) + counts))
    if diffs and min(diffs) < 0:
        raise InternalInconsistency("negative multiplicity in a genuine character")
    return diffs


def _f1_combination(p: CompatibleParabolic, terms, cutoff: int) -> dict[int, int]:
    """sum coeff ch_k F1(p, E) through cutoff over the (coeff, E) terms, each
    checked in turn first; F1 of E reads the entries through cutoff - mu_E of
    one partition table through cutoff - low, low the least mu_E, and adds
    into one list over the k-types low..cutoff at every g-th from mu_E on."""
    checked = [(coeff, _f1_mu(p, E, cutoff), E.dim_e) for coeff, E in terms]
    low = min((mu for _, mu, _ in checked), default=cutoff + 1)
    g, counts = _partition_counts(p.n_weights, cutoff - low)
    total = [0] * (cutoff - low + 1)
    for coeff, mu, dim_e in checked:
        diffs = _f1_diffs(g, counts[: _entries(cutoff - mu, g)])
        at = slice(mu - low, None, g)
        total[at] = map(add, total[at], map(mul, repeat(coeff * dim_e), diffs))
    return dict(compress(zip(range(low, cutoff + 1), total), total))


def _character_mults(p, mu: int, dim_e: int, cutoff: int, allow_virtual: bool):
    """N's t- and F1's k-multiplicities through cutoff, as flat cells [weight,
    multiplicity, ...] in weight order; for mu < 0, allowed only with
    allow_virtual, the negated Euler character stands in for F1.

    One partition table through cutoff - mu serves both: N reads its entries
    through cutoff - mu - 2, while F1, and the Euler character's N through
    cutoff + 2, read all of them.
    """
    ModuleDatumE(omega=mu - p.two_rho_n_perp, dim_e=dim_e)  # refuses dim E < 1
    if mu < 0 and not allow_virtual:
        raise OutOfRegime(f"mu = {mu} < 0 has no vanishing guarantee; pass --allow-virtual")
    g, counts = _partition_counts(p.n_weights, cutoff - mu)
    t_rows = _t_rows(mu, dim_e, g, counts[: _entries(cutoff - mu - 2, g)])
    if mu >= 0:
        return t_rows, _rows(range(mu, cutoff + 1, g), dim_e, _f1_diffs(g, counts))
    n_char = TruncatedTCharacter(_mults(_t_rows(mu, dim_e, g, counts)), window=(None, cutoff + 2))
    euler = euler_k_character(n_char, cutoff).mults
    return t_rows, list(chain.from_iterable(zip(euler, map(neg, euler.values()))))
