"""Exact root-system, Weyl-group and weight arithmetic.

Simple and semisimple algebras of types A, B, C, D, G2 and direct sums,
total rank at most 4, realized in the standard orthonormal coordinates
with the form <e_i, e_j> = delta_ij.  One per-family builder writes each
factor straight into its block of the ambient coordinates.  The simple
roots of A, B, C and D start with the chain e_i - e_{i+1}, which B ends
with e_n, C with 2e_n and D with e_{n-1} + e_n.  B, C and D share the
roots +-e_i +- e_j; B adds +-e_i and C adds +-2e_i.  G2 lists its six
positive roots in a trace-zero realization in Q^3.  Every root
coordinate is an integer in these realizations, and build_root_system
checks it.  Weights, and every weight the library returns, keep exact
Fraction coordinates; no floating point anywhere.  A Weyl group is built
once per process for each simple system, in one closure pass that also
gives the element lengths, the left-multiplication table its Bruhat order
reads and the BFS parent of every element.

The private integer layer below is the only code that turns weights into
ints (_scale, _scaled, _unscaled) and takes coroot pairings (_pairing) and
reflection steps (_reflect) on them; _orbit and _antidominant walk a
group's orbits with those, and the other modules only call them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial, lcm
from operator import attrgetter, mul

from .errors import (
    DimensionMismatch,
    GroupMismatch,
    InternalInconsistency,
    InvalidInput,
    UnsupportedAlgebra,
)
from .record import Record

MAX_TOTAL_RANK = 4

# Families realized in the trace-zero subspace of their ambient block;
# only these need the mean-zero projection when weights are canonicalized.
TRACE_ZERO_FAMILIES = ("A", "G")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Weight(Record):
    """Exact rational coordinate vector in the epsilon-basis."""

    def __init__(self, coords: tuple[Fraction, ...]):
        self._init(locals())

    @staticmethod
    def of(*values) -> "Weight":
        return Weight(tuple(_frac(v) for v in values))

    def __add__(self, other: "Weight") -> "Weight":
        _check_dim(self, other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_dim(self, other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scaled(self, c) -> "Weight":
        c = _frac(c)
        return Weight(tuple(c * a for a in self.coords))

    def __len__(self) -> int:
        return len(self.coords)


def _check_dim(a: Weight, b: Weight) -> None:
    if len(a.coords) != len(b.coords):
        raise DimensionMismatch(
            f"ambient ranks differ: {len(a.coords)} vs {len(b.coords)}"
        )


def inner_product(a: Weight, b: Weight) -> Fraction:
    """Symmetric bilinear form; the epsilon-basis is orthonormal."""
    _check_dim(a, b)
    return sum((x * y for x, y in zip(a.coords, b.coords)), Fraction(0))


def coroot_pairing(lam: Weight, alpha: Weight) -> Fraction:
    """<lam, alpha^vee> = 2<lam, alpha>/<alpha, alpha>."""
    norm = inner_product(alpha, alpha)
    if norm == 0:
        raise InvalidInput("coroot pairing against the zero vector")
    return 2 * inner_product(lam, alpha) / norm


def lex_positive(w: Weight) -> bool:
    # A Fraction carries its sign on the numerator.
    for c in w.coords:
        if c.numerator:
            return c.numerator > 0
    return False


def _factor_roots(family: str, dim: int, offset: int, ambient: int):
    """Simple roots and all roots of one factor, in ambient coordinates.

    The factor owns coordinates offset .. offset + dim - 1; vec writes
    (index, value) entries of that block into a zero ambient vector.
    Positive roots are exactly the lexicographically positive ones in
    every realization used here.
    """

    def vec(*entries) -> Weight:
        coords = [Fraction(0)] * ambient
        for i, c in entries:
            coords[offset + i] = Fraction(c)
        return Weight(tuple(coords))

    if family == "G":
        # Trace-zero realization in Q^3, coordinates ordered so that the
        # classical positive system is the lexicographically positive one.
        positives = [
            vec(*enumerate(v))
            for v in ((0, 1, -1), (1, -2, 1), (1, -1, 0), (1, 0, -1), (1, 1, -2), (2, -1, -1))
        ]
        return positives[:2], positives + [-v for v in positives]
    chain = [vec((i, 1), (i + 1, -1)) for i in range(dim - 1)]
    if family == "A":
        return chain, [vec((i, 1), (j, -1)) for i in range(dim) for j in range(dim) if i != j]
    pairs = [
        vec((i, si), (j, sj))
        for i in range(dim)
        for j in range(i + 1, dim)
        for si in (1, -1)
        for sj in (1, -1)
    ]
    if family == "D":
        return chain + [vec((dim - 2, 1), (dim - 1, 1))], pairs
    scale = 1 if family == "B" else 2
    return chain + [vec((dim - 1, scale))], pairs + [
        vec((i, s * scale)) for i in range(dim) for s in (1, -1)
    ]


class RootSystem(Record):
    """Root data of a semisimple algebra in a fixed exact realization."""

    def __init__(self, type_label: tuple[tuple[str, int], ...], ambient: int,
                 roots: tuple[Weight, ...], positive_roots: tuple[Weight, ...],
                 simple_roots: tuple[Weight, ...], rho_tilde: Weight,
                 factor_slices: tuple[tuple[int, int], ...]):
        self._init(locals())

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.type_label)

    @property
    def dim(self) -> int:
        return len(self.roots) + self.rank

    @property
    def weyl_order(self) -> int:
        """Order of the Weyl group: the product of its factors' orders."""
        order = 1
        for fam, rank in self.type_label:
            if fam == "A":
                order *= factorial(rank + 1)
            elif fam in ("B", "C"):
                order *= 2**rank * factorial(rank)
            elif fam == "D":
                order *= 2 ** (rank - 1) * factorial(rank)
            else:  # G2
                order *= 12
        return order


def build_root_system(spec: Iterable[tuple[str, int]]) -> RootSystem:
    """Build the direct sum of the listed (family, rank) factors."""
    spec = tuple((str(fam).upper(), int(rank)) for fam, rank in spec)
    if not spec:
        raise UnsupportedAlgebra("empty algebra specification")
    for fam, rank in spec:
        if fam not in ("A", "B", "C", "D", "G"):
            raise UnsupportedAlgebra(f"family {fam!r} not in A, B, C, D, G")
        if rank < 1:
            raise UnsupportedAlgebra(f"rank {rank} must be positive")
        if fam == "D" and rank < 2:
            raise UnsupportedAlgebra("type D requires rank >= 2")
        if fam == "G" and rank != 2:
            raise UnsupportedAlgebra("type G exists only in rank 2")
    total_rank = sum(r for _, r in spec)
    if total_rank > MAX_TOTAL_RANK:
        raise UnsupportedAlgebra(
            f"total rank {total_rank} exceeds ceiling {MAX_TOTAL_RANK}"
        )

    dims = [3 if fam == "G" else rank + (fam == "A") for fam, rank in spec]
    ambient = sum(dims)
    slices = []
    offset = 0
    simple_roots: list[Weight] = []
    roots: list[Weight] = []
    for (fam, _), dim in zip(spec, dims):
        simples, factor_roots = _factor_roots(fam, dim, offset, ambient)
        slices.append((offset, offset + dim))
        simple_roots += simples
        roots += factor_roots
        offset += dim

    if any(c.denominator != 1 for r in roots for c in r.coords):
        raise InternalInconsistency("root coordinates are not all integers")
    positive = tuple(r for r in roots if lex_positive(r))
    if 2 * len(positive) != len(roots):
        raise InternalInconsistency("positive roots are not half of all roots")
    rho_tilde = _half_sum(positive, ambient)
    return RootSystem(
        type_label=spec,
        ambient=ambient,
        roots=tuple(roots),
        positive_roots=positive,
        simple_roots=tuple(simple_roots),
        rho_tilde=rho_tilde,
        factor_slices=tuple(slices),
    )


class WeylElement(Record):
    """Orthogonal matrix acting on epsilon-coordinates, with a length."""

    def __init__(self, matrix: tuple[tuple[Fraction, ...], ...], length: int):
        self._init(locals())

    def apply(self, w: Weight) -> Weight:
        if len(w.coords) != len(self.matrix):
            raise DimensionMismatch(
                f"element acts on dimension {len(self.matrix)}, got {len(w.coords)}"
            )
        return Weight(
            tuple(
                sum((row[j] * w.coords[j] for j in range(len(row))), Fraction(0))
                for row in self.matrix
            )
        )


def reflection_matrix(alpha: Weight) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of s_alpha: v -> v - <v, alpha^vee> alpha."""
    n = len(alpha.coords)
    norm = inner_product(alpha, alpha)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            val = Fraction(1 if i == j else 0)
            val -= 2 * alpha.coords[i] * alpha.coords[j] / norm
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )


class WeylGroup(Record):
    """A reflection group numbered once, with its Bruhat table.

    elements are sorted by (length, matrix); index maps each matrix to its
    position there, and left[k][i] is the position of s_k times element i,
    s_k the reflection in simple_roots[k].  parents[j] = (k, i) says that
    the closure first found element j as s_k times element i, so i < j;
    the identity, element 0, has parent None.  Groups are shared and
    compared by identity.
    """

    def __init__(self, simple_roots: tuple[Weight, ...], elements: tuple[WeylElement, ...],
                 index: dict, left: tuple[tuple[int, ...], ...],
                 parents: tuple[tuple[int, int] | None, ...]):
        self._init(locals())

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


def generate_group(generators: Sequence[Weight], ambient: int) -> WeylGroup:
    """The group of a simple system, its lengths and table in one closure pass.

    A breadth-first closure from the identity left-multiplies by the
    reflections in the simple roots `generators`; an element's depth is its
    length (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).
    """
    gen_mats = [reflection_matrix(a) for a in generators]
    ident = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(ambient))
        for i in range(ambient)
    )
    # Matrices are numbered as found; products and depths refer to those
    # numbers, so each product is hashed once.
    found = {ident: 0}
    mats, depth, parent = [ident], [0], [None]
    products: list[list[int]] = [[] for _ in gen_mats]
    for k, m in enumerate(mats):  # mats grows while it is read: breadth first
        for g_index, (g, row) in enumerate(zip(gen_mats, products)):
            prod = _mat_mul(g, m)
            number = found.get(prod)
            if number is None:
                number = found[prod] = len(mats)
                mats.append(prod)
                depth.append(depth[k] + 1)
                parent.append((g_index, k))
            row.append(number)
    order = sorted(range(len(mats)), key=lambda k: (depth[k], mats[k]))
    position = {k: i for i, k in enumerate(order)}
    elements = tuple(WeylElement(matrix=mats[k], length=depth[k]) for k in order)
    return WeylGroup(
        simple_roots=tuple(generators),
        elements=elements,
        index={w.matrix: i for i, w in enumerate(elements)},
        left=tuple(tuple(position[row[k]] for k in order) for row in products),
        parents=tuple(
            None if parent[k] is None else (parent[k][0], position[parent[k][1]])
            for k in order
        ),
    )


# The integer layer: roots are int vectors (build_root_system checks it), and
# a weight is the int vector scale * w for a scale that clears its denominators.

_numerator = attrgetter("numerator")


def _int_coords(root: Weight) -> tuple[int, ...]:
    """The coordinates of a root as ints."""
    return tuple(map(_numerator, root.coords))


def _int_root(root: Weight) -> tuple[tuple[int, ...], int]:
    """A root's coordinates as ints and its norm <root, root>."""
    coords = _int_coords(root)
    return coords, sum(c * c for c in coords)


def _half_sum(roots: Sequence[Weight], ambient: int) -> Weight:
    """Half the sum of the given roots, added up as ints and halved once."""
    sums = list(map(sum, zip(*map(_int_coords, roots)))) or [0] * ambient
    return _unscaled(sums, 2)


def _scale(simple_roots: Iterable[Weight], *weights: Weight) -> int:
    """D = lcm of the weights' coordinate denominators * lcm of the root norms.

    For every root beta of the group of simple_roots, D * <w(v), beta^vee>
    = 2 (lcm(norms) / <beta, beta>) <lcm(dens) v, w^-1 beta> is an int, so
    at scale D each reflection step of _orbit and _antidominant is exact.
    """
    dens = (c.denominator for w in weights for c in w.coords)
    return lcm(*dens) * lcm(*(_int_root(a)[1] for a in simple_roots))


def _scaled(w: Weight, scale: int) -> tuple[int, ...]:
    """scale * w as ints; scale must clear every denominator of w."""
    if any(scale % c.denominator for c in w.coords):
        raise InternalInconsistency(f"scale {scale} does not clear a coordinate denominator")
    return tuple(c.numerator * (scale // c.denominator) for c in w.coords)


def _unscaled(x: Sequence[int], scale: int) -> Weight:
    """The weight x / scale, with Fraction coordinates."""
    return Weight(tuple(Fraction(c, scale) for c in x))


def _pairing(x: Sequence[int], root: tuple[tuple[int, ...], int], scale: int = 1):
    """divmod(2 <x, alpha>, <alpha, alpha> * scale) for an int x and an _int_root:
    <x / scale, alpha^vee> is an int iff the remainder is 0."""
    alpha, norm = root
    return divmod(2 * sum(map(mul, x, alpha)), norm * scale)


def _int_pairing(x: Sequence[int], root: tuple[tuple[int, ...], int]) -> int:
    """<x, alpha^vee> for an int vector x and an _int_root; raises unless it is an int."""
    c, r = _pairing(x, root)
    if r:
        raise InternalInconsistency("a coroot pairing left the integers")
    return c


def _reflect(x: tuple[int, ...], root: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
    """s_alpha(x) = x - <x, alpha^vee> alpha for an int vector x and an _int_root."""
    c = _int_pairing(x, root)
    return tuple([a - c * b for a, b in zip(x, root[0])])


def _orbit(group: WeylGroup, x: tuple[int, ...]) -> list[tuple[int, ...]]:
    """[w(x) for w in group], in group order, for an int vector x at _scale.

    Each image is one reflection of its BFS parent's image:
    s_k w(x) = w(x) - <w(x), alpha_k^vee> alpha_k.
    """
    roots = [_int_root(a) for a in group.simple_roots]
    images = [x]
    for k, i in group.parents[1:]:
        images.append(_reflect(images[i], roots[k]))
    return images


def _antidominant(group: WeylGroup, x: tuple[int, ...]) -> tuple[int, ...]:
    """The one point of x's regular orbit that pairs negatively with every
    simple root of group, and so with every positive root; x is at _scale.

    Reached by reflecting in the first simple root that pairs positively,
    at most once per positive root, with no orbit built (Humphreys,
    Reflection Groups and Coxeter Groups, 1.12).  A zero pairing: the
    orbit is singular.
    """
    roots = [_int_root(a) for a in group.simple_roots]
    while True:
        pairings = [_int_pairing(x, root) for root in roots]
        if 0 in pairings:
            raise InternalInconsistency("regular orbit produced a zero pairing")
        k = next((k for k, c in enumerate(pairings) if c > 0), None)
        if k is None:
            return x
        x = _reflect(x, roots[k])


# Groups built so far in this process, keyed by the arguments of
# generate_group.  Total rank is capped at MAX_TOTAL_RANK, so the keys are
# finite and nothing is ever evicted.
_GROUPS: dict[tuple, WeylGroup] = {}


def reflection_group(simple_roots: Sequence[Weight], ambient: int) -> WeylGroup:
    """generate_group, run at most once per process for each simple system.

    Every caller gets the same WeylGroup; treat it and its elements as
    immutable.
    """
    key = (tuple(simple_roots), ambient)
    group = _GROUPS.get(key)
    if group is None:
        group = _GROUPS[key] = generate_group(*key)
    return group


def weyl_group(rs: RootSystem) -> WeylGroup:
    """The full Weyl group of rs, shared by every caller (see reflection_group)."""
    group = reflection_group(rs.simple_roots, rs.ambient)
    if group[-1].length != len(rs.positive_roots):
        raise InternalInconsistency("longest length is not the positive root count")
    return group


def bruhat_leq_over(i: int, j: int, group: WeylGroup) -> bool:
    """Bruhat order in a WeylGroup, at any rank, on group positions.

    True iff group[i] <= group[j].  Uses the lifting property
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2): for a simple
    s with sy < y, x <= y iff min(x, sx) <= sy.  The loop takes at most
    l(y) steps of lookups in the group's left-multiplication table.
    """
    elements, left = group.elements, group.left
    while elements[i].length < elements[j].length:
        # A left descent s of y: x <= y iff min(x, sx) <= sy.
        s = next(s for s in left if elements[s[j]].length < elements[j].length)
        j = s[j]
        if elements[s[i]].length < elements[i].length:
            i = s[i]
    return i == j


def bruhat_leq(x: WeylElement, y: WeylElement, rs: RootSystem) -> bool:
    """Bruhat order on the full Weyl group of rs, at any rank.

    An element outside the group raises GroupMismatch.
    """
    group = weyl_group(rs)
    try:
        i, j = group.index[x.matrix], group.index[y.matrix]
    except KeyError:
        raise GroupMismatch("element does not belong to the group") from None
    return bruhat_leq_over(i, j, group)


def project_trace_zero(w: Weight, rs: RootSystem) -> Weight:
    """Subtract the block mean on every trace-zero factor block.

    Evaluations against roots are invariant under this shift; it is used
    to compare weights that are only defined modulo (1, ..., 1) per block.
    """
    coords = list(w.coords)
    for (fam, _), (lo, hi) in zip(rs.type_label, rs.factor_slices):
        if fam in TRACE_ZERO_FAMILIES:
            mean = sum(coords[lo:hi], Fraction(0)) / (hi - lo)
            for i in range(lo, hi):
                coords[i] -= mean
    return Weight(tuple(coords))
