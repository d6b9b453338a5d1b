"""Independent brute-force oracles the fast implementations are tested against.

Each oracle recomputes a quantity from its definition with no shared code
paths: the Euler characteristic as an alternating Hom-space sum over the
two-step relative Koszul complex, vector partitions by trying each value of
one multiplicity at a time, Bruhat order by the subword property, Weyl
groups as the closure under every positive reflection with inversion-count
lengths, root systems as the closure of their simple roots under their own
reflections, the principal defining vector by exact elimination on
alpha_i(h) = 2, simple-root expansions (2 rho among them) by the same
elimination, antidominant orbit points by a scan of the whole orbit,
block multiplicity matrices from those with every placement found by a full
scan, Weyl orbits, central characters and blocks by applying every group
matrix to the weight, exterior-power weights from itertools.combinations, first-page
dimensions from those weights and the n_k-cohomology windows written out by
hand, and the grading, parabolic and half sums of a pair by Fraction
arithmetic on coordinate tuples.  Nothing is imported from the library but
its error classes and the WeylElement record the group oracles return.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from types import SimpleNamespace

from ghcseries.errors import (
    IndexOutOfRange,
    InternalInconsistency,
    VirtualNotAllowed,
    WindowTooNarrow,
)
from ghcseries.rootsys import WeylElement


def koszul_euler_coefficient(mults: dict[int, int], delta: int) -> int:
    """Alternating sum of dim Hom_t(V(delta) x Lambda^j(k/t), N) over j.

    k/t has t-weights {2, -2}, so the exterior layers carry weights
    {0}, {2, -2}, {0} with signs +, -, +.  Each Hom dimension picks out
    weight multiplicities of N along the weight string of V(delta).
    """
    total = 0
    for w in range(-delta, delta + 1, 2):
        total += 2 * mults.get(w, 0) - mults.get(w + 2, 0) - mults.get(w - 2, 0)
    return total


@cache
def brute_vector_partitions(weights: tuple[int, ...], x: int) -> int:
    """Count tuples (k_1, ..., k_m) >= 0 with sum k_i * w_i = x.

    Each value of the last multiplicity k_m is tried in turn and the rest of
    the tuple counted the same way, with every (weights, x) counted once, so
    the sixteen principal n-weights of C4 at x = 80 stay cheap.
    """
    if not weights:
        return int(x == 0)
    *rest, w = weights
    return sum(brute_vector_partitions(tuple(rest), x - k * w) for k in range(x // w + 1))


def brute_exterior_weights(weights, j: int) -> dict[int, int]:
    """Weight multiset of Lambda^j of a sum of lines, by enumeration."""
    return dict(Counter(sum(combo) for combo in combinations(weights, j)))


def brute_e1_page_dimension(M, p, j: int, kappa: int) -> int:
    """Weight-kappa dimension of the j-th first-page term, from the definition.

    The term is H0 tensor Lambda^j plus H1 tensor Lambda^(j-1) of the dual
    of n minus the e-line.  For M = sum c_delta V(delta), H0 is c_x at
    t-weight x and H1 is c_delta at -delta-2; both are known only where M
    is, that is H0 through the cutoff and H1 down to -cutoff-2.  The checks
    and messages follow the library's order: degree, genuineness, the
    weight-2 root, then the first lookup outside its window, with H0 before
    H1 and the subsets of each exterior power in colex order (the order in
    which a sum first arises when the lines are added one at a time).
    """
    if j < 0 or j > p.r + 1:
        raise IndexOutOfRange(f"degree {j} outside [0, {p.r + 1}]")
    if M.virtual:
        raise VirtualNotAllowed("n_k-cohomology needs a genuine character")
    cutoff = M.window[1]
    perp = list(p.n_weights)
    if 2 not in perp:
        raise InternalInconsistency("n carries no weight-2 root")
    perp.remove(2)

    def subsets(size):
        return sorted(combinations(range(len(perp)), size), key=lambda c: c[::-1])

    total = 0
    for combo in subsets(j):
        x = kappa + sum(perp[i] for i in combo)
        if cutoff is not None and x > cutoff:
            raise WindowTooNarrow(f"weight {x} above the trusted window (None, {cutoff})")
        total += M.mults.get(x, 0)
    for combo in subsets(j - 1) if j >= 1 else ():
        y = kappa + sum(perp[i] for i in combo)
        if cutoff is not None and y < -cutoff - 2:
            raise WindowTooNarrow(
                f"weight {y} below the trusted window ({-cutoff - 2}, None)"
            )
        total += M.mults.get(-y - 2, 0)
    return total


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _exact(x: Fraction):
    """x as an int when it is one: ints multiply faster than Fractions, and
    compare and hash equal to them, so results still equal the library's."""
    return x.numerator if x.denominator == 1 else x


def _reflection(root) -> tuple:
    """Matrix of v -> v - 2 <v, root> / <root, root> root."""
    a = root.coords
    norm = sum(c * c for c in a)
    n = len(a)
    return tuple(
        tuple(_exact(int(i == j) - 2 * a[i] * a[j] / norm) for j in range(n))
        for i in range(n)
    )


def _inversions(matrix, positive_roots) -> int:
    """How many of the given positive roots the matrix sends outside them."""
    positive = {tuple(_exact(c) for c in r.coords) for r in positive_roots}
    return sum(
        1
        for r in positive
        if tuple(sum(x * y for x, y in zip(row, r)) for row in matrix) not in positive
    )


def integral_positive_roots(kappa, positive_roots) -> tuple:
    """The given positive roots alpha with 2 <kappa, alpha> / <alpha, alpha> in Z."""

    def pairing(a):
        dot = sum(x * y for x, y in zip(kappa.coords, a.coords))
        return Fraction(2) * dot / sum(x * x for x in a.coords)

    return tuple(a for a in positive_roots if pairing(a).denominator == 1)


def reflection_closure(positive_roots, ambient: int) -> tuple[WeylElement, ...]:
    """The group generated by the reflections in every given positive root.

    Lengths count the positive roots each element sends outside the given
    ones; elements are sorted by (length, matrix).
    """
    identity = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
    reflections = [_reflection(a) for a in positive_roots]
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for m in frontier:
            for s in reflections:
                prod = _mat_mul(s, m)
                if prod not in seen:
                    seen.add(prod)
                    found.append(prod)
        frontier = found
    elements = [
        WeylElement(matrix=m, length=_inversions(m, positive_roots)) for m in seen
    ]
    return tuple(sorted(elements, key=lambda w: (w.length, w.matrix)))


def simple_root_closure(simple_roots) -> frozenset[tuple]:
    """Every image of a simple root under words in the simple reflections."""
    reflections = [_reflection(a) for a in simple_roots]
    seen = {tuple(a.coords) for a in simple_roots}
    frontier = set(seen)
    while frontier:
        frontier = {_act(s, v) for v in frontier for s in reflections} - seen
        seen |= frontier
    return frozenset(seen)


def lex_positive_half(roots) -> tuple:
    """The roots whose first nonzero coordinate is positive, in the given order."""
    return tuple(r for r in roots if _lex_positive(r.coords))


def indecomposable_roots(positive_roots) -> tuple:
    """The positive roots that are not the sum of two others, in the given order."""
    sums = {
        tuple(x + y for x, y in zip(a.coords, b.coords))
        for a, b in combinations(positive_roots, 2)
    }
    return tuple(a for a in positive_roots if a.coords not in sums)


def _right_multiply(rs, w: WeylElement, simple_matrix) -> WeylElement:
    prod = _mat_mul(w.matrix, simple_matrix)
    return WeylElement(matrix=prod, length=_inversions(prod, rs.positive_roots))


def reduced_words(rs, group) -> dict[WeylElement, list[int]]:
    """One reduced word (a list of simple-root indices) per group element."""
    simples = [_reflection(a) for a in rs.simple_roots]
    identity = min(group, key=lambda w: w.length)
    assert identity.length == 0
    words: dict[WeylElement, list[int]] = {identity: []}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for i, s in enumerate(simples):
                ws = _right_multiply(rs, w, s)
                if ws not in words and ws.length == w.length + 1:
                    words[ws] = words[w] + [i]
                    nxt.append(ws)
        frontier = nxt
    assert len(words) == len(group)
    return words


def bruhat_lower_intervals(rs, group) -> dict[WeylElement, frozenset[WeylElement]]:
    """The lower Bruhat interval of every element, by the subword property.

    x <= y iff x is the product of some subword of a reduced word for y.
    reduced_words extends the word of w by one letter i to reach ws, so the
    subword products of ws's word are those of w's word, each taken with
    and without a final s_i: the interval of ws is the interval of w
    together with its right translate by s_i.
    """
    simples = [_reflection(a) for a in rs.simple_roots]
    by_matrix = {w.matrix: w for w in group}
    words = reduced_words(rs, group)
    intervals: dict[WeylElement, frozenset[WeylElement]] = {}
    for y, word in sorted(words.items(), key=lambda item: len(item[1])):
        if not word:
            intervals[y] = frozenset([y])
            continue
        prefix = by_matrix[_mat_mul(y.matrix, simples[word[-1]])]
        assert words[prefix] == word[:-1]
        below = intervals[prefix]
        intervals[y] = below | {
            by_matrix[_mat_mul(u.matrix, simples[word[-1]])] for u in below
        }
    return intervals


def _act(matrix, coords) -> tuple:
    return tuple(sum(x * c for x, c in zip(row, coords)) for row in matrix)


def orbit_scan(group, coords) -> list[tuple]:
    """[w(coords) for w in group], each a matrix-vector product, in group order."""
    return [_act(w.matrix, coords) for w in group]


def _trace_zero(coords, rs) -> tuple:
    """Subtract the block mean on every A or G factor block of rs."""
    out = list(coords)
    for (family, _), (lo, hi) in zip(rs.type_label, rs.factor_slices):
        if family in ("A", "G"):
            mean = Fraction(sum(out[lo:hi])) / (hi - lo)
            out[lo:hi] = [c - mean for c in out[lo:hi]]
    return tuple(out)


def _pairing(coords, root) -> Fraction:
    """<coords, root^vee> = 2 <coords, root> / <root, root>."""
    return Fraction(2 * sum(x * y for x, y in zip(coords, root))) / sum(
        y * y for y in root
    )


def central_character_scan(kappa, rs, group) -> tuple:
    """(representative, regular, integral, orbit size) of kappa, by scanning
    the orbit of its trace-zero projection under every element of group."""
    base = _trace_zero(kappa.coords, rs)
    orbit = set(orbit_scan(group, base))
    integral = all(_pairing(base, a.coords).denominator == 1 for a in rs.roots)
    return max(orbit), len(orbit) == len(group), integral, len(orbit)


def block_scan(representative, group, p) -> list[tuple]:
    """(w, nu, omega, mu, dim_e, merged count) for every distinct nu = w(rep) -
    rho_tilde_adapted, sorted by (mu, nu).  w is the first element in group
    order giving that nu; a one-root Levi keeps the nu pairing to a
    nonnegative int n with its positive root, with dim_e = n + 1."""
    rho = p.rho_tilde_adapted.coords
    h = p.embedding.h_vector.coords
    found: dict[tuple, list] = {}
    for w, image in zip(group, orbit_scan(group, representative.coords)):
        nu = tuple(Fraction(x - r) for x, r in zip(image, rho))
        found.setdefault(nu, [w, 0])[1] += 1
    rows = []
    for nu, (w, count) in found.items():
        dim_e = 1
        if p.m_positive_roots:
            n = _pairing(nu, p.m_positive_roots[0].coords)
            if n.denominator != 1 or n < 0:
                continue
            dim_e = int(n) + 1
        omega = Fraction(sum(x * y for x, y in zip(nu, h)))
        rows.append((w, nu, omega, omega + p.two_rho_n_perp, dim_e, count))
    return sorted(rows, key=lambda row: (row[3], row[1]))


def solve_by_elimination(rows) -> tuple[Fraction, ...]:
    """The x with row[:-1] . x = row[-1] on every augmented row, by Gauss-Jordan elimination.

    The system may have more rows than unknowns; an AssertionError says it
    has no solution or more than one.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    unknowns = len(rows[0]) - 1
    for col in range(unknowns):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        assert pivot is not None, "the system has more than one solution"
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    assert all(row[-1] == 0 for row in rows[unknowns:]), "the system has no solution"
    return tuple(row[-1] for row in rows[:unknowns])


def simple_expansion(simple_roots, coords) -> tuple[Fraction, ...]:
    """The c with coords = sum c_i simple_roots[i], by solve_by_elimination."""
    return solve_by_elimination(
        [[a.coords[i] for a in simple_roots] + [x] for i, x in enumerate(coords)]
    )


def principal_defining_vector(rs) -> tuple[Fraction, ...]:
    """The h with alpha_i(h) = 2 on every simple root, by Gauss-Jordan elimination.

    Factors of type A and G live in the trace-zero part of their coordinate
    block, so each such block also gets the row "coordinates sum to 0";
    the system then has exactly one solution.
    """
    rows = [list(a.coords) + [Fraction(2)] for a in rs.simple_roots]
    for (family, _), (lo, hi) in zip(rs.type_label, rs.factor_slices):
        if family in ("A", "G"):
            block = [Fraction(int(lo <= i < hi)) for i in range(rs.ambient)]
            rows.append(block + [Fraction(0)])
    assert len(rows) == rs.ambient, "the system is not square"
    return solve_by_elimination(rows)


def antidominant_orbit_point(key: tuple, group, positive_roots) -> tuple:
    """The one point of key's orbit under group (WeylElements) that pairs
    negatively with every given positive root, by scanning the whole orbit."""
    orbit = frozenset(_act(w.matrix, key) for w in group)
    found = [
        point
        for point in orbit
        if all(sum(x * y for x, y in zip(point, a.coords)) < 0 for a in positive_roots)
    ]
    assert len(found) == 1, found
    return found[0]


def brute_multiplicity_matrix(elements, p) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """The 0/1 multiplicity matrix and linkage-class ids of a regular block.

    Each block element's key is -(nu + rho_tilde_adapted).  Its integral
    group is the closure under the reflections in its integral positive
    roots; the antidominant point is the orbit point pairing negatively
    with every one of those roots, and the placement is the group element
    sending that point to the key, each found by scanning the whole orbit
    or group.  A linkage class is an orbit, and an orbit has one
    antidominant point, so classes are numbered by first appearance of that
    point, and m(E, D) = 1 iff D is in E's class and D's placement lies in
    the lower Bruhat interval of E's, read off the subword property in the
    integral group with its own simple roots (the positives that are not a
    sum of two others).
    """
    shift = p.rho_tilde_adapted.coords
    ambient = len(shift)
    found = []
    for e in elements:
        key = tuple(-(a + b) for a, b in zip(e.nu.coords, shift))
        positives = integral_positive_roots(
            SimpleNamespace(coords=key), p.adapted_positive_roots
        )
        simples = indecomposable_roots(positives)
        group = reflection_closure(positives, ambient)
        antidominant = antidominant_orbit_point(key, group, positives)
        placement = [w for w in group if _act(w.matrix, antidominant) == key]
        assert len(placement) == 1, placement
        integral = SimpleNamespace(simple_roots=simples, positive_roots=positives)
        found.append((antidominant, placement[0], bruhat_lower_intervals(integral, group)))
    classes = list(dict.fromkeys(point for point, _, _ in found))
    orbit_ids = tuple(classes.index(point) for point, _, _ in found)
    m_matrix = tuple(
        tuple(
            int(point_e == point_d and x_d in below_e[x_e])
            for point_d, x_d, _ in found
        )
        for point_e, x_e, below_e in found
    )
    return m_matrix, orbit_ids


def _fraction_dot(a, b) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _fraction_half_sum(vectors, ambient: int) -> tuple[Fraction, ...]:
    total = [Fraction(0)] * ambient
    for v in vectors:
        total = [t + Fraction(x) for t, x in zip(total, v)]
    return tuple(t / 2 for t in total)


def _lex_positive(v) -> bool:
    return next((Fraction(c) > 0 for c in v if Fraction(c) != 0), False)


def fraction_coroot(beta) -> tuple[Fraction, ...]:
    """2 beta / <beta, beta>."""
    scale = Fraction(2) / _fraction_dot(beta, beta)
    return tuple(scale * Fraction(c) for c in beta)


def fraction_coroot_sum(roots) -> tuple[Fraction, ...]:
    """2 rho^vee: the coroots of the lexicographically positive roots, added up."""
    total = [Fraction(0)] * len(roots[0])
    for alpha in filter(_lex_positive, roots):
        total = [t + c for t, c in zip(total, fraction_coroot(alpha))]
    return tuple(total)


def fraction_pair(roots, h) -> SimpleNamespace:
    """What a pair reads off its roots (coordinate tuples) and defining vector h.

    grading[i] = <roots[i], h> as an int, or None when some value is not an
    integer; first_non_integral is then the first such (root, value).  n
    holds the roots with a positive value, sorted by (value, coordinates),
    and m the roots with value 0, sorted by coordinates; rho_tilde and
    rho_tilde_n are half the sums over the lexicographically positive roots
    and over n, and rho_tilde_adapted adds half the sum over the
    lexicographically positive part of m to rho_tilde_n.
    """
    roots = [tuple(Fraction(c) for c in r) for r in roots]
    ambient = len(h)
    values = [_fraction_dot(r, h) for r in roots]
    bad = [(r, v) for r, v in zip(roots, values) if v.denominator != 1]
    grading = None if bad else tuple(int(v) for v in values)
    n = sorted((v, r) for v, r in zip(values, roots) if v > 0)
    m = sorted(r for v, r in zip(values, roots) if v == 0)
    rho_tilde_n = _fraction_half_sum([r for _, r in n], ambient)
    m_half = _fraction_half_sum(filter(_lex_positive, m), ambient)
    return SimpleNamespace(
        grading=grading,
        first_non_integral=bad[0] if bad else None,
        rho_tilde=_fraction_half_sum(filter(_lex_positive, roots), ambient),
        n_roots=tuple(r for _, r in n),
        n_weights=tuple(int(v) for v, _ in n),
        m_roots=tuple(m),
        rho_tilde_n=rho_tilde_n,
        rho_tilde_adapted=tuple(a + b for a, b in zip(rho_tilde_n, m_half)),
    )
