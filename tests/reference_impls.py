"""Independent reference implementations used as oracles in tests.

Nothing here imports the package's combinatorics: partition counting uses the
pentagonal-number recurrence, class data comes from sympy, fixed-point counts
are plain itertools enumeration (for uniform partitions also a search that
lists only the fixed ones) or, for k-subsets, one product of
(1 + x^length) per class, permutations with all cycles long are counted
by the cycle through the last point, the value distribution of a character merges
these per-class values, orbit counts on tuples come from Burnside's
lemma, representatives lay cycles out shortest first (the package uses
longest first, so agreement also exercises class invariance), induced
tables (subsets, uniform partitions and the wreath product action) are
built one element and one point at a time, the base-controlling verdict
tries every set of points, the first counterexample comes from a
depth-first search with nothing memoised, and
the distinguishing number of a group (the threshold of a wreath product
over it) comes from a search over the set partitions of its domain.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial

import numpy as np

from sympy.utilities.iterables import partitions as sympy_partitions

from basechar.errors import CapacityError, ConsistencyError

MAX_DISTINGUISHING_POINTS = 12


@lru_cache(maxsize=None)
def partition_count(n):
    """p(n) by Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        term = partition_count(n - g1) + partition_count(n - g2)
        total += term if k % 2 else -term
        k += 1
    return total


def sympy_class_data(n):
    """Set of (sorted parts, class size, sign) triples from sympy."""
    out = set()
    for mult in sympy_partitions(n):
        size = factorial(n)
        for part, count in mult.items():
            size //= part ** count * factorial(count)
        ncycles = sum(mult.values())
        sign = -1 if (n - ncycles) % 2 else 1
        parts = []
        for part in sorted(mult, reverse=True):
            parts.extend([part] * mult[part])
        out.add((tuple(parts), size, sign))
    return out


def perm_shortest_first(parts, n):
    """A permutation of cycle type `parts`, shortest cycles laid out first."""
    images = list(range(n))
    pos = 0
    for length in sorted(parts):
        for i in range(length):
            images[pos + i] = pos + (i + 1) % length
        pos += length
    return images


def perm_sign(p):
    """Sign of a permutation, +1 even and -1 odd, by walking its cycles."""
    seen = [False] * len(p)
    sign = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _times_one_plus(poly, j):
    # poly * (1 + x^j), truncated to the length of poly.
    return poly[:j] + [a + b for a, b in zip(poly[j:], poly)]


def chi_subsets(parts, k):
    """Number of k-subsets of [n] fixed by a permutation of cycle type
    parts, one class at a time.

    A fixed k-subset is a union of whole cycles, so this is the
    coefficient of x^k in the product over cycles of (1 + x^length).
    """
    n = sum(parts)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    poly = [1] + [0] * k
    for j in parts:
        if j <= k:
            poly = _times_one_plus(poly, j)
    return poly[k]


def count_fixed_subsets(perm, k):
    n = len(perm)
    return sum(1 for subset in combinations(range(n), k)
               if tuple(sorted(perm[x] for x in subset)) == subset)


def uniform_partitions_frozen(n, r, s):
    """All partitions of range(n) into r blocks of size s, as frozensets."""
    def extend(free):
        if not free:
            yield frozenset()
            return
        first = free[0]
        rest = free[1:]
        for others in combinations(rest, s - 1):
            block = frozenset((first,) + others)
            left = [p for p in rest if p not in block]
            for sub in extend(left):
                yield sub | {block}
    return list(extend(list(range(n))))


def count_fixed_uniform(perm, parts_list):
    fixed = 0
    for part in parts_list:
        image = frozenset(frozenset(perm[x] for x in block) for block in part)
        if image == part:
            fixed += 1
    return fixed


def count_invariant_partitions(perm, s):
    """Partitions of range(len(perm)) into blocks of size s that perm
    fixes, enumerated one at a time: the block of the least free point is
    tried in every way and kept when its images under perm are blocks
    disjoint from it and from each other."""
    def search(free):
        if not free:
            return 1
        first, rest = free[0], free[1:]
        total = 0
        for others in combinations(rest, s - 1):
            block = frozenset((first,) + others)
            orbit = [block]
            image = frozenset(perm[x] for x in block)
            while image != block:
                if any(image & earlier for earlier in orbit):
                    break
                orbit.append(image)
                image = frozenset(perm[x] for x in image)
            else:
                used = frozenset().union(*orbit)
                total += search([x for x in rest if x not in used])
        return total

    return search(list(range(len(perm))))


def long_cycle_counts(n, k):
    """Even and odd permutations of m points, m = 0..n, whose cycles are
    all longer than k, as characters._long_cycle_counts returns them.

    The cycle through the last point has length j > k and (m-1)!/(m-j)!
    ways to fill it, a running product over j, so D(m) = sum over j > k
    of (m-1)!/(m-j)! D(m-j), and S(m) alike with a j-cycle signed
    (-1)^(j-1). Returns the lists D, (D + S)/2 and (D - S)/2.
    """
    unsigned = [1] + [0] * n
    signed = [1] + [0] * n
    for m in range(k + 1, n + 1):
        ways = factorial(m - 1) // factorial(m - 1 - k)
        for j in range(k + 1, m + 1):
            unsigned[m] += ways * unsigned[m - j]
            signed[m] += (ways if j % 2 else -ways) * signed[m - j]
            ways *= m - j
    return (unsigned, [(d + s) // 2 for d, s in zip(unsigned, signed)],
            [(d - s) // 2 for d, s in zip(unsigned, signed)])


def subsets_class_values(n, k):
    """(class size, sign, value) for every class of S_n on k-subsets."""
    return [(size, sign, chi_subsets(parts, k))
            for parts, size, sign in sympy_class_data(n)]


def uniform_class_values(n, r, s):
    """(class size, sign, value) for every class of S_n on partitions into
    r blocks of size s, each value counted on one representative."""
    assert n == r * s
    return [(size, sign,
             count_invariant_partitions(perm_shortest_first(parts, n), s))
            for parts, size, sign in sympy_class_data(n)]


def merge_by_value(classes):
    """{value: (all, even)} from (class size, sign, value) triples: the
    permutations taking each value, and the even ones among them."""
    merged = {}
    for size, sign, value in classes:
        total, even = merged.get(value, (0, 0))
        merged[value] = (total + size, even + (size if sign > 0 else 0))
    return merged


def subsets_inner_product(n, k, l):
    """Exact <sgn, chi^l> for the k-subset action, Fractions throughout."""
    total = Fraction(0)
    for mult in sympy_partitions(n):
        size = factorial(n)
        for part, count in mult.items():
            size //= part ** count * factorial(count)
        ncycles = sum(mult.values())
        sign = -1 if (n - ncycles) % 2 else 1
        counts = [0] * (n + 1)
        for part, count in mult.items():
            counts[part] = count
        chi = 0
        for eta in sympy_partitions(k):
            term = 1
            for part, count in eta.items():
                term *= comb(counts[part] if part <= n else 0, count)
            chi += term
        total += Fraction(sign * size * chi ** l, factorial(n))
    assert total.denominator == 1
    return int(total)


def as_arrays(action):
    """(table, labels) of an oracle action as numpy arrays: one int32 row
    per element, and its labels as +1 and -1 (None without labels). The
    oracle keeps a table as one row-major run of points, and a label as
    one byte per row, 0 for +1 and 1 for -1."""
    table = np.fromiter(action.table, dtype=np.int32).reshape(
        action.order, action.degree)
    if action.labels is None:
        return table, None
    return table, 1 - 2 * np.frombuffer(action.labels, dtype=np.uint8).astype(
        np.int32)


def blind_orbit_data(table, l):
    """All orbits on tuples by raw enumeration: list of (orbit size, stab size)."""
    order, degree = table.shape
    seen = set()
    out = []
    for tup in product(range(degree), repeat=l):
        if tup in seen:
            continue
        orbit = {tuple(row[list(tup)]) for row in table}
        stab = sum(1 for row in table
                   if tuple(row[list(tup)]) == tup)
        seen.update(orbit)
        out.append((len(orbit), stab))
    return out


def burnside_orbit_count(table, l):
    """Orbits on l-tuples by Burnside's lemma: |G|^-1 sum over g of fix(g)^l.

    One row per group element, repeated rows allowed; the sum is taken in
    exact integers and must divide by the order.
    """
    order, degree = table.shape
    fixes = np.bincount(np.count_nonzero(table == np.arange(degree), axis=1))
    total = sum(int(count) * fix ** l for fix, count in enumerate(fixes))
    assert total % order == 0, (total, order)
    return total // order


def _block_table(rows, points):
    """Table of the rows acting on points that are tuples of blocks: the
    image of a point maps each block, sorts it, and sorts the blocks."""
    index = {point: i for i, point in enumerate(points)}
    return np.array([[index[tuple(sorted(tuple(sorted(row[x] for x in block))
                                         for block in point))]
                      for point in points] for row in rows], dtype=np.int32)


def subsets_action_table(rows, n, k):
    """(table, point names) of the action on k-subsets of range(n), the
    subsets in lexicographic order."""
    points = [(subset,) for subset in combinations(range(n), k)]
    names = tuple("{" + ",".join(str(x + 1) for x in block) + "}"
                  for (block,) in points)
    return _block_table(rows, points), names


def partitions_action_table(rows, n, r, s):
    """(table, point names) of the action on partitions of range(n) into r
    blocks of size s, each partition its sorted list of sorted blocks and
    the partitions in lexicographic order."""
    points = sorted(tuple(sorted(tuple(sorted(block)) for block in part))
                    for part in uniform_partitions_frozen(n, r, s))
    names = tuple("|".join("".join(str(x + 1) for x in block)
                           for block in point) for point in points)
    return _block_table(rows, points), names


def wreath_action_table(rows, r):
    """(table, point names) of the wreath product with top group S_r in
    product action on r-tuples of the points of range(len(rows[0])), the
    tuples in product order. Row b * r! + s is the b-th r-tuple
    (g_1, ..., g_r) of rows, in product order, with the s-th permutation
    sigma of range(r); it maps x to the tuple whose coordinate i is the
    g_{sigma^-1(i)} image of x_{sigma^-1(i)}."""
    points = list(product(range(len(rows[0])), repeat=r))
    index = {point: i for i, point in enumerate(points)}
    sources = [[sigma.index(i) for i in range(r)]
               for sigma in permutations(range(r))]
    table = [[index[tuple(rows[bottom[j]][x[j]] for j in src)]
              for x in points]
             for bottom in product(range(len(rows)), repeat=r)
             for src in sources]
    names = tuple("(" + ",".join(str(c + 1) for c in x) + ")" for x in points)
    return np.array(table, dtype=np.int32), names


def has_all_plus_stabilizer(table, labels):
    """Whether some set of points has a pointwise stabilizer of more than
    one row whose labels are all +1, trying every subset of the points."""
    fixed = table == np.arange(table.shape[1])
    for size in range(table.shape[1] + 1):
        for subset in combinations(range(table.shape[1]), size):
            stab = fixed[:, list(subset)].all(axis=1)
            if stab.sum() > 1 and (labels[stab] == 1).all():
                return True
    return False


def first_all_plus_chain(table, labels):
    """(points, stabilizer order) of the first violation in the plain
    depth-first search: chains of increasing points, each shrinking the
    pointwise stabilizer of the points before it to more than one row, in
    lexicographic order, stopping at the first stabilizer with only +1
    labels. None when there is none. Nothing is memoised or skipped."""
    fixed = table == np.arange(table.shape[1])

    def search(rows, chain):
        if (labels[rows] == 1).all():
            return chain, len(rows)
        for point in range(chain[-1] + 1 if chain else 0, table.shape[1]):
            child = rows[fixed[rows, point]]
            if 1 < len(child) < len(rows):
                found = search(child, chain + (point,))
                if found is not None:
                    return found
        return None

    return search(np.arange(len(table)), ())


def distinguishing_number(group):
    """Least c such that some coloring of the domain with at most c colors
    has trivial stabilizer (elements preserving every color class setwise).

    Colorings are enumerated up to color renaming as restricted growth
    strings, so each set partition of the domain is tested once.
    """
    m = group.degree
    if m > MAX_DISTINGUISHING_POINTS:
        raise CapacityError(f"degree {m} exceeds {MAX_DISTINGUISHING_POINTS}")
    table, _ = as_arrays(group)
    if group.order == 1:
        return 1

    def any_distinguishing(classes):
        # colorings with exactly `classes` parts, new color first at each point
        colors = np.zeros(m, dtype=np.int32)

        def walk(point, used):
            if m - point < classes - used:
                return False
            if point == m:
                if used != classes:
                    return False
                fixes = (colors[table] == colors).all(axis=1)
                return int(fixes.sum()) == 1
            top = min(used + 1, classes)
            for color in range(top):
                colors[point] = color
                if walk(point + 1, max(used, color + 1)):
                    return True
            return False

        return walk(0, 0)

    for classes in range(1, m + 1):
        if any_distinguishing(classes):
            return classes
    raise ConsistencyError("no distinguishing coloring found for a faithful group")
