"""Independent reference implementations used as oracles in tests.

Nothing here imports the package's combinatorics: partition counting uses the
pentagonal-number recurrence, class data comes from sympy, fixed-point counts
are plain itertools enumeration, orbit counts on tuples come from Burnside's
lemma, representatives lay cycles out shortest first (the package uses
longest first, so agreement also exercises class invariance), induced
tables are built one element and one point at a time, and the
base-controlling verdict tries every set of points.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

import numpy as np

from sympy.utilities.iterables import partitions as sympy_partitions


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
