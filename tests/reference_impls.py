"""Independent reference implementations used as oracles in tests.

Nothing here imports the package's combinatorics: partition counting uses the
pentagonal-number recurrence, the order of cycle types comes from a
recursion on the first part, class data comes from sympy, fixed-point counts
are plain itertools enumeration (uniform partitions held as tuples of block
bitmasks; for them also a search that lists only the fixed ones) or, for
k-subsets, one product of (1 + x^length) per class, permutations with all
cycles long are counted by the cycle through the last point, the value
distribution of a character merges these per-class values, orbit counts
on tuples come from Burnside's lemma, representatives lay cycles out
shortest first (the package uses longest first, so agreement also
exercises class invariance), induced
tables (subsets, uniform partitions and the wreath product action) are
built one element and one point at a time, the base-controlling verdict
tries every set of points, the first counterexample comes from a
depth-first search with nothing memoised,
the distinguishing number of a group (the threshold of a wreath product
over it) comes from a search over the set partitions of its domain, the
regular orbits on tuples of k-subsets are counted as sets of distinct
membership vectors, with no character at all, the orbit counts o, o_K
and the regular count on tuples of k-subsets come from a column-by-column
count over the partitions of n, a base of l k-subsets is built from n
distinct membership vectors by plain set arithmetic, the least l whose
orbit count has more digits than Python prints comes from logarithms,
the distinct-vector bound L1 from a walk up from l = 1, the plethysm
h_r[h_s] from its sum over the partitions nu of r, and PGL_2(q) is
listed from every invertible 2 x 2 matrix over F_q.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, lgamma, log, log10
import random

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


def cycle_types_recursive(n, max_part):
    """Partitions of n into parts at most max_part, as descending tuples in
    descending lexicographic order: every first part from the largest
    down, then the partitions of the rest into parts no larger."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in cycle_types_recursive(n - first, first):
            yield (first,) + rest


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


def uniform_partitions_masks(n, r, s):
    """All partitions of range(n) into r blocks of size s, each a tuple of
    its blocks as bitmasks (bit x set for point x), by least point."""
    def extend(free):
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        for others in combinations(rest, s - 1):
            block = 1 << first
            for x in others:
                block |= 1 << x
            left = [x for x in rest if not block >> x & 1]
            for sub in extend(left):
                yield (block,) + sub
    return list(extend(list(range(n))))


def count_fixed_uniform(perm, partitions):
    """How many of the partitions, as uniform_partitions_masks lists them,
    perm fixes: each block's image must be a block of the same partition.
    The image of a block is mapped point by point, once per block."""
    images = {}
    fixed = 0
    for part in partitions:
        for block in part:
            image = images.get(block)
            if image is None:
                image = images[block] = sum(1 << perm[x]
                                            for x in range(len(perm))
                                            if block >> x & 1)
            if image not in part:
                break
        else:
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


def _class_size(parts):
    # n! / prod over part sizes i of i^c_i c_i!
    size = factorial(sum(parts))
    for part in set(parts):
        count = parts.count(part)
        size //= part ** count * factorial(count)
    return size


def plethysm_by_nu(r, s):
    """Power-sum expansion of h_r[h_s], scaled by r! s!^r, as
    characters._uniform_partition_coefficients returns it.

    h_r[h_s] = sum over nu |- r of z_nu^-1 prod_i p_{nu_i}[h_s], where
    p_k[h_s] = sum over lambda |- s of z_lambda^-1 p_{k lambda}. A term
    for nu has len(nu) factors scaled by s! each, and s!^(r - len(nu))
    makes up the rest; products are merged by cycle type.
    """
    classes = [(lam, _class_size(lam)) for lam in cycle_types_recursive(s, s)]
    total = {}
    for nu in cycle_types_recursive(r, r):
        terms = {(): _class_size(nu) * factorial(s) ** (r - len(nu))}
        for k in nu:
            merged = {}
            for parts, coefficient in terms.items():
                for lam, size in classes:
                    key = tuple(sorted(parts + tuple(k * x for x in lam),
                                       reverse=True))
                    merged[key] = merged.get(key, 0) + coefficient * size
            terms = merged
        for key, coefficient in terms.items():
            total[key] = total.get(key, 0) + coefficient
    return total


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


def least_unprintable_l(n, k, limit):
    """Least l at which the bound o >= C(n, k)^l / n! has more than
    limit + 1 digits, in floating point: the least integer l above
    (limit + 1 + log10 n!) / log10 C(n, k). C(n, k) must exceed 1."""
    return int((limit + 1 + lgamma(n + 1) / log(10))
               / log10(comb(n, k))) + 1


def least_l_distinct_walk(n, k):
    """L1 as basecount.least_l_distinct defines it, by trying l = 1, 2, ...
    in turn: the n least-weight vectors of {0,1}^l are the C(l, w) of
    weight w = 0, 1, ... taken in turn, and L1 is the first l at which
    there are n of them and they weigh at most k * l."""
    l = 0
    while True:
        l += 1
        weight, left = 0, n
        for w in range(l + 1):
            take = min(left, comb(l, w))
            weight, left = weight + w * take, left - take
        if not left and weight <= k * l:
            return l


def distinct_vector_sets(n, k, l):
    """Regular orbits of S_n on l-tuples of k-subsets of [n], counted
    without a character.

    Point p of a tuple (A_1..A_l) has the membership vector in {0,1}^l
    whose i-th entry says whether p lies in A_i, so a tuple is a map from
    the points to vectors whose coordinate sums are all k, and an orbit is
    the multiset of its vectors. The stabilizer is trivial exactly when the
    n vectors are distinct, so a regular orbit is a set of n distinct
    vectors with every coordinate sum k. A dict over the states
    (coordinate sums, points used) takes each of the 2^l vectors in turn
    or leaves it out.
    """
    states = {((0,) * l, 0): 1}
    for vector in product((0, 1), repeat=l):
        grown = dict(states)
        for (sums, used), count in states.items():
            taken = tuple(map(sum, zip(sums, vector)))
            if used < n and max(taken, default=0) <= k:
                key = (taken, used + 1)
                grown[key] = grown.get(key, 0) + count
        states = grown
    return states.get(((k,) * l, n), 0)


def column_counts(n, k, l):
    """(o, o_K, R_l) of S_n on l-tuples of k-subsets of [n], counted a
    column at a time with no character and no group.

    A tuple is an n x l 0/1 matrix whose columns each sum to k, and S_n
    permutes its rows; the stabilizer is the Young subgroup of the classes
    of equal rows, trivial exactly when the rows are distinct and else
    holding a transposition. The state after some columns is the multiset
    of sizes of the classes of rows equal so far, a partition of n; a
    column puts b of its k ones into a class of size a, splitting it into
    b and a - b, in C(a, b) ways with the rows labelled and 1 way without.
    After l columns the labelled weight of the all-ones state over n! is
    R_l, the regular orbits; the unlabelled weights sum to o, the
    multisets of rows; and an orbit splits over A_n exactly when its
    stabilizer lies in A_n, that is, when it is regular, so o_K = o + R_l.
    """
    states = {(n,): (1, 1)}  # classes -> (labelled, unlabelled) weight
    for _ in range(l):
        grown = {}
        for classes, (labelled, unlabelled) in states.items():
            # (ones placed, classes split so far) -> weights
            splits = {(0, ()): (labelled, unlabelled)}
            for a in classes:
                step = {}
                for (ones, parts), (lw, uw) in splits.items():
                    for b in range(min(a, k - ones) + 1):
                        key = (ones + b, tuple(sorted(
                            parts + tuple(x for x in (b, a - b) if x))))
                        old_lw, old_uw = step.get(key, (0, 0))
                        step[key] = old_lw + comb(a, b) * lw, old_uw + uw
                splits = step
            for (ones, parts), (lw, uw) in splits.items():
                if ones == k:
                    old_lw, old_uw = grown.get(parts, (0, 0))
                    grown[parts] = old_lw + lw, old_uw + uw
        states = grown
    regular, remainder = divmod(states.get((1,) * n, (0, 0))[0], factorial(n))
    assert remainder == 0, (n, k, l)
    o = sum(unlabelled for _, unlabelled in states.values())
    return o, o + regular, regular


def pgl2_reference(q):
    """(rows, labels) of PGL_2(q) on the projective line, rows sorted and
    each label 1 when the determinant is a non-square mod q.

    Every (a, b, c, d) over F_q with ad - bc nonzero gives the row of
    x -> (ax + b) / (cx + d), point q being infinity: x with cx + d = 0
    goes to infinity, and infinity to a / c (infinity when c = 0). The
    q - 1 scalar multiples of a matrix give one map, and their
    determinants differ by squares, so a map given two labels is an error.
    """
    squares = {x * x % q for x in range(1, q)}

    def divide(top, bottom):
        return q if bottom == 0 else top * pow(bottom, q - 2, q) % q

    labels = {}
    for a, b, c, d in product(range(q), repeat=4):
        det = (a * d - b * c) % q
        if det:
            row = tuple(divide((a * x + b) % q, (c * x + d) % q)
                        for x in range(q)) + (divide(a, c),)
            label = int(det not in squares)
            if labels.setdefault(row, label) != label:
                raise ConsistencyError(f"two labels for one map of PGL_2({q})")
    rows = sorted(labels)
    return rows, [labels[row] for row in rows]


def least_weight_vectors(n, l, seed=0):
    """n distinct vectors of {0,1}^l, as int bitmasks, of least total
    weight: every vector of weight 0, 1, ... in turn, the last weight class
    sampled with the seed; None while 2^l < n."""
    if 2 ** l < n:
        return None
    rng, rows = random.Random(seed), []
    for weight in range(l + 1):
        members = [sum(1 << i for i in chosen)
                   for chosen in combinations(range(l), weight)]
        if len(rows) + len(members) >= n:
            return rows + rng.sample(members, n - len(rows))
        rows += members


def distinct_vector_base(n, k, l, seed=0):
    """l k-subsets of range(n) whose membership vectors are distinct, so
    that (S_1..S_l) is a base of S_n on k-subsets; None when n distinct
    vectors of {0,1}^l weigh more than k * l in all, where no base exists.

    Row x of the n least-weight vectors (least_weight_vectors) says which
    S_i hold x, so column i must come to weigh |S_i| = k. While a column a
    weighs more than k, a bit moves from a to a column b below k in a row
    where the moved vector is new: rows with a and not b outnumber rows
    with b and not a, so one has no counterpart. Otherwise a bit is set in
    a column b below k where the grown vector is new: rows without b
    outnumber rows with b, since b weighs below k <= n/2.
    Each step takes sum |weight_i - k| down, so a base is always reached
    when the start weighs at most k * l. Choices are drawn from the seed.
    """
    rows = least_weight_vectors(n, l, seed)
    if rows is None or sum(bin(row).count("1") for row in rows) > k * l:
        return None
    rng, present = random.Random(seed), set(rows)
    sums = [sum(row >> i & 1 for row in rows) for i in range(l)]
    while sums != [k] * l:
        low = rng.choice([i for i in range(l) if sums[i] < k])
        high = [i for i in range(l) if sums[i] > k]
        clear = rng.choice(high) if high else None
        new = [(x, row ^ (1 << low) ^ (0 if clear is None else 1 << clear))
               for x, row in enumerate(rows)
               if not row >> low & 1 and (clear is None or row >> clear & 1)]
        x, row = rng.choice([(x, row) for x, row in new
                             if row not in present])
        present.discard(rows[x])
        present.add(row)
        rows[x] = row
        sums[low] += 1
        if clear is not None:
            sums[clear] -= 1
    return [frozenset(x for x in range(n) if rows[x] >> i & 1)
            for i in range(l)]


def as_arrays(action):
    """(table, labels) of an oracle action as numpy arrays: one int32 row
    per element, and its labels as +1 and -1. The oracle keeps a table as
    one row-major run of points, and a label as one byte per row, 0 for +1
    and 1 for -1."""
    table = np.fromiter(action.table, dtype=np.int32).reshape(
        action.order, action.degree)
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
    points = sorted(tuple(tuple(x for x in range(n) if block >> x & 1)
                          for block in part)
                    for part in uniform_partitions_masks(n, r, s))
    names = tuple("|".join("".join(str(x + 1) for x in block)
                           for block in point) for point in points)
    return _block_table(rows, points), names


def wreath_action_table(rows, r):
    """(table, point names) of the wreath product with top group S_r in
    product action on r-tuples of the points of range(len(rows[0])), the
    tuples in product order. Row s * len(rows)^r + b is the b-th r-tuple
    (g_1, ..., g_r) of rows, in product order, with the s-th permutation
    sigma of range(r); it maps x to the tuple whose coordinate i is the
    g_{sigma^-1(i)} image of x_{sigma^-1(i)}."""
    points = list(product(range(len(rows[0])), repeat=r))
    index = {point: i for i, point in enumerate(points)}
    sources = [[sigma.index(i) for i in range(r)]
               for sigma in permutations(range(r))]
    table = [[index[tuple(rows[bottom[j]][x[j]] for j in src)]
              for x in points]
             for src in sources
             for bottom in product(range(len(rows)), repeat=r)]
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
