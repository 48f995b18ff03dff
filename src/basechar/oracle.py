"""Brute-force permutation-group engine used as ground truth.

Every group is its own natural action: an action table with one row per
element, the rows in lexicographic order. A table is one row-major bytes
object with one byte per point, or an array('H') past 256 points; column
p is table[p::degree], and applying a permutation after every row is one
translate. Every group carries labels, bytes with one byte per row: 0
for +1 and 1 for -1, so the label of a product is the exclusive or; a
group without a sign or determinant to read is labelled all +1. Induced
actions carry one table row per parent element, so a stabilizer is a set
of rows even when the action is not faithful; subset and partition tables
replay the base group's stabilizer chain. The lattice of tuple
stabilizers, each below the whole group keyed by the bytes of its own
rows and expanded once, gives the kernel order, the base size (None when
no key has a regular orbit), the orbit counts o and o_K of the group and
of its label kernel, the regular-orbit counts for every l, and whether
the labels are base-controlling. Everything here is deliberately simple
and slow; the fast formula code is validated against it, never the other
way around.
"""

from array import array
from bisect import bisect_left
from collections import namedtuple
from functools import cache, cached_property
from itertools import chain, combinations, permutations, product
import math
import random
import re
from struct import iter_unpack

from .errors import CapacityError, ConsistencyError, InputError

MAX_CLOSURE_ORDER = 10 ** 6
MAX_INDUCED_DEGREE = 10 ** 4
MAX_TABLE_CELLS = 5 * 10 ** 7
# The longest tuple the orbit walk accepts as an explicit limit. A faithful
# action of a group of order at most MAX_CLOSURE_ORDER has a base of at
# most 19 points (each base point at least halves the stabilizer), so the
# default limit of base size + 1 stays far below this cap.
MAX_TUPLE_LENGTH = 64


# ---------------------------------------------------------------------------
# tables: bytes up to 256 points, array('H') past


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # negates every label
_BYTES = bytes(range(256))  # the identity translation


def _pack(values, degree):
    """A table, or a row, of points of a domain of the given degree."""
    return bytes(values) if degree <= 256 else array("H", values)


def _join(parts, like):
    """Tables or rows (bytes or 'H' arrays), one after the other,
    as one table of the type of like."""
    if isinstance(like, bytes):
        return b"".join(parts)
    out = array("H")
    for part in parts:
        out.extend(part)
    return out


def _apply(rows, image):
    """image after every entry of rows: each entry x becomes image[x]."""
    if isinstance(rows, bytes):
        return rows.translate(bytes(image) + _BYTES[len(image):])
    return array("H", [image[x] for x in rows])


def _after_each(table, labels, images, image_labels):
    """(the table with each image applied after every row, one block per
    image in turn, joined; the label bytes, a block's flipped when its
    image's label is 1). One round of every table builder."""
    flipped = labels.translate(_FLIP)
    return (_join((_apply(table, image) for image in images), table),
            b"".join(flipped if bit else labels for bit in image_labels))


@cache
def _equal_table(value):
    """Translation table: 1 for the byte value, 0 for every other."""
    table = bytearray(256)
    table[value] = 1
    return bytes(table)


def _equal_mask(column, point):
    """One byte per entry of column, 1 where the entry is point."""
    if isinstance(column, bytes):
        return column.translate(_equal_table(point))
    return bytes(map(point.__eq__, column))


def _gather(table, width, mask):
    """The rows (of width entries) of table whose mask byte is 1, in order,
    copied one run of consecutive rows at a time."""
    parts = []
    start = mask.find(1)
    while start >= 0:
        stop = mask.find(0, start)
        stop = len(mask) if stop < 0 else stop
        parts.append(table[start * width:stop * width])
        start = mask.find(1, stop)
    return _join(parts, table)


def _rows(table, degree):
    """The rows of a table as bytes objects, of a wide row the bytes of its
    'H' entries; in table order."""
    width = degree if isinstance(table, bytes) else 2 * degree
    return chain.from_iterable(iter_unpack(f"{width}s", table))


def _orbit(column, seen):
    """The points of column, the images of one point, which are one orbit
    and none of them seen yet. A bytes column longer than the degree is
    searched for each unseen point, a scan that stops at the first hit,
    rather than read in full into a set."""
    if isinstance(column, bytes) and len(column) > len(seen):
        return [point for point in range(len(seen))
                if not seen[point] and point in column]
    return set(column)


# ---------------------------------------------------------------------------
# cycle notation, read into rows of images, 0-based


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _cycle_points(text):
    """The 0-based points of each nonempty cycle of 1-based cycle notation
    like ``(1,2)(3,4)``, with nothing outside the cycles, read once."""
    if _CYCLE_RE.sub("", text.replace(" ", "")):
        raise InputError(f"malformed cycle notation: {text!r}")
    try:
        return [[int(part) - 1 for part in cycle.split(",")]
                for cycle in _CYCLE_RE.findall(text.replace(" ", "")) if cycle]
    except ValueError:
        raise InputError(f"malformed cycle notation: {text!r}") from None


def _cycle_rows(texts, cycles, degree):
    """One list of images per text, each its cycles (from _cycle_points)
    written into the identity of the given degree."""
    rows = []
    for text, body_cycles in zip(texts, cycles):
        row = list(range(degree))
        for points in body_cycles:
            if len(set(points)) != len(points):
                raise InputError(f"repeated point in cycle: {text!r}")
            for point in points:
                if not 0 <= point < degree:
                    raise InputError(f"point out of range in {text!r}")
                if row[point] != point:
                    raise InputError(f"point repeated across cycles: {text!r}")
            for point, image in zip(points, points[1:] + points[:1]):
                row[point] = image
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# groups


class InducedAction:
    """Action table with one row per group element.

    A group is its own natural action, rows in lexicographic order. Rows of
    an induced action may repeat when it is not faithful, and come in the
    order their builder lists the elements, each with its element's label
    byte (all 0, every label +1, when the group has none to read);
    stabilizers are sets of rows. There is one point name per point.
    """

    def __init__(self, table, labels, point_names):
        self.table, self.labels, self.point_names = table, labels, point_names
        if len(self.table) % self.degree:
            raise InputError("table length is not a multiple of the degree")
        if len(self.labels) != self.order:
            raise InputError("labels and table rows differ in length")

    @property
    def order(self):
        return len(self.table) // self.degree

    @property
    def degree(self):
        return len(self.point_names)

    @cached_property
    def signed(self):
        """Whether some label is -1. Labels form a homomorphism onto {+1,-1}:
        each is +1 or -1, and once one is -1 exactly half the rows are +1;
        anything else is a ConsistencyError."""
        minus = self.labels.count(1)
        if self.labels.count(0) + minus != self.order:
            raise ConsistencyError("labels must be +1 or -1")
        if 2 * minus not in (0, self.order):
            raise ConsistencyError(
                "labels with a -1 must put exactly half the rows at +1")
        return minus > 0

    @cached_property
    def kernel(self):
        """Order of the kernel, the rows fixing every point, which lie in
        every key's rows. A key with a regular orbit has a point that only
        one of its rows fixes, so the kernel is 1. Else the lattice, which
        expands each point some but not all of a key's rows fix into fewer
        rows, stops only at keys whose rows fix every point: the kernel, so
        its order is the least row count."""
        return min(1 if node[1] else node[4] for node in self.lattice.values())

    @cached_property
    def lattice(self):
        """The stabilizer lattice, read by the orbit walk and the verdict."""
        return _stabilizer_lattice(self)


def _check_table_capacity(order, degree):
    if degree > MAX_INDUCED_DEGREE:
        raise CapacityError(
            f"induced degree {degree} exceeds {MAX_INDUCED_DEGREE}")
    if order * degree > MAX_TABLE_CELLS:
        raise CapacityError("action table too large")


def _natural(table, degree, labels):
    """The group whose elements are the rows of a lexicographically sorted
    table, as its natural action."""
    _check_table_capacity(len(table) // degree, degree)
    names = tuple(str(i + 1) for i in range(degree))
    return InducedAction(table, labels, names)


def _bounded_factorial(n, refusal):
    """n!, built factor by factor; raises CapacityError(refusal) as soon as
    it passes MAX_CLOSURE_ORDER, so a huge n never computes a huge one."""
    order = 1
    for factor in range(2, n + 1):
        order *= factor
        if order > MAX_CLOSURE_ORDER:
            raise CapacityError(refusal)
    return order


def closure(generators, labels=None):
    """Close a generator list under composition, propagating labels, all
    +1 when none are given.

    Coset by coset (Dimino's algorithm; Butler, Fundamental Algorithms for
    Permutation Groups, LNCS 559, 1991, ch. 6): the group of the first
    i + 1 generators is a union of cosets "rows of H, then e", H the group
    of the first i, kept as a table with its label bytes. The
    representatives e start at the identity and each is followed by every
    generator so far; a product not yet found starts a new coset, one
    translate of H's table with H's labels, flipped when e is labelled -1.
    Once no product is new the cosets are closed, so they are the group.
    Labels (+1 or -1 per generator) ride along multiplicatively; a product
    found with the other label means they are not a homomorphism, and as
    H's labels are one, checking each (representative, generator) pair
    checks every element. The order and the table size are checked before
    each coset is listed, so a group too large is refused as it outgrows
    the cap.
    """
    generators = [tuple(g) for g in generators]
    if not generators:
        raise InputError("empty generator list")
    for g in generators:
        if sorted(g) != list(range(len(g))):
            raise InputError(f"not a permutation: {g!r}")
    degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise InputError("generators have mixed degrees")
    if degree == 0:
        raise InputError("degree must be positive")
    bits = [0] * len(generators)
    if labels is not None:
        if len(labels) != len(generators):
            raise InputError("one label per generator required")
        if any(x not in (1, -1) for x in labels):
            raise InputError("labels must be +1 or -1")
        bits = [int(x == -1) for x in labels]
    identity = _pack(range(degree), degree)
    found, cosets, coset_bits = {bytes(identity): 0}, [identity], [b"\0"]
    for i in range(len(generators)):
        table, table_bits = _join(cosets, identity), b"".join(coset_bits)
        cosets, coset_bits = [table], [table_bits]
        flipped = table_bits.translate(_FLIP)
        reps = [identity]
        for rep in reps:
            for g, bit in zip(generators[:i + 1], bits):
                row = _apply(rep, g)
                label = found[bytes(rep)] ^ bit
                known = found.get(bytes(row))
                if known is None:
                    order = len(found) + len(table_bits)
                    if order > MAX_CLOSURE_ORDER:
                        raise CapacityError(
                            f"group order exceeds {MAX_CLOSURE_ORDER}")
                    _check_table_capacity(order, degree)
                    coset = _apply(table, row)
                    coset_bits.append(flipped if label else table_bits)
                    found.update(zip(_rows(coset, degree), coset_bits[-1]))
                    cosets.append(coset)
                    reps.append(row)
                elif known != label:
                    raise InputError(
                        "generator labels do not define a homomorphism")
    del cosets, table  # hold one table at most while the rows are sorted
    if degree <= 256:
        rows = sorted(found)
        table = b"".join(rows)
    else:  # sorted as numbers: the bytes of a wide row are not in order
        rows = sorted(found, key=lambda row: array("H", row))
        table = array("H", b"".join(rows))
    return _natural(table, degree, bytes(map(found.__getitem__, rows)))


def symmetric_group(n):
    """S_n labeled by sign, table and signs built together.

    In lexicographic order the rows of S_(m+1) are, for each first image i
    in turn, i followed by a row of S_m with every entry >= i shifted up by
    one. The table starts as one row of n placeholders and holds S_m on its
    last m columns; each of the n rounds (_after_each) applies, for each
    first image i, a shift after every row that writes i where the
    placeholder was and moves the entries up, so no column is ever
    inserted. The first entry adds i inversions and the shift keeps the
    relative order of the rest, so the shift's label is i % 2.
    """
    if n < 1:
        raise InputError("degree must be positive")
    _bounded_factorial(n, f"order {n}! exceeds {MAX_CLOSURE_ORDER}")
    table, signs = bytes(range(n)), b"\0"
    for m in range(n):
        # S_m is written as base + 1 + v, the placeholder of column base
        # is the value base, and the columns before it keep theirs
        base = n - m - 1
        table, signs = _after_each(table, signs, [
            [*range(base), base + i, *range(base, base + i),
             *range(base + i + 1, n)] for i in range(m + 1)],
            [i % 2 for i in range(m + 1)])
    return _natural(table, n, signs)


def alternating_group(n):
    """The even rows of S_n, with their labels: all +1."""
    group = symmetric_group(n)
    even = group.labels.translate(_FLIP)
    return _natural(_gather(group.table, n, even), n,
                    _gather(group.labels, 1, even))


def pgl2(q):
    """PGL_2(q) as Moebius maps on the projective line over F_q.

    Points 0..q-1 are field elements, point q is infinity. The group is the
    closure of x -> x + 1 and x -> -1 / x, which generate PSL_2(q), and
    x -> c x with c the least non-square; an order other than q^3 - q is a
    ConsistencyError. A row is labeled +1 iff its determinant is a nonzero
    square mod q, so the kernel is PSL_2(q). Determinants multiply, so
    labeling the generators by theirs (1, c and 1: +1, -1 and +1) labels
    every row by its determinant.

    These labels are the signs. The translations x -> x + a and their
    conjugates generate PSL_2(q); each is a q-cycle fixing infinity, q is
    odd, so PSL_2(q) lies in A_(q+1). x -> w x, w a primitive root, fixes
    0 and infinity and is one (q - 1)-cycle, so odd, and its determinant w
    is a non-square; PSL_2(q) has index 2, so sgn is the label.
    """
    if q not in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        raise InputError("q must be an odd prime at most 31")
    # Euler's criterion: c^((q-1)/2) is 1 exactly for the squares
    c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) != 1)
    group = closure([[(x + 1) % q for x in range(q)] + [q],
                     [c * x % q for x in range(q)] + [q],
                     [q] + [-pow(x, q - 2, q) % q for x in range(1, q)] + [0]],
                    [1, -1, 1])
    if group.order != q ** 3 - q:
        raise ConsistencyError(f"PGL_2({q}) closed to order {group.order}")
    return group


# ---------------------------------------------------------------------------
# induced actions


def _set_images(points):
    """The map from a row to its induced row on points, sorted tuples, of
    one length, of points of the row, given in lexicographic order."""
    index = {point: i for i, point in enumerate(points)}
    return lambda row: [index[tuple(sorted(map(row.__getitem__, point)))]
                        for point in points]


def _induced(group, induce, names):
    """The action of a base group on the points named, induce(row) giving
    the induced row of a row of the group.

    The base table is sorted with the identity first, so the rows fixing
    0..j-1 are a prefix G_j, led by those of G_(j+1). Level j's transversal
    holds the first row of G_j for each image of j; every element is one
    product of representatives, one per level (Sims' stabilizer chain;
    Seress, Permutation Group Algorithms, 2003, ch. 4), so a product of
    transversal sizes other than the order is a ConsistencyError. An
    induced action is a homomorphism: its table is one _after_each round
    per level, the last first, from the induced identity, and only the
    representatives are induced point by point. Rows come in chain order,
    the base order for S_n, each labelled by the exclusive or of its
    representatives' labels.
    """
    table, degree, order = group.table, group.degree, group.order
    levels, rows = [], order
    for j in range(degree):
        if rows == 1:
            break
        column = table[j:rows * degree:degree]
        levels.append(sorted(map(column.index, set(column))))
        rows = column.count(j)
        if column[:rows].count(j) != rows:  # G_(j+1) is not a prefix,
            rows = 0  # so the next level is empty and the product 0
    if math.prod(map(len, levels)) != order:
        raise ConsistencyError("base table is not a sorted group")
    out, bits = _pack(range(len(names)), len(names)), b"\0"
    for firsts in reversed(levels):
        out, bits = _after_each(out, bits, [
            induce(table[i * degree:(i + 1) * degree]) for i in firsts],
            [group.labels[i] for i in firsts])
    return InducedAction(out, bits, names)


def _subsets_size(order, degree, k):
    """The (order, degree) of the action on k-subsets, refused if too big."""
    if not 1 <= k <= degree:
        raise InputError("k out of range")
    size = math.comb(degree, k)
    _check_table_capacity(order, size)
    return order, size


def act_on_subsets(group, k):
    """Induced action on the k-element subsets of the domain (_induced)."""
    _subsets_size(group.order, group.degree, k)
    points = list(combinations(range(group.degree), k))
    names = tuple("{" + ",".join(str(x + 1) for x in s) + "}" for s in points)
    return _induced(group, _set_images(points), names)


def _uniform_partitions(free, s):
    """Partitions of the sorted tuple free into blocks of size s, each the
    block list sorted by minimum, in lexicographic order."""
    if not free:
        return [()]
    return [((free[0],) + others,) + tail
            for others in combinations(free[1:], s - 1)
            for tail in _uniform_partitions(
                tuple(p for p in free[1:] if p not in others), s)]


def _partitions_size(order, degree, r, s):
    """The (order, degree) of the action on partitions into r blocks of
    size s, refused if too big."""
    if r < 1 or s < 1 or r * s != degree:
        raise InputError("need degree = r*s with positive r, s")
    size = math.factorial(degree) // (math.factorial(s) ** r
                                      * math.factorial(r))
    _check_table_capacity(order, size)
    return order, size


def act_on_uniform_partitions(group, r, s):
    """Induced action on partitions of the domain into r blocks of size s,
    each the sorted tuple of its blocks' indices among the s-subsets."""
    n = group.degree
    _partitions_size(group.order, n, r, s)
    points = _uniform_partitions(tuple(range(n)), s)
    blocks = list(combinations(range(n), s))
    index = {block: i for i, block in enumerate(blocks)}
    on_blocks = _set_images(blocks)
    on_points = _set_images([tuple(index[block] for block in part)
                             for part in points])
    names = tuple("|".join("".join(str(x + 1) for x in block)
                           for block in part) for part in points)
    return _induced(group, lambda row: on_points(on_blocks(row)), names)


def _wreath_size(order, degree, r):
    """The (order, degree) of the wreath product with top group S_r in
    product action, order^r * r! and degree^r, refused if too big."""
    if r < 1:
        raise InputError("r must be positive")
    # bounded before the r! permutations are listed
    top_order = _bounded_factorial(
        r, f"wreath order exceeds {MAX_CLOSURE_ORDER}: the top group "
           f"S_{r} alone has order {r}!")
    order, degree = order ** r * top_order, degree ** r
    if order > MAX_CLOSURE_ORDER:
        raise CapacityError(f"wreath order {order} exceeds {MAX_CLOSURE_ORDER}")
    _check_table_capacity(order, degree)
    return order, degree


def product_action_wreath(base, r):
    """Wreath product with top group S_r in product action on r-tuples of
    base points.

    An element (g_1, ..., g_r; sigma) maps coordinate i of a tuple to the
    g_{sigma^-1(i)} image of coordinate sigma^-1(i): the bottom (g_1, ...,
    g_r) acting coordinatewise, then sigma moving coordinate sigma^-1(i) to
    coordinate i. Base labels carry over as the product of the
    per-coordinate labels.

    Built in r + 1 rounds (_after_each): one per coordinate, from the last
    back, applying every base row embedded at that coordinate with its
    base label, then one applying the r! tops, labeled 0. Row
    s * |base|^r + b is therefore the b-th bottom (g_1, ..., g_r) in
    product order followed by the s-th sigma, in the order of
    itertools.permutations.
    """
    _, degree = _wreath_size(base.order, base.degree, r)
    m = base.degree
    weights = [m ** (r - 1 - i) for i in range(r)]
    points = list(product(range(m), repeat=r))
    names = tuple("(" + ",".join(base.point_names[d] for d in x) + ")"
                  for x in points)
    rows = [base.table[k:k + m] for k in range(0, len(base.table), m)]
    table, bits = _pack(range(degree), degree), b"\0"
    for i in reversed(range(r)):
        table, bits = _after_each(table, bits, (
            [j + (row[x[i]] - x[i]) * weights[i] for j, x in enumerate(points)]
            for row in rows), base.labels)
    # sigma moves coordinate c of a point to coordinate sigma[c]
    tops = ([sum(x[c] * weights[sigma[c]] for c in range(r)) for x in points]
            for sigma in permutations(range(r)))
    table, bits = _after_each(table, bits, tops, bytes(math.factorial(r)))
    return InducedAction(table, bits, names)


# ---------------------------------------------------------------------------
# orbits, bases, regular orbits


def check_tuple_length(l_max):
    """Reject a tuple length the orbit walk cannot reach or need."""
    if l_max < 1:
        raise InputError(f"the l limit must be at least 1, got {l_max}")
    if l_max > MAX_TUPLE_LENGTH:
        raise CapacityError(
            f"tuple length {l_max} exceeds {MAX_TUPLE_LENGTH}")


def _stabilizer_lattice(action):
    """{key: (depth, regular orbits on points, {child key: orbits}, all +1,
    rows)} for every tuple stabilizer, expanded once each, breadth first
    from the whole group, the first key, None: depth is the shortest tuple
    with that stabilizer, rows its order, all +1 whether each row is
    labelled +1.

    Each non-regular orbit on points leads to its point stabilizer, whose
    rows (and label bytes) are gathered from the rows fixing that point.
    A stabilizer holds every row that fixes its points, repeats included,
    and every gather keeps the table's row order, so the bytes of its rows
    are its key, equal along every chain that reaches it: the gathered
    bytes themselves, or a copy of a small array('H') child, which cannot
    be hashed. The whole group is keyed None, so its table is never
    copied; no child has all of its rows, and a point every row fixes
    stays on its parent's key.
    """
    degree = action.degree
    pending = {None: (action.table, action.labels, 0)}  # None once expanded
    lattice = {}
    queue = [None]
    for key in queue:
        sub, sub_labels, depth = pending[key]
        pending[key] = None
        rows = len(sub) // degree
        seen = bytearray(degree)
        regular = 0
        children = {}
        for point in range(degree):
            if seen[point]:
                continue
            column = sub[point::degree]
            for image in _orbit(column, seen):
                seen[image] = 1
            fixed = column.count(point)
            if fixed == 1:
                regular += 1
                continue
            if fixed == rows:  # every row fixes the point: the same key
                children[key] = children.get(key, 0) + 1
                continue
            mask = _equal_mask(column, point)
            child_rows = _gather(sub, degree, mask)
            child = bytes(child_rows)
            children[child] = children.get(child, 0) + 1
            if child not in pending:
                pending[child] = (child_rows, _gather(sub_labels, 1, mask),
                                  depth + 1)
                queue.append(child)
        lattice[key] = (depth, regular, children, 1 not in sub_labels, rows)
    return lattice


def tuple_orbit_counts(action, l_max=None):
    """(base_size, rows) by pushing orbit counts down the stabilizer
    lattice, one level per tuple length.

    Orbits of tuples extending t match orbits of t's stabilizer on points,
    so a level counts the orbits on l-tuples per key. A key below the root
    fixes a point, so it stays on every level past its depth, and a regular
    orbit on points is degree^(m-l) regular orbits at every level m >= l:
    the base size is one more than the least depth of a key with a regular
    orbit (0 for the trivial group, None when no key has a regular orbit).

    rows holds (l, o, o_K, regular) for l = 0..l_max (by default base size
    + 1, or 2 without a base): the orbits of the group, of its label kernel
    K, and those with trivial stabilizer. When some label is -1, K has
    index 2 and an orbit splits in two K-orbits exactly when its stabilizer
    lies in K, so o_K is o plus the non-regular orbits whose stabilizer
    carries only +1 labels plus the regular ones. o_K is o when every label
    is +1.
    """
    if l_max is not None:
        check_tuple_length(l_max)
    degree, lattice = action.degree, action.lattice
    depths = [node[0] for node in lattice.values() if node[1]]
    base = (0 if action.order == 1 else 1 + min(depths) if depths else None)
    if l_max is None:
        l_max = 2 if base is None else base + 1

    # at each level: the non-regular orbits, those whose stabilizer lies in
    # K, and the regular orbits first reached there; level 0 is the one
    # orbit of the empty tuple
    nonregular, inside, fresh = (0, 0, 1) if base == 0 else (1, 0, 0)
    frontier = {} if base == 0 else {next(iter(lattice)): 1}
    rows = []
    regular = 0
    for l in range(l_max + 1):
        regular = regular * degree + fresh
        o = nonregular + regular
        o_k = o + inside + regular if action.signed else o
        rows.append((l, o, o_k, regular))
        nonregular = inside = fresh = 0
        nxt = {}
        for key, count in frontier.items():
            _, key_regular, children, _, _ = lattice[key]
            fresh += count * key_regular
            for child, orbits in children.items():
                nonregular += count * orbits
                inside += count * orbits * lattice[child][3]  # all +1
                nxt[child] = nxt.get(child, 0) + count * orbits
        frontier = nxt
    return base, rows


# ---------------------------------------------------------------------------
# base-controlling verification


class ControllingVerdict(namedtuple(
        "ControllingVerdict",
        "controlling counterexample stabilizer_order label_image",
        defaults=(None, None, None))):
    """Outcome of the base-controlling check.

    A violation is a point set with a nontrivial stabilizer whose labels are
    all +1; the reverse direction cannot fail, a trivial stabilizer has label
    image {+1} by definition.
    """

    __slots__ = ()


def is_base_controlling(action):
    """Check: every point set has trivial stabilizer iff its labels are all +1.

    Conjugate stabilizers have the same label image, so the verdict is read
    off the lattice keys' +1 flags, one key per stabilizer up to conjugacy.
    Only a violation runs the depth-first search over increasing point
    chains, in lexicographic order, that names the first one. It skips a
    stabilizer whose subtree already held no violation: a violating
    superset of that stabilizer's points would have a sorted chain either
    in that subtree or before it, so it is found either way. The memo keys
    a stabilizer as the lattice does, by the bytes of the rows the search
    gathers anyway: a parallel gather of row indices as the key costs one
    more gather per step, measured 1.05-3.9 times slower on specs that are
    not base-controlling.
    """
    if not action.signed:
        raise InputError(
            "labels are all +1: degenerate, controls only the trivial group")
    if not any(node[3] for node in action.lattice.values()):
        return ControllingVerdict(True)
    degree = action.degree
    cleared = set()

    def walk(sub, sub_labels, start, chosen):
        if 1 not in sub_labels:
            return ControllingVerdict(
                False, tuple(action.point_names[i] for i in chosen),
                len(sub_labels), (1,))
        for point in range(start, degree):
            column = sub[point::degree]
            if column.count(point) in (1, len(sub_labels)):
                continue
            mask = _equal_mask(column, point)
            child = _gather(sub, degree, mask)
            key = bytes(child)
            if key in cleared:
                continue
            verdict = walk(child, _gather(sub_labels, 1, mask), point + 1,
                           chosen + (point,))
            if verdict is not None:
                return verdict
            cleared.add(key)

    verdict = walk(action.table, action.labels, 0, ())
    if verdict is None:
        raise ConsistencyError("subset search missed the lattice violation")
    return verdict


# ---------------------------------------------------------------------------
# label spot check


def label_homomorphism_spot_check(group, samples=50, seed=0):
    """Check label multiplicativity on random element pairs.

    The group's rows must be in lexicographic order, as every constructor
    here returns them; each product is found by bisecting the rows. Failure
    raises ConsistencyError: the constructors in this module give groups
    closed under products with labels that are homomorphisms, so a
    violation is a bug.
    """
    rng = random.Random(seed)
    table, degree, labels = group.table, group.degree, group.labels

    def row(k):
        return table[k * degree:(k + 1) * degree]

    for _ in range(samples):
        i = rng.randrange(group.order)
        j = rng.randrange(group.order)
        product = _apply(row(i), row(j))  # row i, then row j
        k = bisect_left(range(group.order), product, key=row)
        if k == group.order or row(k) != product:
            raise ConsistencyError("product of two elements is not a row")
        if labels[k] != labels[i] ^ labels[j]:
            raise ConsistencyError("labels are not multiplicative")
    return samples


# ---------------------------------------------------------------------------
# group specification mini-format


class ParsedGroup(namedtuple("ParsedGroup",
                               "action tags base_group labelled")):
    """A parsed group spec: the induced action plus what it was built from.

    tags holds one parsed tuple per spec part, in order. The first names
    the base group, ("sn", n), ("an", n), ("pgl2", q) or ("gens",); each
    suffix follows as ("subsets", k), ("partitions", r, s) or ("wreath", r).
    labelled is False only when the base group is an:<n> in auto mode:
    its labels are all +1, and verify reports it as unlabelled.
    """

    __slots__ = ()


def _parse_base(token, sign_labels):
    """The base group of a spec, labelled as it is built, and its tag;
    sign_labels asks for the permutation sign of every element."""
    if token.startswith("sn:"):
        n = _parse_int(token[3:], "sn degree")
        return symmetric_group(n), ("sn", n)
    if token.startswith("an:"):
        n = _parse_int(token[3:], "an degree")
        return alternating_group(n), ("an", n)  # even rows: every sign +1
    if token.startswith("pgl2:"):
        q = _parse_int(token[5:], "pgl2 parameter")
        return pgl2(q), ("pgl2", q)  # its determinant labels are the signs
    if token.startswith("gens:"):
        parts = [part.strip() for part in token[5:].split(";")]
        if not any(parts):
            raise InputError("empty generator list")
        marks = [part.startswith("!") for part in parts]
        bodies = [part.removeprefix("!") for part in parts]
        cycles = [_cycle_points(body) for body in bodies]
        degree = max([0] + [point + 1 for body_cycles in cycles
                            for cycle in body_cycles for point in cycle])
        if degree == 0:
            raise InputError("cannot infer degree from identity generators")
        _check_table_capacity(1, degree)  # before any row of that length
        gens = _cycle_rows(bodies, cycles, degree)  # the cycles are disjoint
        if sign_labels or not any(marks):  # signs: a k-cycle is k - 1 swaps
            marks = [sum(len(cycle) - 1 for cycle in body_cycles) % 2
                     for body_cycles in cycles]
        return closure(gens, [-1 if bit else 1 for bit in marks]), ("gens",)
    raise InputError(f"unknown group spec: {token!r}")


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad {what}: {text!r}") from None


def parse_group_spec(spec, labels_mode="auto"):
    """Parse specs like ``sn:6/subsets:2``, ``pgl2:7``, ``an:5/wreath:2``,
    ``gens:!(1,2);(1,2,3,4)/subsets:2``.

    The base group comes first; ``/subsets:<k>``, ``/partitions:<r>x<s>``
    and ``/wreath:<r>`` apply induced actions in order (subsets and
    partitions only directly on the base group). The base group is
    labelled as it is built, never relabelled. ``labels_mode`` is ``auto``
    (sign for sn, all +1 for an, reported unlabelled, determinant class for
    pgl2, explicit ``!`` marks for gens, else the sign) or ``sgn``
    (permutation sign of every base element: pgl2's determinant classes
    already are the signs, an is all +1, and gens carry their generators'
    signs, ``!`` marks unread). The result is labelled but for an in auto.
    Every suffix is read and sized from the running order and degree
    before any induced row is built, so a refusal costs no build.
    """
    if labels_mode not in ("auto", "sgn"):
        raise InputError(f"unknown labels mode: {labels_mode!r}")
    parts = spec.strip().split("/")
    group, base_tag = _parse_base(parts[0].strip(), labels_mode == "sgn")
    size = group.order, group.degree
    tags, builds = [base_tag], []
    for suffix in parts[1:]:
        suffix = suffix.strip()
        if suffix.startswith("subsets:"):
            if builds:
                raise InputError("subsets action must come first")
            k = _parse_int(suffix[8:], "subset size")
            size = _subsets_size(*size, k)
            builds.append((act_on_subsets, k))
            tags.append(("subsets", k))
        elif suffix.startswith("partitions:"):
            if builds:
                raise InputError("partitions action must come first")
            body = suffix[len("partitions:"):]
            if "x" not in body:
                raise InputError(f"bad partitions suffix: {suffix!r}")
            r_text, s_text = body.split("x", 1)
            r = _parse_int(r_text, "block count")
            s = _parse_int(s_text, "block size")
            size = _partitions_size(*size, r, s)
            builds.append((act_on_uniform_partitions, r, s))
            tags.append(("partitions", r, s))
        elif suffix.startswith("wreath:"):
            r = _parse_int(suffix[7:], "wreath arity")
            size = _wreath_size(*size, r)
            builds.append((product_action_wreath, r))
            tags.append(("wreath", r))
        else:
            raise InputError(f"unknown action suffix: {suffix!r}")
    action = group
    for build, *args in builds:
        action = build(action, *args)
    return ParsedGroup(action, tuple(tags), group,
                       labels_mode == "sgn" or base_tag[0] != "an")
