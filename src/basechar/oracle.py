"""Brute-force permutation-group engine used as ground truth.

Every group is its own natural action: an action table with one row per
element, the rows in lexicographic order, one byte per point (two past 256
points), and its {+1,-1} labels, when it has any, as an int8 array (no
stabilizer chains). Induced actions carry one table row per parent
element, so stabilizers are sets of element indices and labels stay
well-defined even when the action is not faithful. The lattice of tuple
stabilizers, each expanded once, gives the base size, the orbit counts o
and o_K of the group and of its label kernel, the regular-orbit counts for
every l, and whether the labels are base-controlling. Everything here is
deliberately simple and slow; the fast formula code is validated against
it, never the other way around.
"""

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, permutations
import math
import random
import re

import numpy as np

from .errors import CapacityError, ConsistencyError, InputError

MAX_CLOSURE_ORDER = 10 ** 6
MAX_INDUCED_DEGREE = 10 ** 4
MAX_TABLE_CELLS = 5 * 10 ** 7
MAX_GATHER_CELLS = 1 << 18
# The longest tuple the orbit walk accepts as an explicit limit. A faithful
# action of a group of order at most MAX_CLOSURE_ORDER has a base of at
# most 19 points (each base point at least halves the stabilizer), so the
# default limit of base size + 1 stays far below this cap.
MAX_TUPLE_LENGTH = 64


# ---------------------------------------------------------------------------
# cycle notation, read into rows of images, 0-based


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _cycle_points(text):
    """The 0-based points of each nonempty cycle of 1-based cycle notation
    like ``(1,2)(3,4)``, read once; _cycle_rows checks the rest."""
    try:
        return [[int(part) - 1 for part in cycle.split(",")]
                for cycle in _CYCLE_RE.findall(text.replace(" ", "")) if cycle]
    except ValueError:
        raise InputError(f"malformed cycle notation: {text!r}") from None


def _cycle_rows(texts, cycles, degree):
    """One row of images per text, each its cycles (from _cycle_points)
    written into the identity of the given degree."""
    rows = np.tile(np.arange(degree), (len(texts), 1))
    for row, text, body_cycles in zip(rows, texts, cycles):
        if _CYCLE_RE.sub("", text.replace(" ", "")):
            raise InputError(f"malformed cycle notation: {text!r}")
        for points in body_cycles:
            if len(set(points)) != len(points):
                raise InputError(f"repeated point in cycle: {text!r}")
            for point in points:
                if not 0 <= point < degree:
                    raise InputError(f"point out of range in {text!r}")
                if row[point] != point:
                    raise InputError(f"point repeated across cycles: {text!r}")
            row[points] = points[1:] + points[:1]
    return rows


# ---------------------------------------------------------------------------
# groups


@dataclass
class InducedAction:
    """Action table with one row per group element.

    A group is its own natural action, rows in lexicographic order. Rows of
    an induced action may repeat when it is not faithful; stabilizers are
    sets of row indices, so parent labels carry over unchanged.
    """

    table: np.ndarray
    labels: np.ndarray | None
    point_names: tuple

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.table):
            raise InputError("labels and table rows differ in length")

    @property
    def order(self):
        return self.table.shape[0]

    @property
    def degree(self):
        return self.table.shape[1]

    @cached_property
    def signed(self):
        """Whether some label is -1. Labels form a homomorphism onto {+1,-1}:
        each is +1 or -1, and once one is -1 exactly half the rows are +1;
        anything else is a ConsistencyError."""
        if self.labels is None:
            return False
        plus = int(np.count_nonzero(self.labels == 1))
        if np.count_nonzero(self.labels == -1) + plus != self.order:
            raise ConsistencyError("labels must be +1 or -1")
        if 2 * plus not in (2 * self.order, self.order):
            raise ConsistencyError(
                "labels with a -1 must put exactly half the rows at +1")
        return plus < self.order

    @cached_property
    def kernel(self):
        """(kernel order, mask of the points every row fixes), both built
        one column at a time from where the rows fix that column's point."""
        rows = np.ones(self.order, dtype=bool)
        fixed = np.empty(self.degree, dtype=bool)
        for point in range(self.degree):
            column = self.table[:, point] == point
            rows &= column
            fixed[point] = column.all()
        return int(np.count_nonzero(rows)), fixed

    @cached_property
    def lattice(self):
        """The stabilizer lattice, read by the orbit walk and the verdict."""
        return _stabilizer_lattice(self)


def _point_dtype(degree):
    """The narrowest unsigned dtype that holds every point of a table:
    uint8 up to 256 points, uint16 up to MAX_INDUCED_DEGREE."""
    return np.uint8 if degree <= 256 else np.uint16


def _check_table_capacity(order, degree):
    if degree > MAX_INDUCED_DEGREE:
        raise CapacityError(
            f"induced degree {degree} exceeds {MAX_INDUCED_DEGREE}")
    if order * degree > MAX_TABLE_CELLS:
        raise CapacityError("action table too large")


def _natural(table, labels=None):
    """The group whose elements are the rows of a lexicographically sorted
    table, as its natural action."""
    order, degree = table.shape
    _check_table_capacity(order, degree)
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


def _signs(table):
    """Sign of every row, +1 even and -1 odd, from its inversion parity."""
    inversions = np.zeros(table.shape[0], dtype=np.int64)
    for i in range(table.shape[1] - 1):
        inversions += np.count_nonzero(table[:, i + 1:] < table[:, i:i + 1],
                                       axis=1)
    return (1 - 2 * (inversions % 2)).astype(np.int8)


def closure(generators, labels=None):
    """Close a generator list under composition, propagating labels.

    Breadth first over numpy rows: each round maps the rows first reached
    in the round before through each generator, one gather per generator,
    and keeps the images not yet in the table, a dict from row bytes to
    label. Labels, when given, ride along multiplicatively; reaching the
    same element with both signs means the labeling is not a homomorphism.
    The table size is checked before each new element is listed, so a
    group too large to tabulate is refused as soon as it outgrows the cap.
    """
    generators = [np.asarray(g, dtype=np.int64) for g in generators]
    if not generators:
        raise InputError("empty generator list")
    for g in generators:
        if not np.array_equal(np.sort(g), np.arange(len(g))):
            raise InputError(f"not a permutation: {tuple(g.tolist())!r}")
    degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise InputError("generators have mixed degrees")
    if degree == 0:
        raise InputError("degree must be positive")
    if labels is not None:
        labels = [int(x) for x in labels]
        if len(labels) != len(generators):
            raise InputError("one label per generator required")
        if any(x not in (1, -1) for x in labels):
            raise InputError("labels must be +1 or -1")
    gens = np.array(generators, dtype=_point_dtype(degree))
    key_type = np.dtype((np.void, gens.itemsize * degree))
    rows = [np.arange(degree, dtype=gens.dtype)[None]]
    row_labels = [np.ones(1, dtype=np.int8)]
    found = {rows[0].tobytes(): 1}
    while len(rows[-1]):
        frontier, frontier_labels = rows[-1], row_labels[-1]
        fresh, fresh_labels = [], []
        for g, sign in zip(gens, labels or [1] * len(gens)):
            images, image_labels = g[frontier], frontier_labels * sign
            new = []
            for i, (key, label) in enumerate(zip(
                    images.view(key_type).ravel().tolist(),
                    image_labels.tolist())):
                known = found.get(key)
                if known is None:
                    if len(found) >= MAX_CLOSURE_ORDER:
                        raise CapacityError(
                            f"group order exceeds {MAX_CLOSURE_ORDER}")
                    _check_table_capacity(len(found) + 1, degree)
                    found[key] = label
                    new.append(i)
                elif known != label:
                    raise InputError(
                        "generator labels do not define a homomorphism")
            fresh.append(images[new])
            fresh_labels.append(image_labels[new])
        rows.append(np.concatenate(fresh))
        row_labels.append(np.concatenate(fresh_labels))
    table = np.concatenate(rows)
    order = np.lexsort(table.T[::-1])  # column 0 is the first key
    return _natural(table[order],
                    np.concatenate(row_labels)[order] if labels else None)


def with_sign_labels(group):
    """Relabel every element with its permutation sign."""
    return replace(group, labels=_signs(group.table))


def symmetric_group(n):
    """S_n labeled by sign, table and signs built together.

    In lexicographic order the rows of S_m are, for each first image i in
    turn, i followed by a row of S_(m-1) with every entry >= i shifted up
    by one. The first entry adds i inversions and the shift keeps the
    relative order of the rest, so the row's sign is (-1)^i times the sign
    of the S_(m-1) row.
    """
    if n < 1:
        raise InputError("degree must be positive")
    _bounded_factorial(n, f"order {n}! exceeds {MAX_CLOSURE_ORDER}")
    table = np.zeros((1, 0), dtype=_point_dtype(n))
    signs = np.ones(1, dtype=np.int8)
    for m in range(1, n + 1):
        firsts = np.arange(m, dtype=table.dtype)[:, None, None]
        rest = table[None] + (table[None] >= firsts)
        table = np.concatenate(
            [np.broadcast_to(firsts, (m, len(table), 1)), rest],
            axis=2).reshape(-1, m)
        signs = (np.where(firsts[:, 0] % 2, -1, 1) * signs).astype(
            np.int8).ravel()
    return _natural(table, signs)


def alternating_group(n):
    """The even rows of S_n, unlabeled."""
    group = symmetric_group(n)
    return _natural(group.table[group.labels == 1])


def pgl2(q):
    """PGL_2(q) as Moebius maps on the projective line over F_q.

    Points 0..q-1 are field elements, point q is infinity. Each element is
    built once, in one array pass, from the matrix (a b; c d) scaled to
    bottom row (0, 1) or (1, d). It is labeled +1 iff its determinant is a
    nonzero square mod q (scaling multiplies the determinant by a square);
    the kernel of that labeling is PSL_2(q). PGL_2(q) is sharply
    3-transitive, so the images of 0, 1 and 2 fix a row, and the rows are
    sorted by those three images as one integer; keys that do not strictly
    increase would mean two matrices gave one map, or the rows were not
    those of PGL_2(q).
    """
    if q not in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        raise InputError("q must be an odd prime at most 31")
    x = np.arange(q, dtype=np.int32)
    a, b, bottom = (v.ravel() for v in np.meshgrid(
        x, x, np.arange(q + 1, dtype=np.int32)))
    c, d = np.minimum(bottom, 1), np.where(bottom, bottom - 1, 1)
    det = (a * d - b * c) % q
    a, b, c, d, det = (v[det != 0] for v in (a, b, c, d, det))
    den = (c[:, None] * x + d[:, None]) % q
    inverses = np.array([0] + [pow(int(v), q - 2, q) for v in x[1:]],
                        dtype=np.int32)
    finite = np.where(den, (a[:, None] * x + b[:, None]) * inverses[den] % q, q)
    key = (finite[:, 0] * (q + 1) + finite[:, 1]) * (q + 1) + finite[:, 2]
    order = np.argsort(key)
    if not (np.diff(key[order]) > 0).all():
        raise ConsistencyError("two normalised matrices give one map")
    table = np.column_stack([finite, np.where(c, a, q)])[order].astype(
        _point_dtype(q + 1))
    square = np.isin(det[order], x * x % q)
    return _natural(table, np.where(square, 1, -1).astype(np.int8))


# ---------------------------------------------------------------------------
# induced actions


def _sets_table(table, *levels):
    """Action table on sets (of sets), a chunk of rows at a time.

    Each level's points are sorted tuples of indices into the level before
    (the first indexes the domain), of one length, in lexicographic order.
    A level maps its tuples through the rows, sorts each image and looks it
    up among its points, each tuple one big-endian bytes scalar, so bytes
    compare in lexicographic order and no entry is packed into a wider int.
    """
    levels = [np.array(points, dtype=">i4") for points in levels]
    out = np.empty((len(table), len(levels[-1])),
                   dtype=_point_dtype(len(levels[-1])))
    step = max(1, MAX_GATHER_CELLS // max(points.size for points in levels))
    for start in range(0, len(table), step):
        images = table[start:start + step]
        for points in levels:
            key = f"V{points.itemsize * points.shape[1]}"
            mapped = np.sort(images[:, points]).astype(">i4", order="C")
            images = np.searchsorted(points.view(key)[:, 0],
                                     mapped.view(key)[..., 0])
        out[start:start + step] = images
    return out


def act_on_subsets(group, k):
    """Induced action on the k-element subsets of the domain."""
    if not 1 <= k <= group.degree:
        raise InputError("k out of range")
    _check_table_capacity(group.order, math.comb(group.degree, k))
    points = list(combinations(range(group.degree), k))
    names = tuple("{" + ",".join(str(x + 1) for x in s) + "}" for s in points)
    return InducedAction(_sets_table(group.table, points), group.labels, names)


def _uniform_partitions(free, s):
    """Partitions of the sorted tuple free into blocks of size s, each the
    block list sorted by minimum, in lexicographic order."""
    if not free:
        return [()]
    return [((free[0],) + others,) + tail
            for others in combinations(free[1:], s - 1)
            for tail in _uniform_partitions(
                tuple(p for p in free[1:] if p not in others), s)]


def act_on_uniform_partitions(group, r, s):
    """Induced action on partitions of the domain into r blocks of size s,
    each the sorted tuple of its blocks' indices among the s-subsets."""
    n = group.degree
    if r < 1 or s < 1 or r * s != n:
        raise InputError("need degree = r*s with positive r, s")
    _check_table_capacity(group.order, math.factorial(n) // (
        math.factorial(s) ** r * math.factorial(r)))
    points = _uniform_partitions(tuple(range(n)), s)
    blocks = list(combinations(range(n), s))
    index = {block: i for i, block in enumerate(blocks)}
    table = _sets_table(group.table, blocks,
                        [[index[block] for block in part] for part in points])
    names = tuple("|".join("".join(str(x + 1) for x in block)
                           for block in part) for part in points)
    return InducedAction(table, group.labels, names)


def product_action_wreath(base, r):
    """Wreath product with top group S_r in product action on r-tuples of
    base points.

    An element (g_1, ..., g_r; sigma) maps coordinate i of a tuple to the
    g_{sigma^-1(i)} image of coordinate sigma^-1(i). Base labels, when
    present, carry over as the product of the per-coordinate labels.
    """
    if r < 1:
        raise InputError("r must be positive")
    # bounded before the r! permutations are listed
    top_order = _bounded_factorial(
        r, f"wreath order exceeds {MAX_CLOSURE_ORDER}: the top group "
           f"S_{r} alone has order {r}!")
    degree = base.degree ** r
    order = base.order ** r * top_order
    if order > MAX_CLOSURE_ORDER:
        raise CapacityError(f"wreath order {order} exceeds {MAX_CLOSURE_ORDER}")
    _check_table_capacity(order, degree)

    m = base.degree
    weights = [m ** (r - 1 - i) for i in range(r)]
    digits = np.empty((degree, r), dtype=np.int32)
    for i in range(r):
        digits[:, i] = (np.arange(degree) // weights[i]) % m
    names = tuple("(" + ",".join(base.point_names[d] for d in row) + ")"
                  for row in digits.tolist())

    # bottom (g_1, ..., g_r) acting coordinatewise, bottoms in product order
    bottoms = np.zeros((1, 1), dtype=np.int32)
    for _ in range(r):
        bottoms = (bottoms[:, None, :, None] * m
                   + base.table[None, :, None, :]).reshape(
                       bottoms.shape[0] * base.order, -1)
    # sigma moving coordinate sigma^-1(i) to coordinate i
    top = np.array(list(permutations(range(r))), dtype=np.int32)
    inverses = np.argsort(top, axis=1)
    moved = np.zeros((len(inverses), degree), dtype=np.int32)
    for i in range(r):
        moved += weights[i] * digits.T[inverses[:, i]]
    # row b * |top| + s is bottom b followed by sigma s
    table = moved.astype(_point_dtype(degree))[
        np.arange(len(inverses))[:, None], bottoms[:, None, :]]
    table = table.reshape(order, degree)
    labels = None
    if base.labels is not None:
        labels = np.ones(1, dtype=np.int8)
        for _ in range(r):
            labels = np.outer(labels, base.labels).ravel()
        labels = np.repeat(labels, len(inverses))
    return InducedAction(table, labels, names)


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
    """{key: (rows, depth, regular orbits on points, {child key: orbits},
    all +1)} for every tuple stabilizer, expanded once each, breadth first
    from the whole group: depth is the shortest tuple with that stabilizer,
    and the last entry says whether every row of it is labelled +1.

    A tuple's stabilizer G_S is also the pointwise stabilizer of its own
    fixed-point set F (it fixes F, and S lies in F), so F, as the bytes of a
    mask over the points, is its key; stabilizers are sets of row indices,
    so this holds for non-faithful actions too. Each non-regular orbit on
    points leads to the key of its point stabilizer.
    """
    table, labels = action.table, action.labels
    points = np.arange(action.degree, dtype=table.dtype)
    root = action.kernel[1].tobytes()
    found = {root: (np.arange(action.order), 0)}
    lattice = {}
    queue = [root]
    for key in queue:
        stab, depth = found[key]
        sub = table if depth == 0 else table[stab]  # the root: every row
        seen = np.zeros(len(points), dtype=bool)
        regular = 0
        children = {}
        for point in range(len(points)):
            if seen[point]:
                continue
            column = sub[:, point]
            seen[column] = True
            fixed = column == point
            if np.count_nonzero(fixed) == 1:
                regular += 1
                continue
            child = (sub[fixed] == points).all(axis=0).tobytes()
            children[child] = children.get(child, 0) + 1
            if child not in found:
                found[child] = (stab[fixed], depth + 1)
                queue.append(child)
        plus = labels is not None and bool((labels[stab] == 1).all())
        lattice[key] = (stab, depth, regular, children, plus)
    return lattice


def tuple_orbit_counts(action, l_max=None):
    """(base_size, rows) by pushing orbit counts down the stabilizer
    lattice, one level per tuple length.

    Orbits of tuples extending t match orbits of t's stabilizer on points,
    so a level counts the orbits on l-tuples per key. A key below the root
    fixes a point, so it stays on every level past its depth, and a regular
    orbit on points is degree^(m-l) regular orbits at every level m >= l:
    the base size is one more than the least depth of a key with a regular
    orbit (0 for the trivial group, None for a non-faithful action).

    rows holds (l, o, o_K, regular) for l = 0..l_max (by default base size
    + 1, or 2 without a base): the orbits of the group, of its label kernel
    K, and those with trivial stabilizer. When some label is -1, K has
    index 2 and an orbit splits in two K-orbits exactly when its stabilizer
    lies in K, so o_K is o plus the non-regular orbits whose stabilizer
    carries only +1 labels plus the regular ones. o_K is o when every label
    is +1 and None without labels.
    """
    if l_max is not None:
        check_tuple_length(l_max)
    labels, degree, lattice = action.labels, action.degree, action.lattice
    kernel, root = action.kernel
    base = (0 if action.order == 1 else None if kernel > 1 else 1 + min(
        depth for _, depth, regular, _, _ in lattice.values() if regular))
    if l_max is None:
        l_max = 2 if base is None else base + 1

    # at each level: the non-regular orbits, those whose stabilizer lies in
    # K, and the regular orbits first reached there; level 0 is the one
    # orbit of the empty tuple
    nonregular, inside, fresh = (0, 0, 1) if base == 0 else (1, 0, 0)
    frontier = {} if base == 0 else {root.tobytes(): 1}
    rows = []
    regular = 0
    for l in range(l_max + 1):
        regular = regular * degree + fresh
        o = nonregular + regular
        o_k = (None if labels is None else o + inside + regular
               if action.signed else o)
        rows.append((l, o, o_k, regular))
        nonregular = inside = fresh = 0
        nxt = {}
        for key, count in frontier.items():
            _, _, key_regular, children, _ = lattice[key]
            fresh += count * key_regular
            for child, orbits in children.items():
                nonregular += count * orbits
                inside += count * orbits * lattice[child][4]  # all +1
                nxt[child] = nxt.get(child, 0) + count * orbits
        frontier = nxt
    return base, rows


# ---------------------------------------------------------------------------
# base-controlling verification


@dataclass(frozen=True)
class ControllingVerdict:
    """Outcome of the base-controlling check.

    A violation is a point set with a nontrivial stabilizer whose labels are
    all +1; the reverse direction cannot fail, a trivial stabilizer has label
    image {+1} by definition.
    """

    controlling: bool
    counterexample: tuple | None = None
    stabilizer_order: int | None = None
    label_image: tuple | None = None


def is_base_controlling(action):
    """Check: every point set has trivial stabilizer iff its labels are all +1.

    Conjugate stabilizers have the same label image, so the verdict is read
    off the lattice keys' +1 flags, one key per stabilizer up to conjugacy.
    Only a violation runs the depth-first search over increasing point
    chains, in lexicographic order, that names the first one. It skips a
    stabilizer (a set of rows) whose subtree already held no violation: a
    violating superset of that stabilizer's points would have a sorted
    chain either in that subtree or before it, so it is found either way.
    """
    if action.labels is None:
        raise InputError("labels required")
    if not action.signed:
        raise InputError(
            "labels are all +1: degenerate, controls only the trivial group")
    if not any(node[4] for node in action.lattice.values()):
        return ControllingVerdict(True)
    cleared = set()

    def walk(stab, start, chosen):
        if not (action.labels[stab] == -1).any():
            return ControllingVerdict(
                False, tuple(action.point_names[i] for i in chosen),
                int(stab.shape[0]), (1,))
        sub = action.table[stab]
        for point in range(start, action.degree):
            child = stab[sub[:, point] == point]
            key = child.tobytes()
            if child.shape[0] in (1, stab.shape[0]) or key in cleared:
                continue
            verdict = walk(child, point + 1, chosen + (point,))
            if verdict is not None:
                return verdict
            cleared.add(key)

    verdict = walk(np.arange(action.order), 0, ())
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
    if group.labels is None:
        raise InputError("group carries no labels")
    rng = random.Random(seed)
    rows = group.table
    for _ in range(samples):
        i = rng.randrange(group.order)
        j = rng.randrange(group.order)
        product = tuple(rows[j][rows[i]].tolist())  # rows[i], then rows[j]
        k = bisect_left(rows, product, key=tuple)
        if k == group.order or tuple(rows[k].tolist()) != product:
            raise ConsistencyError("product of two elements is not a row")
        if group.labels[k] != group.labels[i] * group.labels[j]:
            raise ConsistencyError("labels are not multiplicative")
    return samples


# ---------------------------------------------------------------------------
# group specification mini-format


@dataclass(frozen=True)
class ParsedGroup:
    """A parsed group spec: the induced action plus what it was built from.

    tags holds one parsed tuple per spec part, in order. The first names
    the base group, ("sn", n), ("an", n), ("pgl2", q) or ("gens",); each
    suffix follows as ("subsets", k), ("partitions", r, s) or ("wreath", r).
    """

    action: InducedAction
    tags: tuple
    base_group: InducedAction


def _parse_base(token):
    """The base group of a spec, its tag, and whether its labels are signs."""
    if token.startswith("sn:"):
        n = _parse_int(token[3:], "sn degree")
        return symmetric_group(n), ("sn", n), True
    if token.startswith("an:"):
        n = _parse_int(token[3:], "an degree")
        return alternating_group(n), ("an", n), False
    if token.startswith("pgl2:"):
        q = _parse_int(token[5:], "pgl2 parameter")
        return pgl2(q), ("pgl2", q), False
    if token.startswith("gens:"):
        parts = [part.strip() for part in token[5:].split(";")]
        if not any(parts):
            raise InputError("empty generator list")
        signs = [-1 if part.startswith("!") else 1 for part in parts]
        bodies = [part.removeprefix("!") for part in parts]
        cycles = [_cycle_points(body) for body in bodies]
        degree = max([0] + [point + 1 for body_cycles in cycles
                            for cycle in body_cycles for point in cycle])
        if degree == 0:
            raise InputError("cannot infer degree from identity generators")
        _check_table_capacity(1, degree)  # before any row of that length
        gens = _cycle_rows(bodies, cycles, degree)
        unmarked = -1 not in signs  # then every element carries its sign
        return (closure(gens, _signs(gens).tolist() if unmarked else signs),
                ("gens",), unmarked)
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
    partitions only directly on the base group). ``labels_mode`` is ``auto``
    (sign for sn, none for an, determinant class for pgl2, explicit ``!``
    marks for gens, else the sign) or ``sgn`` (permutation sign of the base
    elements in every case; those of sn and unmarked gens already are).
    """
    if labels_mode not in ("auto", "sgn"):
        raise InputError(f"unknown labels mode: {labels_mode!r}")
    parts = spec.strip().split("/")
    group, base_tag, signed = _parse_base(parts[0].strip())
    if labels_mode == "sgn" and not signed:
        group = with_sign_labels(group)
    action = None
    tags = [base_tag]
    for suffix in parts[1:]:
        suffix = suffix.strip()
        if suffix.startswith("subsets:"):
            if action is not None:
                raise InputError("subsets action must come first")
            k = _parse_int(suffix[8:], "subset size")
            action = act_on_subsets(group, k)
            tags.append(("subsets", k))
        elif suffix.startswith("partitions:"):
            if action is not None:
                raise InputError("partitions action must come first")
            body = suffix[len("partitions:"):]
            if "x" not in body:
                raise InputError(f"bad partitions suffix: {suffix!r}")
            r_text, s_text = body.split("x", 1)
            r = _parse_int(r_text, "block count")
            s = _parse_int(s_text, "block size")
            action = act_on_uniform_partitions(group, r, s)
            tags.append(("partitions", r, s))
        elif suffix.startswith("wreath:"):
            r = _parse_int(suffix[7:], "wreath arity")
            action = product_action_wreath(
                action if action is not None else group, r)
            tags.append(("wreath", r))
        else:
            raise InputError(f"unknown action suffix: {suffix!r}")
    if action is None:
        action = group
    return ParsedGroup(action, tuple(tags), group)
