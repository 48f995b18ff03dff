"""Brute-force permutation-group engine used as ground truth.

Every group is its own natural action: an action table with one row per
element, the rows in lexicographic order, and its {+1,-1} labels, when it
has any, as an int8 array (no stabilizer chains). Induced actions carry
one table row per parent element, so stabilizers are sets of element
indices and labels stay well-defined even when the action is not
faithful. The lattice of tuple stabilizers, each expanded once, gives the
base size, the orbit counts o and o_K of the group and of its label
kernel, the regular-orbit counts for every l, and whether the labels are
base-controlling. Everything here is deliberately simple and slow; the
fast formula code is validated against it, never the other way around.
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
MAX_CONTROLLING_DEGREE = 24  # bounds only the counterexample search
MAX_DISTINGUISHING_POINTS = 12
# The longest tuple the orbit walk accepts as an explicit limit. A faithful
# action of a group of order at most MAX_CLOSURE_ORDER has a base of at
# most 19 points (each base point at least halves the stabilizer), so the
# default limit of base size + 1 stays far below this cap.
MAX_TUPLE_LENGTH = 64


# ---------------------------------------------------------------------------
# permutations as tuples of images, 0-based


def identity_perm(degree):
    return tuple(range(degree))


def compose(p, q):
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def check_perm(p):
    if sorted(p) != list(range(len(p))):
        raise InputError(f"not a permutation: {p!r}")


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse 1-based cycle notation like ``(1,2)(3,4)`` at a fixed degree."""
    body = text.replace(" ", "")
    if not _CYCLE_RE.sub("", body) == "":
        raise InputError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    for cycle in _CYCLE_RE.findall(body):
        if not cycle:
            continue
        try:
            points = [int(part) - 1 for part in cycle.split(",")]
        except ValueError:
            raise InputError(f"malformed cycle notation: {text!r}") from None
        if len(set(points)) != len(points):
            raise InputError(f"repeated point in cycle: {text!r}")
        for point in points:
            if not 0 <= point < degree:
                raise InputError(f"point out of range in {text!r}")
            if images[point] != point:
                raise InputError(f"point repeated across cycles: {text!r}")
        for i, point in enumerate(points):
            images[point] = points[(i + 1) % len(points)]
    return tuple(images)


def max_point_of_cycles(text):
    best = 0
    for cycle in _CYCLE_RE.findall(text.replace(" ", "")):
        if cycle:
            try:
                best = max(best, max(int(part) for part in cycle.split(",")))
            except ValueError:
                raise InputError(f"malformed cycle notation: {text!r}") from None
    return best


# ---------------------------------------------------------------------------
# groups


@dataclass
class InducedAction:
    """Action table with one row per group element.

    A group is its own natural action, rows in lexicographic order. Rows of
    an induced action may repeat when it is not faithful; stabilizers are
    sets of row indices, so parent labels carry over unchanged.
    """

    degree: int
    table: np.ndarray
    labels: np.ndarray | None
    point_names: tuple
    description: str

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.table):
            raise InputError("labels and table rows differ in length")

    @property
    def order(self):
        return self.table.shape[0]

    @cached_property
    def kernel(self):
        """(kernel order, mask of the points every row fixes), both read off
        one comparison of the table with the identity row."""
        fixed = self.table == np.arange(self.degree)
        return int(np.count_nonzero(fixed.all(axis=1))), fixed.all(axis=0)

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


def _natural(table, labels=None):
    """The group whose elements are the rows of a lexicographically sorted
    table, as its natural action."""
    order, degree = table.shape
    _check_table_capacity(order, degree)
    names = tuple(str(i + 1) for i in range(degree))
    return InducedAction(degree, table, labels, names,
                         f"natural action on {degree} points")


def _signs(table):
    """Sign of every row, +1 even and -1 odd, from its inversion parity."""
    inversions = np.zeros(table.shape[0], dtype=np.int64)
    for i in range(table.shape[1] - 1):
        inversions += np.count_nonzero(table[:, i + 1:] < table[:, i:i + 1],
                                       axis=1)
    return (1 - 2 * (inversions % 2)).astype(np.int8)


def closure(generators, labels=None, degree=None, max_order=MAX_CLOSURE_ORDER):
    """Close a generator list under composition, propagating labels.

    Labels, when given, ride along multiplicatively; reaching the same
    element with both signs means the labeling is not a homomorphism.
    """
    generators = [tuple(g) for g in generators]
    for g in generators:
        check_perm(g)
    if generators:
        degrees = {len(g) for g in generators}
        if len(degrees) != 1:
            raise InputError("generators have mixed degrees")
        degree = degrees.pop()
    elif degree is None:
        raise InputError("empty generator list needs an explicit degree")
    if labels is not None:
        labels = [int(x) for x in labels]
        if len(labels) != len(generators):
            raise InputError("one label per generator required")
        if any(x not in (1, -1) for x in labels):
            raise InputError("labels must be +1 or -1")
    ident = identity_perm(degree)
    found = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for element in frontier:
            for gi, g in enumerate(generators):
                image = compose(element, g)
                label = found[element] * (labels[gi] if labels else 1)
                known = found.get(image)
                if known is None:
                    if len(found) >= max_order:
                        raise CapacityError(
                            f"group order exceeds {max_order}")
                    found[image] = label
                    nxt.append(image)
                elif known != label:
                    raise InputError(
                        "generator labels do not define a homomorphism")
        frontier = nxt
    elements = sorted(found)
    out_labels = (np.array([found[e] for e in elements], np.int8)
                  if labels else None)
    return _natural(np.array(elements, dtype=np.int32), out_labels)


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
    if math.factorial(n) > MAX_CLOSURE_ORDER:
        raise CapacityError(f"order {n}! exceeds {MAX_CLOSURE_ORDER}")
    table = np.zeros((1, 0), dtype=np.int32)
    signs = np.ones(1, dtype=np.int8)
    for m in range(1, n + 1):
        firsts = np.arange(m, dtype=np.int32)[:, None, None]
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


def _is_prime(q):
    if q < 2:
        return False
    for d in range(2, int(q ** 0.5) + 1):
        if q % d == 0:
            return False
    return True


def pgl2(q):
    """PGL_2(q) as Moebius maps on the projective line over F_q.

    Points 0..q-1 are field elements, point q is infinity. Each element is
    built once, in one array pass, from the matrix (a b; c d) scaled to
    bottom row (0, 1) or (1, d). It is labeled +1 iff its determinant is a
    nonzero square mod q (scaling multiplies the determinant by a square);
    the kernel of that labeling is PSL_2(q).
    """
    if not _is_prime(q) or q % 2 == 0 or q > 31:
        raise InputError("q must be an odd prime at most 31")
    x = np.arange(q)
    a, b, bottom = (v.ravel() for v in np.meshgrid(x, x, np.arange(q + 1)))
    c, d = np.minimum(bottom, 1), np.where(bottom, bottom - 1, 1)
    det = (a * d - b * c) % q
    a, b, c, d, det = (v[det != 0] for v in (a, b, c, d, det))
    den = (c[:, None] * x + d[:, None]) % q
    inverses = np.array([0] + [pow(int(v), q - 2, q) for v in x[1:]])
    finite = np.where(den, (a[:, None] * x + b[:, None]) * inverses[den] % q, q)
    table = np.column_stack([finite, np.where(c, a, q)]).astype(np.int32)
    order = np.lexsort(table.T[::-1])
    table = table[order]
    if (table[1:] == table[:-1]).all(axis=1).any():
        raise ConsistencyError("two normalised matrices give one map")
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
    out = np.empty((len(table), len(levels[-1])), dtype=np.int32)
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
    return InducedAction(len(points), _sets_table(group.table, points),
                         group.labels, names, f"action on {k}-subsets")


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
    return InducedAction(len(points), table, group.labels, names,
                         f"action on uniform ({r}x{s})-partitions")


def product_action_wreath(base, r, top_generators=None):
    """Wreath product with product action on r-tuples of base points.

    The top group is S_r unless explicit generators on r points are given.
    An element (g_1, ..., g_r; sigma) maps coordinate i of a tuple to the
    g_{sigma^-1(i)} image of coordinate sigma^-1(i). Base labels, when
    present, carry over as the product of the per-coordinate labels.
    """
    if r < 1:
        raise InputError("r must be positive")
    if top_generators is None:
        # r! factor by factor, refused once it passes the bound (from
        # r = 10 on): a large r never computes a huge factorial or power,
        # nor lists the r! permutations.
        top_order = 1
        for factor in range(2, r + 1):
            top_order *= factor
            if top_order > MAX_CLOSURE_ORDER:
                raise CapacityError(f"wreath order exceeds {MAX_CLOSURE_ORDER}:"
                                    f" the top group S_{r} alone has order {r}!")
    else:
        top = closure(top_generators, degree=r).table.tolist()
        top_order = len(top)
    degree = base.degree ** r
    order = base.order ** r * top_order
    if order > MAX_CLOSURE_ORDER:
        raise CapacityError(f"wreath order {order} exceeds {MAX_CLOSURE_ORDER}")
    _check_table_capacity(order, degree)
    if top_generators is None:
        top = list(permutations(range(r)))

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
    inverses = np.argsort(np.array(top, dtype=np.int32).reshape(-1, r), axis=1)
    moved = np.zeros((len(inverses), degree), dtype=np.int32)
    for i in range(r):
        moved += weights[i] * digits.T[inverses[:, i]]
    # row b * |top| + s is bottom b followed by sigma s
    table = moved[np.arange(len(inverses))[:, None], bottoms[:, None, :]]
    table = table.reshape(order, degree)
    labels = None
    if base.labels is not None:
        labels = np.ones(1, dtype=np.int8)
        for _ in range(r):
            labels = np.outer(labels, base.labels).ravel()
        labels = np.repeat(labels, len(inverses))
    description = f"wreath product action on {degree} tuples"
    return InducedAction(degree, table, labels, names, description)


# ---------------------------------------------------------------------------
# orbits, bases, regular orbits


def kernel_order(action):
    """Number of elements acting trivially; 1 means the action is faithful."""
    return action.kernel[0]


def check_tuple_length(l_max):
    """Reject a tuple length the orbit walk cannot reach or need."""
    if l_max < 0:
        raise InputError("l must be nonnegative")
    if l_max > MAX_TUPLE_LENGTH:
        raise CapacityError(
            f"tuple length {l_max} exceeds {MAX_TUPLE_LENGTH}")


def _stabilizer_lattice(action):
    """{key: (rows, depth, regular orbits on points, {child key: orbits})}
    for every tuple stabilizer, expanded once each, breadth first from the
    whole group: depth is the shortest tuple with that stabilizer.

    A tuple's stabilizer G_S is also the pointwise stabilizer of its own
    fixed-point set F (it fixes F, and S lies in F), so F, as the bytes of a
    mask over the points, is its key; stabilizers are sets of row indices,
    so this holds for non-faithful actions too. Each non-regular orbit on
    points leads to the key of its point stabilizer.
    """
    table, points = action.table, np.arange(action.degree)
    root = action.kernel[1].tobytes()
    found = {root: (np.arange(action.order), 0)}
    lattice = {}
    queue = [root]
    for key in queue:
        stab, depth = found[key]
        sub = table[stab]
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
        lattice[key] = (stab, depth, regular, children)
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
    odd = None
    if labels is not None and (labels == -1).any():
        if 2 * int(np.count_nonzero(labels == 1)) != action.order:
            raise ConsistencyError(
                "labels with a -1 must put exactly half the rows at +1")
        odd = labels == -1
    inside_k = {key: odd is not None and not odd[node[0]].any()
                for key, node in lattice.items()}
    kernel, root = action.kernel
    base = (0 if action.order == 1 else None if kernel > 1 else 1 + min(
        depth for _, depth, regular, _ in lattice.values() if regular))
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
        o_k = (None if labels is None else o if odd is None
               else o + inside + regular)
        rows.append((l, o, o_k, regular))
        nonregular = inside = fresh = 0
        nxt = {}
        for key, count in frontier.items():
            _, _, key_regular, children = lattice[key]
            fresh += count * key_regular
            for child, orbits in children.items():
                nonregular += count * orbits
                inside += count * orbits * inside_k[child]
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


def is_base_controlling(action, max_degree=MAX_CONTROLLING_DEGREE):
    """Check: every point set has trivial stabilizer iff its labels are all +1.

    Conjugate stabilizers have the same label image, so the verdict is read
    off the lattice keys, one per stabilizer up to conjugacy. Only a
    violation runs the depth-first subset search, bounded by max_degree,
    that names the first one.
    """
    if action.labels is None:
        raise InputError("labels required")
    labels = np.asarray(action.labels)
    if not (labels == -1).any():
        raise InputError(
            "labels are all +1: degenerate, controls only the trivial group")
    if int((labels == 1).sum()) * 2 != action.order:
        raise InputError("labels are not a homomorphism onto {1,-1}")
    if all((labels[node[0]] == -1).any() for node in action.lattice.values()):
        return ControllingVerdict(True)
    if action.degree > max_degree:
        raise CapacityError(
            f"not controlling: a stabilizer carries only +1 labels, but the "
            f"counterexample search is refused at degree {action.degree} "
            f"(over {max_degree})")

    def walk(stab, start, chosen):
        if not (labels[stab] == -1).any():
            return ControllingVerdict(
                False, tuple(action.point_names[i] for i in chosen),
                int(stab.shape[0]), (1,))
        sub = action.table[stab]
        for point in range(start, action.degree):
            child = stab[sub[:, point] == point]
            if child.shape[0] == 1 or child.shape[0] == stab.shape[0]:
                continue
            verdict = walk(child, point + 1, chosen + (point,))
            if verdict is not None:
                return verdict

    verdict = walk(np.arange(action.order), 0, ())
    if verdict is None:
        raise ConsistencyError("subset search missed the lattice violation")
    return verdict


# ---------------------------------------------------------------------------
# distinguishing number


def distinguishing_number(group, max_points=MAX_DISTINGUISHING_POINTS):
    """Least c such that some coloring of the domain with at most c colors
    has trivial stabilizer (elements preserving every color class setwise).

    Colorings are enumerated up to color renaming as restricted growth
    strings, so each set partition of the domain is tested once.
    """
    m = group.degree
    if m > max_points:
        raise CapacityError(f"degree {m} exceeds {max_points}")
    table = group.table
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

    action_tags holds one parsed tuple per suffix, in order:
    ("subsets", k), ("partitions", r, s) or ("wreath", r).
    """

    action: InducedAction
    base_kind: str
    base_param: int | None
    action_tags: tuple
    base_group: InducedAction


def _parse_base(token, labels_mode):
    if token.startswith("sn:"):
        n = _parse_int(token[3:], "sn degree")
        return symmetric_group(n), "sn", n
    if token.startswith("an:"):
        n = _parse_int(token[3:], "an degree")
        group = alternating_group(n)
        if labels_mode == "sgn":
            group = with_sign_labels(group)
        return group, "an", n
    if token.startswith("pgl2:"):
        q = _parse_int(token[5:], "pgl2 parameter")
        group = pgl2(q)
        if labels_mode == "sgn":
            group = with_sign_labels(group)
        return group, "pgl2", q
    if token.startswith("gens:"):
        raw = token[5:].split(";")
        if not any(part.strip() for part in raw):
            raise InputError("empty generator list")
        signs = []
        bodies = []
        for part in raw:
            part = part.strip()
            if part.startswith("!"):
                signs.append(-1)
                part = part[1:]
            else:
                signs.append(1)
            bodies.append(part)
        degree = max(max_point_of_cycles(body) for body in bodies)
        if degree == 0:
            raise InputError("cannot infer degree from identity generators")
        gens = [parse_cycles(body, degree) for body in bodies]
        explicit = any(sign == -1 for sign in signs)
        group = closure(gens, labels=signs if explicit else None)
        if labels_mode == "sgn" or (labels_mode == "auto" and not explicit):
            group = with_sign_labels(group)
        return group, "gens", None
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
    (sign for sn, determinant class for pgl2, explicit ``!`` marks for gens)
    or ``sgn`` (permutation sign of the base elements in every case).
    """
    if labels_mode not in ("auto", "sgn"):
        raise InputError(f"unknown labels mode: {labels_mode!r}")
    parts = spec.strip().split("/")
    group, kind, param = _parse_base(parts[0].strip(), labels_mode)
    action = None
    tags = []
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
    return ParsedGroup(action, kind, param, tuple(tags), group)
