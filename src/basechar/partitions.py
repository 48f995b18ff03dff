"""Integer partitions as cycle types, with symmetric-group class data.

A partition of n is stored as a dense multiplicity vector: counts[i-1]
is the number of parts (cycles) of length i.  This matches the shape of
every downstream formula -- class size, sign, and the fixed-point counts
of induced actions are all written in the multiplicities c_1..c_n.

Enumeration order is descending lexicographic on the descending part
lists, so (4) > (3,1) > (2,2) > (2,1,1) > (1,1,1,1) for n = 4.  Nothing
mathematical depends on the order, but output alignment and work
splitting do, so it is fixed here once.

All counts are plain Python integers; class sizes exceed 64 bits well
before the default limit of n = 64.
"""

from dataclasses import dataclass
from math import factorial

from .errors import CapacityError, InputError

DEFAULT_N_LIMIT = 64


@dataclass(frozen=True, slots=True)
class CycleType:
    """Multiplicity vector of a partition of n.

    counts has length n, trailing zeros included; counts[i-1] is the
    number of i-cycles, and sum(i * c_i) must equal n.
    """

    n: int
    counts: tuple

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"n must be positive, got {self.n}")
        if len(self.counts) != self.n:
            raise InputError(
                f"counts must have length n={self.n}, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise InputError("cycle multiplicities must be nonnegative")
        total = sum(i * c for i, c in enumerate(self.counts, start=1))
        if total != self.n:
            raise InputError(
                f"multiplicities sum to {total}, expected n={self.n}")

    @classmethod
    def from_parts(cls, n, parts):
        """Build from an iterable of part lengths (any order)."""
        counts = [0] * n
        for p in parts:
            if not 1 <= p <= n:
                raise InputError(f"part {p} out of range for n={n}")
            counts[p - 1] += 1
        return cls(n, tuple(counts))

    @classmethod
    def _unchecked(cls, n, counts):
        # For multiplicity vectors that are valid by construction: skips
        # the checks of __post_init__, which dominate an enumeration.
        ct = object.__new__(cls)
        object.__setattr__(ct, "n", n)
        object.__setattr__(ct, "counts", counts)
        return ct

    def parts(self):
        """Part lengths in descending order, e.g. [3, 1, 1]."""
        out = []
        for i in range(self.n, 0, -1):
            if self.counts[i - 1]:
                out += [i] * self.counts[i - 1]
        return out

    @property
    def num_cycles(self):
        return sum(self.counts)

    @property
    def is_identity(self):
        return self.counts[0] == self.n

    def __str__(self):
        return "+".join(map(str, self.parts()))


def _parts_desc(n, max_part):
    # Descending part lists in descending lexicographic order.
    if n == 0:
        yield []
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _parts_desc(n - first, first):
            yield [first] + rest


def enumerate_cycle_types(n, limit=DEFAULT_N_LIMIT):
    """Yield every cycle type of S_n exactly once.

    Order: descending lexicographic on the descending part lists, so the
    n-cycle comes first and the identity last.  The count of yielded
    items is the partition number p(n).
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if n > limit:
        raise CapacityError(f"n = {n} exceeds the limit {limit}")
    for parts in _parts_desc(n, n):
        counts = [0] * n
        for p in parts:
            counts[p - 1] += 1
        yield CycleType._unchecked(n, tuple(counts))


def class_size(ct):
    """Number of elements of S_n with the given cycle type.

    Exactly n! / prod_i(i^c_i * c_i!).
    """
    denom = 1
    for i, c in enumerate(ct.counts, start=1):
        if c:
            denom *= i ** c * factorial(c)
    size, rem = divmod(factorial(ct.n), denom)
    assert rem == 0
    return size


def sign_of(ct):
    """Sign of any permutation with this cycle type: (-1)^(n - #cycles)."""
    return -1 if (ct.n - ct.num_cycles) % 2 else 1
