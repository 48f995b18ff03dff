"""Integer partitions as cycle types, with symmetric-group class data.

A cycle type of S_n is a partition of n, stored as the tuple of its parts
(cycle lengths) in descending order: (3, 1, 1) is a 3-cycle with two
fixed points.  n is sum(parts) and the number of cycles is len(parts),
so class size and sign need nothing else.

Enumeration order is descending lexicographic on these tuples, so
(4) > (3,1) > (2,2) > (2,1,1) > (1,1,1,1) for n = 4.  Nothing
mathematical depends on the order, but output alignment and work
splitting do, so it is fixed here once.

All counts are plain Python integers; class sizes exceed 64 bits well
before the limit of n = 64.
"""

from math import factorial

from .errors import CapacityError, ConsistencyError, InputError

DEFAULT_N_LIMIT = 64


def _parts_desc(n, max_part):
    # Descending part tuples in descending lexicographic order.
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _parts_desc(n - first, first):
            yield (first,) + rest


def enumerate_cycle_types(n):
    """Yield every cycle type of S_n exactly once, as a descending tuple.

    Order: descending lexicographic, so the n-cycle comes first and the
    identity last.  The count of yielded items is the partition number
    p(n).
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if n > DEFAULT_N_LIMIT:
        raise CapacityError(f"n = {n} exceeds the limit {DEFAULT_N_LIMIT}")
    yield from _parts_desc(n, n)


def class_size(parts):
    """Number of elements of S_n with the given cycle type.

    Exactly n! / prod_i(i^c_i * c_i!), c_i the number of parts equal to i.
    """
    denom = 1
    for i in set(parts):
        c = parts.count(i)
        denom *= i ** c * factorial(c)
    size, rem = divmod(factorial(sum(parts)), denom)
    if rem:
        raise ConsistencyError(f"class size of {parts} is not an integer")
    return size


def sign_of(parts):
    """Sign of any permutation with this cycle type: (-1)^(n - #cycles)."""
    return -1 if (sum(parts) - len(parts)) % 2 else 1
