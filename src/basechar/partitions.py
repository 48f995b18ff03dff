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
below the limits on n, which the actions set in characters.
"""

from math import factorial

from .errors import ConsistencyError, InputError


def enumerate_cycle_types(n):
    """Yield every cycle type of S_n exactly once, as a descending tuple.

    Order: descending lexicographic, so the n-cycle comes first and the
    identity last.  The count of yielded items is the partition number
    p(n).  One loop walks the order (Knuth, TAOCP 7.2.1.4): each step
    lowers the last part above 1 by one and refills the tail greedily
    with parts of that size, the fixed points kept as a count.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    parts, ones = ([n], 0) if n > 1 else ([], 1)
    while True:
        yield tuple(parts) + (1,) * ones
        if not parts:
            return
        x = parts.pop() - 1
        if x == 1:
            ones += 2
            continue
        q, ones = divmod(ones + 1, x)
        parts += [x] * (q + 1)
        if ones > 1:
            parts.append(ones)
            ones = 0


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
