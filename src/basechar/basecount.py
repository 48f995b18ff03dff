"""Base sizes and regular-orbit counts from exact character sums.

Every search walks l = L, L + 1, ... with incrementally updated value powers
and stops at the first l whose inner product crosses the wanted threshold,
by a proven bound (see _min_l_search).  For k-subset actions of S_n the sign
homomorphism is base-controlling, so the minimum is the base size, and the
search starts at L = L1 (see least_l_distinct), the trace entries below it
zeros read off that bound.  For uniform-partition actions a stabilizer
inside A_n need not be trivial, so L1 does not hold, the search starts at
L = 1, and the minimum is only a candidate, as the report says.
"""

import sys
from collections import namedtuple
from math import comb, factorial

from .characters import (char_vector_subsets, char_vector_uniform_partitions,
                         check_n_limit, check_power, iter_inner_products,
                         orbit_counts)
from .errors import CapacityError, ConsistencyError, InputError

# Published base size of the symmetric group on 15 points acting on the
# uniform partitions into 3 blocks of size 5, cited for comparison against
# the candidate value computed here.
KNOWN_PARTITION_BASE_SIZES = {(15, 3, 5): 3}

PARTITIONS_CAVEAT = (
    "the minimum l equals the base size only if the sign homomorphism is "
    "base-controlling for this action, which can fail")


class BaseSizeReport(namedtuple("BaseSizeReport", "base_size "
                                "witness_l_values caveat known_base_size "
                                "character", defaults=(None, None, None))):
    """Minimum-l search outcome with its full witness trace.

    witness_l_values holds (l, <sgn, chi^l>) for l = 1..base_size, the
    zeros below L1 of a k-subset action read off the bound; counts are
    below the search threshold strictly before base_size and reach it
    there (the threshold is 1 for a base size, the distinguishing number
    of the top group for a wreath product), by the bound of _min_l_search.
    base_size None means the action has no base (nontrivial kernel).
    character is the CharVector of a partition action, None otherwise.
    """

    __slots__ = ()


def _validate_subsets(n, k):
    if k < 1:
        raise InputError("k must be positive")
    if k == 1:
        if n < 2:
            raise InputError("need n >= 2 for the natural action")
    elif n <= 2 * k:
        raise InputError("need n > 2k when k >= 2")


def validate_l_limit(l_limit):
    """Reject a search limit below 1 before any work starts."""
    if l_limit is not None and l_limit < 1:
        raise InputError(f"the l limit must be at least 1, got {l_limit}")


def _not_reached(threshold, l):
    bits = threshold.bit_length()
    shown = threshold if bits <= 64 else f"a {bits}-bit threshold"
    return f"no count reaching {shown} found up to l={l}"


def _min_l_search(chi, threshold, cap, start=1):
    # A faithful action of S_n has a base of at most log2 n! points (each
    # halves the stabilizer), and D > 1 regular orbits on k-subsets follow
    # within ceil(log2 D) more steps (the count grows C(n, k) >= 2 fold).
    bound = factorial(chi.n).bit_length() - 1 + (threshold - 1).bit_length()
    trace = [(l, 0) for l in range(1, start)]  # known zeros
    for l, o, o_k in iter_inner_products(chi, start):
        trace.append((l, o_k - o))
        if o_k - o >= threshold:
            return l, tuple(trace)
        if l >= bound:
            raise ConsistencyError(_not_reached(threshold, l) + " (the bound)")
        if l == cap:
            raise CapacityError(_not_reached(threshold, cap))


def least_l_holding(n, k, threshold=1, cap=None):
    """The least l whose C(n, k)^l tuples can hold threshold orbits of n!
    tuples each, C(n, k)^l >= threshold * n!, or cap + 1 if that l is past
    cap; at threshold 1 this is L0.

    Every orbit of S_n on l-tuples of k-subsets holds at most n! tuples,
    so o >= C(n, k)^l / n!; a regular one holds exactly n!, so a count
    <sgn, chi^l> of at least threshold needs this l, and below L0 it is 0.
    The power grows one factor per step, so a huge cap is never an
    exponent; without a cap, C(n, k) must exceed 1."""
    need, domain = threshold * factorial(n), comb(n, k)
    l, tuples = 0, 1
    while tuples < need and (cap is None or l <= cap):
        l, tuples = l + 1, tuples * domain
    return l


def orbit_counts_subsets(n, k, l):
    """(o, o_K) of S_n on l-tuples of k-subsets. For 1 <= k < n a negative
    l, and one whose o >= C(n, k)^l / n! has more digits than Python
    prints, are refused before the build; other k are left to the build.
    """
    if 1 <= k < n:
        check_n_limit(n)
        check_power(l)
        limit = sys.get_int_max_str_digits()
        if limit and least_l_holding(n, k, 10 ** (limit + 1), l) <= l:
            raise CapacityError(f"o has more decimal digits at l = {l} "
                                f"than Python prints ({limit})")
    return orbit_counts(char_vector_subsets(n, k), l)


def least_l_distinct(n, k):
    """L1, the least l with W(n, l) <= k * l, where W(n, l) is the least
    total weight of n distinct vectors in {0,1}^l: the weight-0, weight-1,
    ... vectors taken in turn, none while 2^l < n.

    A base (S_1..S_l) of k-subsets gives each point its membership vector
    in {0,1}^l. Two points x != y with one vector would have (x y) fixing
    every S_i, so the n vectors are distinct and their weights sum to
    |S_1| + ... + |S_l| = k * l. Hence <sgn, chi^l> = 0 for every l < L1.
    At l = n - 1 the zero vector and the n - 1 unit vectors weigh n - 1, so
    L1 <= n - 1."""
    l = 0
    while True:
        l += 1
        weight, left = 0, n
        for w in range(l + 1):
            take = min(left, comb(l, w))
            weight, left = weight + w * take, left - take
            if not left:
                break
        if not left and weight <= k * l:
            return l


def base_size_subsets(n, k, threshold=1, max_l=None):
    """Least l with <sgn, chi^l> >= threshold for S_n on k-subsets: its base
    size at threshold 1, and at threshold D the base size of its wreath
    product, in product action, with a top group of distinguishing number
    D. The search starts at L1, every count from there on a class sum. A
    max_l below L1 or below the least l with C(n, k)^l >= D * n! is refused
    before the build, with the message the search would give at max_l."""
    _validate_subsets(n, k)
    if threshold < 1:
        raise InputError("distinguishing number must be positive")
    validate_l_limit(max_l)
    check_n_limit(n)
    start = least_l_distinct(n, k)
    if max_l and max(least_l_holding(n, k, threshold, max_l), start) > max_l:
        raise CapacityError(_not_reached(threshold, max_l))
    chi = char_vector_subsets(n, k)
    base, trace = _min_l_search(chi, threshold, max_l, start)
    return BaseSizeReport(base, trace)


def large_base_bounds(m, k, r):
    """Base-size bounds for groups sandwiched between the r-th power of the
    alternating group on k-subsets and the full wreath product.

    Returns (lower, upper): lower is the base size of the subset action one
    degree down, L1 = least_l_distinct(m - 1, k) with no class sum: no base
    is shorter (see there), and test_distinct_vector_base_at_l1 builds one
    of that size at every m - 1 <= 63. upper, the least l whose
    regular-orbit count reaches r, is searched first, so its n limit
    refuses a huge m before L1's loop starts. No order is asserted.
    """
    if r < 1:
        raise InputError("r must be positive")
    _validate_subsets(m - 1, k)  # m - 1 > 2k implies m > 2k
    upper = base_size_subsets(m, k, threshold=r).base_size
    return least_l_distinct(m - 1, k), upper


def base_size_partitions_action(n, r, s, max_l=None):
    """Candidate base size for the uniform-partition action: the least l
    with a nonzero signed count. Always flagged, see PARTITIONS_CAVEAT.
    The report carries the character it was computed from."""
    validate_l_limit(max_l)
    chi = char_vector_uniform_partitions(n, r, s)
    known = KNOWN_PARTITION_BASE_SIZES.get((n, r, s))
    if n == 1:  # S_1 is trivial: base size 0, nothing to search
        return BaseSizeReport(0, (), known_base_size=known, character=chi)
    # the permutations with value domain_size act trivially: the kernel
    kernel = sum(weight for value, weight, _ in chi.terms
                 if value == chi.domain_size)
    if kernel > 1:
        return BaseSizeReport(
            None, (), caveat="the action is not faithful, no base exists",
            known_base_size=known, character=chi)
    base, trace = _min_l_search(chi, 1, max_l)
    caveat = PARTITIONS_CAVEAT
    if known is not None:
        relation = "agrees with" if base == known else "differs from"
        caveat += (f"; the reported value {base} {relation} the published "
                   f"base size {known}")
    return BaseSizeReport(base, trace, caveat=caveat,
                          known_base_size=known, character=chi)
