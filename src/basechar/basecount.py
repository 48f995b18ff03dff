"""Base sizes and regular-orbit counts from exact character sums.

Every search walks l = L, L + 1, ... with incrementally updated value powers
and stops at the first l whose inner product crosses the wanted threshold.
For k-subset actions of the symmetric group the sign homomorphism is
base-controlling, so the minimum is the base size, and the search starts at
L = L0, below which no orbit on l-tuples is regular; the trace entries
below L0 are zeros read off that bound, not class sums.  For
uniform-partition actions a stabilizer inside A_n need not be trivial, so
the bound does not hold, the search starts at L = 1, and the minimum is
only a candidate, as the report says.
"""

from collections import namedtuple
import math

from .characters import (char_vector_subsets, char_vector_uniform_partitions,
                         check_n_limit, iter_inner_products)
from .errors import CapacityError, InputError

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
    zeros below L0 of a k-subset action read off the bound; counts are
    below the search threshold strictly before base_size and reach it
    there (the threshold is 1 for a base size, the distinguishing number
    of the top group for a wreath product). base_size None means
    the action has no base (nontrivial kernel).  character is the
    CharVector of a partition action, None otherwise.
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


def _not_reached(threshold, cap):
    bits = threshold.bit_length()
    shown = threshold if bits <= 64 else f"a {bits}-bit threshold"
    return CapacityError(f"no count reaching {shown} found up to l={cap}")


def _min_l_search(chi, threshold, cap, start=1):
    # every count below start is known to be 0, so it is not summed
    trace = [(l, 0) for l in range(1, start)]
    for l, o, o_k in iter_inner_products(chi, start):
        trace.append((l, o_k - o))
        if o_k - o >= threshold:
            return l, tuple(trace)
        if l >= cap:
            raise _not_reached(threshold, cap)


def _least_nonzero_l(n, k, threshold=1, cap=None):
    """The least l with C(n, k)^l >= threshold * n!, or cap + 1 if that l
    is past cap; at threshold 1 this is L0.

    Every regular orbit of S_n on l-tuples of k-subsets holds n! tuples,
    so a count <sgn, chi^l> of at least threshold needs threshold * n!
    tuples, and below L0 the count is 0.  The power grows one factor per
    step, so a huge cap is never an exponent."""
    need, domain = threshold * math.factorial(n), math.comb(n, k)
    l, tuples = 0, 1
    while tuples < need and (cap is None or l <= cap):
        l, tuples = l + 1, tuples * domain
    return l


def base_size_subsets(n, k, threshold=1, max_l=None):
    """Least l <= max_l (default C(n, k)) with <sgn, chi^l> >= threshold for
    S_n on k-subsets: its base size at threshold 1, and at threshold D the
    base size of its wreath product, in product action, with a top group of
    distinguishing number D. A cap below the least l with C(n, k)^l >=
    D * n! is refused before the build, with the message the search would
    give at its cap; the search starts at L0."""
    _validate_subsets(n, k)
    if threshold < 1:
        raise InputError("distinguishing number must be positive")
    validate_l_limit(max_l)
    check_n_limit(n)
    cap = math.comb(n, k) if max_l is None else max_l
    if _least_nonzero_l(n, k, threshold, cap) > cap:
        raise _not_reached(threshold, cap)
    chi = char_vector_subsets(n, k)
    base, trace = _min_l_search(chi, threshold, cap, _least_nonzero_l(n, k))
    return BaseSizeReport(base, trace)


def large_base_bounds(m, k, r):
    """Base-size bounds for groups sandwiched between the r-th power of the
    alternating group on k-subsets and the full wreath product.

    Returns (lower, upper): lower is the base size of the subset action one
    degree down, upper is the least l whose regular-orbit count reaches r.
    No order between the two is asserted.
    """
    if r < 1:
        raise InputError("r must be positive")
    # both sizes are checked before either search starts
    for n in (m - 1, m):
        _validate_subsets(n, k)
        check_n_limit(n)
    lower = base_size_subsets(m - 1, k).base_size
    upper = base_size_subsets(m, k, threshold=r).base_size
    return lower, upper


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
    cap = chi.domain_size if max_l is None else max_l
    base, trace = _min_l_search(chi, 1, cap)
    caveat = PARTITIONS_CAVEAT
    if known is not None:
        relation = "agrees with" if base == known else "differs from"
        caveat += (f"; the reported value {base} {relation} the published "
                   f"base size {known}")
    return BaseSizeReport(base, trace, caveat=caveat,
                          known_base_size=known, character=chi)
