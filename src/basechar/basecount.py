"""Base sizes and regular-orbit counts from exact character sums.

Every search walks l = 1, 2, ... with incrementally updated class powers and
stops at the first l whose inner product crosses the wanted threshold. For
k-subset actions of the symmetric group the sign homomorphism is
base-controlling, so the minimum is the base size; for uniform-partition
actions it is only a candidate and the report says so.
"""

from dataclasses import dataclass
import math

from .characters import (CharVector, char_vector_subsets,
                         char_vector_uniform_partitions, inner_product,
                         iter_inner_products, sign_vector)
from .errors import CapacityError, InputError

# Published base size of the symmetric group on 15 points acting on the
# uniform partitions into 3 blocks of size 5, cited for comparison against
# the candidate value computed here.
KNOWN_PARTITION_BASE_SIZES = {(15, 3, 5): 3}

PARTITIONS_CAVEAT = (
    "the minimum l equals the base size only if the sign homomorphism is "
    "base-controlling for this action, which can fail")


@dataclass(frozen=True)
class BaseSizeReport:
    """Minimum-l search outcome with its full witness trace.

    witness_l_values holds (l, regular_orbit_count) for l = 1..base_size;
    counts are zero strictly below base_size and positive at it. base_size
    None means the action has no base (nontrivial kernel).
    """

    action: str
    base_size: int | None
    witness_l_values: tuple
    method: str
    caveat: str | None = None
    known_base_size: int | None = None
    character: CharVector | None = None


@dataclass(frozen=True)
class WreathReport:
    """Threshold search outcome for a wreath product in product action."""

    inner_action: str
    distinguishing_number: int
    base_size: int
    threshold_trace: tuple


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


def _min_l_search(phi, chi, threshold, cap):
    trace = []
    for l, value in iter_inner_products(phi, chi):
        trace.append((l, value))
        if value >= threshold:
            return l, tuple(trace)
        if l >= cap:
            raise CapacityError(
                f"no count reaching {threshold} found up to l={cap}")


def base_size_subsets(n, k, max_l=None):
    """Base size of the symmetric group of degree n on k-subsets."""
    _validate_subsets(n, k)
    validate_l_limit(max_l)
    chi = char_vector_subsets(n, k)
    phi = sign_vector(n)
    cap = math.comb(n, k) if max_l is None else max_l
    base, trace = _min_l_search(phi, chi, 1, cap)
    return BaseSizeReport(f"{k}-subsets of [{n}]", base, trace, "formula")


def regular_orbit_count(n, k, l):
    """Number of regular orbits on l-tuples of k-subsets."""
    _validate_subsets(n, k)
    if l < 0:
        raise InputError("l must be nonnegative")
    return inner_product(sign_vector(n), char_vector_subsets(n, k), l)


def base_size_wreath_subsets(n, k, distinguishing):
    """Base size of the wreath product over the k-subset action, in
    product action, for a top group with the given distinguishing number."""
    _validate_subsets(n, k)
    if distinguishing < 1:
        raise InputError("distinguishing number must be positive")
    chi = char_vector_subsets(n, k)
    phi = sign_vector(n)
    base, trace = _min_l_search(phi, chi, distinguishing, math.comb(n, k))
    return WreathReport(f"{k}-subsets of [{n}]", distinguishing, base, trace)


def large_base_bounds(m, k, r):
    """Base-size bounds for groups sandwiched between the r-th power of the
    alternating group on k-subsets and the full wreath product.

    Returns (lower, upper): lower is the base size of the subset action one
    degree down, upper is the least l whose regular-orbit count reaches r.
    No order between the two is asserted.
    """
    if r < 1:
        raise InputError("r must be positive")
    _validate_subsets(m, k)
    _validate_subsets(m - 1, k)
    lower = base_size_subsets(m - 1, k).base_size
    upper = base_size_wreath_subsets(m, k, r).base_size
    return lower, upper


def base_size_partitions_action(n, r, s, max_l=None):
    """Candidate base size for the uniform-partition action: the least l
    with a nonzero signed count. Always flagged, see PARTITIONS_CAVEAT.
    The report carries the character it was computed from."""
    validate_l_limit(max_l)
    chi = char_vector_uniform_partitions(n, r, s)
    phi = sign_vector(n)
    action = f"partitions of [{n}] into {r} blocks of size {s}"
    known = KNOWN_PARTITION_BASE_SIZES.get((n, r, s))
    # a class value equal to the domain size means the class acts trivially
    trivial_classes = sum(1 for value in chi.values
                          if value == chi.domain_size)
    if trivial_classes > 1:
        return BaseSizeReport(
            action, None, (), "formula",
            caveat="the action is not faithful, no base exists",
            known_base_size=known, character=chi)
    cap = chi.domain_size if max_l is None else max_l
    base, trace = _min_l_search(phi, chi, 1, cap)
    caveat = PARTITIONS_CAVEAT
    if known is not None:
        relation = "agrees with" if base == known else "differs from"
        caveat += (f"; the reported value {base} {relation} the published "
                   f"base size {known}")
    return BaseSizeReport(action, base, trace, "formula", caveat=caveat,
                          known_base_size=known, character=chi)
