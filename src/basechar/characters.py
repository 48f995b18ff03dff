"""Permutation characters of S_n actions as weighted class sums.

Two actions are covered: the action on k-element subsets of [n] and the
action on partitions of [n] into r blocks of equal size s, whose
character is read off the plethysm h_r[h_s].

A CharVector holds terms (weight, sign, value): weight permutations of
the given sign on which the character takes the given value.  For the
partition action there is one term per conjugacy class, and the vector
also keeps each class's cycle type.  The k-subset character depends only
on the numbers c_1..c_k of cycles of length at most k, so that vector is
collapsed: one group per vector (c_1..c_k), weighted by the number of
ways to place the remaining points in cycles longer than k, split into
its even and odd parts.  That is at most two terms per group: 725 at
n = 40, k = 2 against p(40) = 37,338 classes.

Every count is one loop over the terms: the total T = sum of weight *
chi^l and its even-sign part E give o = T/n! orbits of S_n and
o_K = 2E/n! orbits of A_n on l-tuples, and o_K - o = <sgn, chi^l> is the
number of orbits that split, the regular-orbit count of the paper.  Both
sums must divide by n! with no remainder and all three counts must be
nonnegative; violations raise ConsistencyError -- they can only come
from bugs, never from input.
"""

from dataclasses import dataclass
from math import comb, factorial

from .errors import CapacityError, ConsistencyError, InputError
from .partitions import (DEFAULT_N_LIMIT, class_size, enumerate_cycle_types,
                         sign_of)

# Largest n for the uniform-partition action.  The closed form costs about
# as much as p(n) classes, so this is a bound on time only.
UNIFORM_CEILING = 36


@dataclass(frozen=True)
class CharVector:
    """A permutation character of S_n as a weighted class sum.

    terms holds (weight, sign, value) triples whose weights sum to n!.
    cycle_types is None for a collapsed sum; otherwise each term is one
    conjugacy class, cycle_types[i] is the descending part tuple of the
    class of terms[i] and the order is that of enumerate_cycle_types(n).
    action is a tag like "subsets:2" or "partitions:3x5"; domain_size is
    the number of points acted on (the value at the identity).
    """

    n: int
    action: str
    domain_size: int
    terms: tuple
    cycle_types: tuple | None = None

    @property
    def values(self):
        """Character values, one per term."""
        return tuple(value for _, _, value in self.terms)


def _times_one_plus(poly, j):
    # poly * (1 + x^j), truncated to the length of poly.
    return poly[:j] + [a + b for a, b in zip(poly[j:], poly)]


def _long_cycle_counts(n, k):
    """Even and odd permutations of m points, m = 0..n, whose cycles are
    all longer than k.

    The unsigned count D(m) and the signed count S(m), in which a j-cycle
    counts (-1)^(j-1), come from the cycle through the last point: it has
    length j > k and (m-1)!/(m-j)! ways to fill it, so
    D(m) = sum over j > k of (m-1)!/(m-j)! D(m-j), and S(m) alike with
    each term signed (Flajolet and Sedgewick, Analytic Combinatorics,
    II.4).  Returns the lists (D + S)/2 and (D - S)/2.
    """
    unsigned = [1] + [0] * n
    signed = [1] + [0] * n
    for m in range(k + 1, n + 1):
        for j in range(k + 1, m + 1):
            ways = factorial(m - 1) // factorial(m - j)
            unsigned[m] += ways * unsigned[m - j]
            signed[m] += (ways if j % 2 else -ways) * signed[m - j]
    return ([(d + s) // 2 for d, s in zip(unsigned, signed)],
            [(d - s) // 2 for d, s in zip(unsigned, signed)])


def char_vector_subsets(n, k):
    """Character of S_n on k-subsets, collapsed by (c_1..c_k).

    The vector (c_1..c_k) leaves m = n - sum j c_j points, which must lie
    in cycles longer than k, so m is 0 or above k.  Its group holds
    n! / (prod j^c_j c_j! * m!) * D(m) permutations, D(m) from
    _long_cycle_counts split by sign.  The k-subset and (n - k)-subset
    characters are equal, so the smaller k is used.
    """
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    if n > DEFAULT_N_LIMIT:
        raise CapacityError(f"n = {n} exceeds the limit {DEFAULT_N_LIMIT}")
    action, domain = f"subsets:{k}", comb(n, k)
    k = min(k, n - k)
    even, odd = _long_cycle_counts(n, k)
    order = factorial(n)
    terms = []

    def place(j, used, denom, sign, poly):
        # Choose c_j, c_(j-1), ..., c_1; poly[d] counts the fixed d-subsets
        # made of the cycles chosen so far.
        if j > 1:
            for c in range((n - used) // j + 1):
                place(j - 1, used + j * c, denom * j ** c * factorial(c),
                      -sign if j % 2 == 0 and c % 2 else sign, poly)
                poly = _times_one_plus(poly, j)
            return
        # c_1 leaves m = n - used - c_1 points, so c_1 < n - k - used or
        # c_1 = n - used.  For k = 0 every cycle is long.
        rest = n - used
        for c in [*range(rest - k), rest] if k else [0]:
            m = rest - c
            value = sum(comb(c, i) * poly[k - i]
                        for i in range(min(c, k) + 1))
            weight = order // (denom * factorial(c) * factorial(m))
            if even[m]:
                terms.append((weight * even[m], sign, value))
            if odd[m]:
                terms.append((weight * odd[m], -sign, value))

    place(k, 0, 1, 1, [1] + [0] * k)
    return CharVector(n, action, domain, tuple(terms))


def _uniform_partition_coefficients(r, s):
    """Power-sum expansion of the plethysm h_r[h_s], the Frobenius
    characteristic of the action on partitions into r blocks of size s
    (Macdonald, Symmetric Functions and Hall Polynomials, I.8).

    h_r[h_s] = sum over nu |- r of z_nu^-1 prod_i p_{nu_i}[h_s], where
    p_k[h_s] = sum over lambda |- s of z_lambda^-1 p_{k lambda}.  Every
    coefficient is scaled by r! s!^r, which makes it an integer: a term for
    nu has len(nu) factors scaled by s! each, and s!^(r - len(nu)) makes up
    the rest.  The map goes from descending part tuples to scaled
    coefficients; products are merged by cycle type as they are built.
    """
    inner = {}
    total = {}
    for nu in enumerate_cycle_types(r):
        terms = {(): class_size(nu) * factorial(s) ** (r - len(nu))}
        for k in nu:
            if k not in inner:
                inner[k] = [(tuple(k * part for part in lam), class_size(lam))
                            for lam in enumerate_cycle_types(s)]
            merged = {}
            for parts, coefficient in terms.items():
                for more, factor in inner[k]:
                    key = tuple(sorted(parts + more, reverse=True))
                    merged[key] = merged.get(key, 0) + coefficient * factor
            terms = merged
        for key, coefficient in terms.items():
            total[key] = total.get(key, 0) + coefficient
    return total


def char_vector_uniform_partitions(n, r, s):
    """Character of S_n on uniform set partitions, one term per class.

    chi(mu) = z_mu [p_mu] h_r[h_s]; with z_mu = n! / class size and the
    r! s!^r scaling of the coefficients this is domain * coefficient /
    class size, which must come out integral.
    """
    if r < 1 or s < 1 or n != r * s:
        raise InputError(f"need n = r*s, got n={n}, r={r}, s={s}")
    if n > UNIFORM_CEILING:
        raise CapacityError(
            f"n={n} exceeds the uniform-partition limit {UNIFORM_CEILING}")
    domain = factorial(n) // (factorial(s) ** r * factorial(r))
    coefficients = _uniform_partition_coefficients(r, s)
    cycle_types = tuple(enumerate_cycle_types(n))
    terms = []
    for parts in cycle_types:
        size = class_size(parts)
        value, rem = divmod(domain * coefficients.get(parts, 0), size)
        if rem:
            raise ConsistencyError(f"h_r[h_s] gives a non-integral "
                                   f"character value at class {parts}")
        terms.append((size, sign_of(parts), value))
    return CharVector(n, f"partitions:{r}x{s}", domain, tuple(terms),
                      cycle_types)


def _exact_quotient(total, order, what):
    q, rem = divmod(total, order)
    if rem:
        raise ConsistencyError(f"{what}: class sum {total} not divisible by n!")
    if q < 0:
        raise ConsistencyError(f"{what}: negative orbit count {q}")
    return q


def _class_sums(chi, l):
    """Yield (l, o, o_K) for the powers l, l + 1, ... of chi.

    The one loop behind every count: T sums weight * chi^l over all terms
    and E over the even ones, o = T/n! and o_K = 2E/n!.  Powers are
    updated incrementally, one multiply per term per step.
    """
    if l < 0:
        raise InputError(f"l must be nonnegative, got {l}")
    order = factorial(chi.n)
    powers = [value ** l for _, _, value in chi.terms]
    while True:
        total = even = 0
        for (size, sign, _), power in zip(chi.terms, powers):
            term = size * power
            total += term
            if sign > 0:
                even += term
        what = f"({chi.action})^{l}"
        o = _exact_quotient(total, order, f"o of {what}")
        o_k = _exact_quotient(2 * even, order, f"o_K of {what}")
        if o_k < o:
            raise ConsistencyError(
                f"<sgn, {what}>: negative orbit count {o_k - o}")
        yield l, o, o_k
        l += 1
        powers = [power * value
                  for power, (_, _, value) in zip(powers, chi.terms)]


def iter_inner_products(chi):
    """Yield (l, <sgn, chi^l>) for l = 1, 2, ..., as min-l searches want;
    o_K - o counts the orbits that split over A_n, the regular ones among
    them, so it is the regular-orbit count when the sign is controlling."""
    for l, o, o_k in _class_sums(chi, 1):
        yield l, o_k - o


def orbit_counts(chi, l):
    """Exact (o, o_K) for the l-th tuple power of the action.

    o is the number of orbits of S_n on Omega^l; o_K is the number of
    orbits of the even-sign kernel K = A_n, equal to
    (2 / n!) * sum over positive-sign classes of class_size * chi^l.
    """
    _, o, o_k = next(_class_sums(chi, l))
    return o, o_k
