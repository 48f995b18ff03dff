"""Permutation characters of S_n actions as signed value distributions.

Two actions are covered: the action on k-element subsets of [n] and the
action on partitions of [n] into r blocks of equal size s, whose
character is read off the plethysm h_r[h_s].

A count depends on a permutation only through its sign and its character
value, so a CharVector holds one term (value, all, even) per distinct
value of chi: all permutations take that value, even of them are even.
The k-subset character depends only on the numbers c_1..c_k of cycles of
length at most k, so its terms are built from these vectors, each valued
by one packed-integer product and weighted by the ways to put the other
points in cycles longer than k, split by sign; no class is listed.  At
n = 40, k = 2 the vectors give 725 signed terms against p(40) = 37,338
classes, holding 261 distinct values; at n = 36, k = 3, 2,231 terms hold
610.  The partition character is computed and kept class by class.

Every count is one loop over the terms: T = sum of all * chi^l and
E = sum of even * chi^l give o = T/n! orbits of S_n and o_K = 2E/n!
orbits of A_n on l-tuples, and o_K - o = <sgn, chi^l> is the number of
orbits that split, the regular-orbit count of the paper.  Both sums must
divide by n! with no remainder and all three counts must be nonnegative;
violations raise ConsistencyError -- they can only come from bugs, never
from input.
"""

from collections import namedtuple
from math import comb, factorial, perm
from operator import mul

from .errors import CapacityError, ConsistencyError, InputError
from .partitions import class_size, enumerate_cycle_types, sign_of

# Largest n for the k-subset action, checked by check_n_limit.
DEFAULT_N_LIMIT = 64

# Largest n for the uniform-partition action.  The closed form costs about
# as much as p(n) classes, so this is a bound on time only.
UNIFORM_CEILING = 36


class CharVector(namedtuple("CharVector", "n action domain_size terms "
                            "cycle_types values", defaults=(None, None))):
    """A permutation character of S_n as a signed value distribution.

    terms holds one (value, all, even) triple per distinct character
    value: all permutations take the value and even of them are even, so
    the alls sum to n! and, for n >= 2, the evens to n!/2.  action is a
    tag like "subsets:2" or "partitions:3x5"; domain_size is the number of
    points acted on (the value at the identity).  For the partition action
    cycle_types lists every class, in the order of
    enumerate_cycle_types(n), and values[i] is the value on class
    cycle_types[i]; both are None for the subset action.
    """

    __slots__ = ()


def _add(distribution, value, weight, even):
    # weight more permutations, even of them even, take the value
    total, evens = distribution.get(value, (0, 0))
    distribution[value] = total + weight, evens + even


def _long_cycle_counts(n, k):
    """Even and odd permutations of m points, m = 0..n, whose cycles are
    all longer than k.

    The unsigned count D(m) and the signed count S(m), in which a j-cycle
    counts (-1)^(j-1), have the exponential generating functions
    f = exp(sum over j > k of x^j / j) and g alike with each term signed
    (Flajolet and Sedgewick, Analytic Combinatorics, II.4).  Then
    (1 - x) f' = x^k f and (1 + x) g' = (-1)^k x^k g, whose coefficients
    are the linear recurrences
    D(m+1) = m D(m) + m!/(m-k)! D(m-k) and
    S(m+1) = -m S(m) + (-1)^k m!/(m-k)! S(m-k),
    from D(0) = S(0) = 1 and D(m) = S(m) = 0 for 0 < m <= k.
    Returns the lists D, (D + S)/2 and (D - S)/2.
    """
    unsigned = [1] + [0] * n
    signed = [1] + [0] * n
    for m in range(k, n):
        ways = perm(m, k)
        unsigned[m + 1] = m * unsigned[m] + ways * unsigned[m - k]
        signed[m + 1] = (-m * signed[m]
                         + (-ways if k % 2 else ways) * signed[m - k])
    return (unsigned, [(d + s) // 2 for d, s in zip(unsigned, signed)],
            [(d - s) // 2 for d, s in zip(unsigned, signed)])


def check_n_limit(n):
    """Refuse a degree past the limit of the k-subset build."""
    if n > DEFAULT_N_LIMIT:
        raise CapacityError(f"n = {n} exceeds the limit {DEFAULT_N_LIMIT}")


def check_power(l):
    """Refuse a negative tuple length l."""
    if l < 0:
        raise InputError(f"l must be nonnegative, got {l}")


def char_vector_subsets(n, k):
    """Character of S_n on k-subsets, built through (c_1..c_k).

    The vector (c_1..c_k) leaves m = n - sum j c_j points, which must lie
    in cycles longer than k, so m is 0 or above k.  It holds
    n! / (prod j^c_j c_j! * m!) * D(m) permutations, D(m) from
    _long_cycle_counts split by sign, all with one value; the weight
    before D(m) rides down the recursion, one exact division per cycle.
    The value, the x^k coefficient of prod over cycles of (1 + x^j), is
    read off a truncated polynomial packed into one int with B = n + 2
    bits per coefficient (Kronecker substitution; von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4).  Each slot, also of the
    product with (1 + x)^c at a leaf, counts subsets of [n], so it is
    below 2^n and never carries into the next.  The k-subset and
    (n - k)-subset characters are equal, so the smaller k is used.
    """
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    check_n_limit(n)
    action, domain = f"subsets:{k}", comb(n, k)
    k = min(k, n - k)
    unsigned, even, odd = _long_cycle_counts(n, k)
    bits = n + 2
    mask, slot = (1 << bits * (k + 1)) - 1, (1 << bits) - 1
    binom = [1]  # binom[c] is (1 + x)^c, packed and truncated
    for _ in range(n):
        binom.append((binom[-1] + (binom[-1] << bits)) & mask)
    distribution = {}

    def place(j, rest, weight, sign, poly):
        # Choose c_j, c_(j-1), ..., c_1; slot d of poly counts fixed d-subsets
        if j > 1:
            for c in range(rest // j + 1):
                if c:  # one more j-cycle
                    weight = weight * perm(rest, j) // (j * c)
                    rest -= j
                    poly = (poly + (poly << bits * j)) & mask
                place(j - 1, rest, weight,
                      -sign if j % 2 == 0 and c % 2 else sign, poly)
            return
        # c_1 = c leaves m = rest - c points, so c < rest - k or c = rest
        # (k = 0: all long); the long cycles must match the short ones' sign
        matching = even if sign > 0 else odd
        for c in [*range(rest - k), rest] if k else [0]:
            m, count = rest - c, weight * comb(rest, c)
            _add(distribution, (poly * binom[c] >> bits * k) & slot,
                 count * unsigned[m], count * matching[m])

    place(k, n, 1, 1, 1)
    return CharVector(n, action, domain,
                      tuple((v, *c) for v, c in distribution.items()))


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
    """Character of S_n on uniform set partitions, one value per class.

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
    values = []
    distribution = {}
    for parts in cycle_types:
        size = class_size(parts)
        value, rem = divmod(domain * coefficients.get(parts, 0), size)
        if rem:
            raise ConsistencyError(f"h_r[h_s] gives a non-integral "
                                   f"character value at class {parts}")
        values.append(value)
        _add(distribution, value, size, size if sign_of(parts) > 0 else 0)
    return CharVector(n, f"partitions:{r}x{s}", domain,
                      tuple((v, *c) for v, c in distribution.items()),
                      cycle_types, tuple(values))


def _exact_quotient(total, order, name, chi, l):
    q, rem = divmod(total, order)
    if rem:
        raise ConsistencyError(f"{name} of ({chi.action})^{l}: class sum "
                               f"{total} not divisible by n!")
    if q < 0:
        raise ConsistencyError(
            f"{name} of ({chi.action})^{l}: negative orbit count {q}")
    return q


def iter_inner_products(chi, l=1):
    """Yield (l, o, o_K) for the powers l, l + 1, ... of chi.

    The one loop behind every count: over the distribution's terms,
    T sums all * chi^l and E sums even * chi^l, o = T/n! and o_K = 2E/n!.
    o_K - o = <sgn, chi^l> counts the orbits that split over A_n, the
    regular ones among them, so it is the regular-orbit count when the
    sign is controlling; a min-l search starts where a count can first be
    nonzero, see basecount.  A_n has index 2 only for n >= 2, so a smaller
    n is refused.  Powers are updated incrementally, one multiply per value
    per step.
    """
    check_power(l)
    if chi.n < 2:
        raise InputError(f"orbit counts over A_n need n >= 2, got n = {chi.n}")
    order = factorial(chi.n)
    values, alls, evens = zip(*chi.terms)
    powers = [value ** l for value in values]
    while True:
        total = sum(map(mul, alls, powers))
        even = sum(map(mul, evens, powers))
        o = _exact_quotient(total, order, "o", chi, l)
        o_k = _exact_quotient(2 * even, order, "o_K", chi, l)
        if o_k < o:
            raise ConsistencyError(f"<sgn, ({chi.action})^{l}>: negative "
                                   f"orbit count {o_k - o}")
        yield l, o, o_k
        l += 1
        powers = list(map(mul, powers, values))


def orbit_counts(chi, l):
    """Exact (o, o_K) for the l-th tuple power of the action.

    o is the number of orbits of S_n on Omega^l; o_K is the number of
    orbits of the even-sign kernel K = A_n, equal to
    (2 / n!) * sum over the even permutations of chi^l.
    """
    _, o, o_k = next(iter_inner_products(chi, l))
    return o, o_k
