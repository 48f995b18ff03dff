"""Permutation characters of S_n actions as weighted class sums.

Two actions are covered, both with character values computed per
conjugacy class (indexed by cycle type): the action on k-element subsets
of [n], where the fixed-subset count has a closed form as a sum over
partitions of k, and the action on partitions of [n] into r blocks of
equal size s, whose character is read off the plethysm h_r[h_s].

A CharVector is built in one pass over the classes and holds, for each
class, its cycle type and the term (class size, sign, value).  Every
count is one loop over these terms: the total T = sum of size * chi^l
and its even-sign part E give o = T/n! orbits of S_n and o_K = 2E/n!
orbits of A_n on l-tuples, and o_K - o = <sgn, chi^l> is the number of
orbits that split, the regular-orbit count of the paper.  Both sums must
divide by n! with no remainder and all three counts must be nonnegative;
violations raise ConsistencyError -- they can only come from bugs, never
from input.
"""

from dataclasses import dataclass
from math import comb, factorial

from .errors import CapacityError, ConsistencyError, InputError
from .partitions import class_size, enumerate_cycle_types, sign_of

# Largest n for the uniform-partition action.  The closed form costs about
# as much as p(n) classes, like basesize, so this is a bound on time only.
UNIFORM_CEILING = 36


@dataclass(frozen=True)
class CharVector:
    """A permutation character of S_n as a weighted class sum.

    One entry per conjugacy class, aligned with enumerate_cycle_types(n):
    cycle_types[i] is the class and terms[i] its (class size, sign,
    character value).  action is a tag like "subsets:2" or
    "partitions:3x5"; domain_size is the number of points acted on (the
    value at the identity class).
    """

    n: int
    action: str
    domain_size: int
    cycle_types: tuple
    terms: tuple

    @property
    def values(self):
        """Character values, one per class."""
        return tuple(value for _, _, value in self.terms)


def _char_vector(n, action, domain_size, value_of):
    # The one pass over the classes; value_of(ct, size) is the character
    # value at a class of the given size.
    cycle_types = tuple(enumerate_cycle_types(n))
    terms = []
    for ct in cycle_types:
        size = class_size(ct)
        terms.append((size, sign_of(ct), value_of(ct, size)))
    return CharVector(n, action, domain_size, cycle_types, tuple(terms))


def _subset_etas(k):
    # The partitions of k as lists of (part length j, multiplicity b_j).
    return [[(j, b) for j, b in enumerate(eta.counts, start=1) if b]
            for eta in enumerate_cycle_types(k)]


def _subset_value(ct, etas):
    total = 0
    for eta in etas:
        prod = 1
        for j, b in eta:
            prod *= comb(ct.counts[j - 1], b)
            if prod == 0:
                break
        total += prod
    return total


def chi_subsets(ct, k):
    """Number of k-subsets of [n] fixed by a permutation of cycle type ct.

    Equal to the sum over partitions (1^b_1, ..., k^b_k) of k of the
    product of binomials C(c_j, b_j): a fixed k-subset is a union of
    whole cycles, chosen b_j at a time from the c_j cycles of length j.
    """
    if not 1 <= k <= ct.n:
        raise InputError(f"k must be in 1..{ct.n}, got {k}")
    return _subset_value(ct, _subset_etas(k))


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
        terms = {(): class_size(nu) * factorial(s) ** (r - nu.num_cycles)}
        for k in nu.parts():
            if k not in inner:
                inner[k] = [(tuple(k * part for part in lam.parts()),
                             class_size(lam))
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


def _uniform_partition_setup(n, r, s):
    """Validate the shape, then return (domain size, scaled coefficients)."""
    if r < 1 or s < 1 or n != r * s:
        raise InputError(f"need n = r*s, got n={n}, r={r}, s={s}")
    if n > UNIFORM_CEILING:
        raise CapacityError(
            f"n={n} exceeds the uniform-partition limit {UNIFORM_CEILING}")
    domain = factorial(n) // (factorial(s) ** r * factorial(r))
    return domain, _uniform_partition_coefficients(r, s)


def _uniform_partition_value(ct, size, domain, coefficients):
    # chi(mu) = z_mu [p_mu] h_r[h_s]; with z_mu = n! / class size and the
    # r! s!^r scaling this is domain * coefficient / class size.
    value, rem = divmod(domain * coefficients.get(tuple(ct.parts()), 0), size)
    if rem:
        raise ConsistencyError(
            f"h_r[h_s] gives a non-integral character value at class {ct}")
    return value


def chi_uniform_partitions(ct, r, s):
    """Number of partitions of [n] into r blocks of size s fixed by a
    permutation of cycle type ct (blocks permuted among themselves),
    read off the closed form h_r[h_s]."""
    domain, coefficients = _uniform_partition_setup(ct.n, r, s)
    return _uniform_partition_value(ct, class_size(ct), domain, coefficients)


def char_vector_subsets(n, k):
    """Character of S_n on k-subsets, all classes."""
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    etas = _subset_etas(k)
    return _char_vector(n, f"subsets:{k}", comb(n, k),
                        lambda ct, size: _subset_value(ct, etas))


def char_vector_uniform_partitions(n, r, s):
    """Character of S_n on uniform set partitions, all classes."""
    domain, coefficients = _uniform_partition_setup(n, r, s)
    return _char_vector(
        n, f"partitions:{r}x{s}", domain,
        lambda ct, size: _uniform_partition_value(ct, size, domain,
                                                  coefficients))


def _exact_quotient(total, order, what):
    q, rem = divmod(total, order)
    if rem:
        raise ConsistencyError(f"{what}: class sum {total} not divisible by n!")
    if q < 0:
        raise ConsistencyError(f"{what}: negative orbit count {q}")
    return q


def _class_sums(chi, l):
    """Yield (l, o, o_K) for the powers l, l + 1, ... of chi.

    The one loop behind every count: T sums size * chi^l over all classes
    and E over the even ones, o = T/n! and o_K = 2E/n!.  Powers are
    updated incrementally, one multiply per class per step.
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


def inner_product(chi, l):
    """Exact <sgn, chi^l> = o_K - o: the number of S_n-orbits on l-tuples
    that split over the even-sign kernel A_n.  Every regular orbit
    splits, so this is the regular-orbit count when the sign is
    base-controlling."""
    _, o, o_k = next(_class_sums(chi, l))
    return o_k - o


def iter_inner_products(chi):
    """Yield (l, inner_product(chi, l)) for l = 1, 2, ..., as min-l
    searches want."""
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
