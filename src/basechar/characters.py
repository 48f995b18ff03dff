"""Permutation characters of S_n actions and exact inner products.

Two actions are covered, both with character values computed per
conjugacy class (indexed by cycle type): the action on k-element subsets
of [n], where the fixed-subset count has a closed form as a sum over
partitions of k, and the action on partitions of [n] into r blocks of
equal size s, whose character is read off the plethysm h_r[h_s].

Inner products against the l-th power of a character are exact integer
computations: sum over classes of phi * class_size * chi^l must divide
by n! with no remainder, and sign-character inner products must be
nonnegative (they count orbits).  Violations raise ConsistencyError --
they can only come from bugs, never from input.
"""

from dataclasses import dataclass
from math import comb, factorial

from .errors import CapacityError, ConsistencyError, InputError
from .partitions import class_data, class_size, enumerate_cycle_types, sign_of

# Largest n for the uniform-partition action.  The closed form costs about
# as much as p(n) classes, like basesize, so this is a bound on time only.
UNIFORM_CEILING = 36


@dataclass(frozen=True)
class CharVector:
    """Per-class values of a permutation character of S_n.

    values is aligned with enumerate_cycle_types(n); action is a tag
    like "subsets:2" or "partitions:3x5"; domain_size is the number of
    points acted on (the value at the identity class).
    """

    n: int
    action: str
    domain_size: int
    values: tuple


@dataclass(frozen=True)
class SignVector:
    """Per-class values of the sign character, same alignment."""

    n: int
    values: tuple


def chi_subsets(ct, k):
    """Number of k-subsets of [n] fixed by a permutation of cycle type ct.

    Equal to the sum over partitions (1^b_1, ..., k^b_k) of k of the
    product of binomials C(c_j, b_j): a fixed k-subset is a union of
    whole cycles, chosen b_j at a time from the c_j cycles of length j.
    """
    if not 1 <= k <= ct.n:
        raise InputError(f"k must be in 1..{ct.n}, got {k}")
    total = 0
    for eta in enumerate_cycle_types(k):
        prod = 1
        for j, b in enumerate(eta.counts, start=1):
            if b:
                prod *= comb(ct.counts[j - 1], b)
                if prod == 0:
                    break
        total += prod
    return total


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


def _uniform_partition_value(ct, domain, coefficients):
    # chi(mu) = z_mu [p_mu] h_r[h_s]; with z_mu = n! / class_size and the
    # r! s!^r scaling this is domain * coefficient / class_size.
    value, rem = divmod(domain * coefficients.get(tuple(ct.parts()), 0),
                        class_size(ct))
    if rem:
        raise ConsistencyError(
            f"h_r[h_s] gives a non-integral character value at class {ct}")
    return value


def chi_uniform_partitions(ct, r, s):
    """Number of partitions of [n] into r blocks of size s fixed by a
    permutation of cycle type ct (blocks permuted among themselves),
    read off the closed form h_r[h_s]."""
    domain, coefficients = _uniform_partition_setup(ct.n, r, s)
    return _uniform_partition_value(ct, domain, coefficients)


def char_vector_subsets(n, k):
    """Character of S_n on k-subsets, all classes."""
    values = tuple(chi_subsets(ct, k) for ct in enumerate_cycle_types(n))
    return CharVector(n, f"subsets:{k}", comb(n, k), values)


def char_vector_uniform_partitions(n, r, s):
    """Character of S_n on uniform set partitions, all classes."""
    domain, coefficients = _uniform_partition_setup(n, r, s)
    values = tuple(_uniform_partition_value(ct, domain, coefficients)
                   for ct in enumerate_cycle_types(n))
    return CharVector(n, f"partitions:{r}x{s}", domain, values)


def sign_vector(n):
    return SignVector(n, tuple(sign_of(ct) for ct in enumerate_cycle_types(n)))


def _phi_values(phi, chi):
    if isinstance(phi, SignVector):
        if phi.n != chi.n:
            raise InputError(f"sign vector is for n={phi.n}, character for n={chi.n}")
        values = phi.values
    else:
        values = tuple(phi)
    if len(values) != len(chi.values):
        raise InputError("phi and chi are not aligned to the same class list")
    return values


def _exact_quotient(total, n, what):
    q, rem = divmod(total, factorial(n))
    if rem:
        raise ConsistencyError(f"{what}: class sum {total} not divisible by {n}!")
    if q < 0:
        raise ConsistencyError(f"{what}: negative orbit count {q}")
    return q


def inner_product(phi, chi, l):
    """Exact inner product of a +-1 class vector with the l-th power of a
    permutation character of S_n.

    Returns (sum over classes of phi * class_size * chi^l) / n! as an
    integer.  The division is always exact and the result nonnegative:
    for surjective phi it counts the G-orbits that split under the
    kernel, and for the all-ones vector it counts all orbits.
    """
    if l < 0:
        raise InputError(f"l must be nonnegative, got {l}")
    values = _phi_values(phi, chi)
    total = 0
    for p, datum, v in zip(values, class_data(chi.n), chi.values):
        total += p * datum.size * v ** l
    return _exact_quotient(total, chi.n, f"<phi, ({chi.action})^{l}>")


def iter_inner_products(phi, chi):
    """Yield (l, inner_product(phi, chi, l)) for l = 1, 2, ...

    Powers are updated incrementally (one multiply per class per step),
    which is what min-l searches want.
    """
    values = _phi_values(phi, chi)
    data = class_data(chi.n)
    powers = [1] * len(data)
    l = 0
    while True:
        l += 1
        total = 0
        for i, (p, datum, v) in enumerate(zip(values, data, chi.values)):
            powers[i] *= v
            total += p * datum.size * powers[i]
        yield l, _exact_quotient(total, chi.n, f"<phi, ({chi.action})^{l}>")


def orbit_counts(chi, l):
    """Exact (o, o_K) for the l-th tuple power of the action.

    o is the number of orbits of S_n on Omega^l (all-ones inner product);
    o_K is the number of orbits of the even-sign kernel K = A_n, equal to
    (2 / n!) * sum over positive-sign classes of class_size * chi^l.
    """
    if l < 0:
        raise InputError(f"l must be nonnegative, got {l}")
    total = 0
    total_even = 0
    for datum, v in zip(class_data(chi.n), chi.values):
        term = datum.size * v ** l
        total += term
        if datum.sign > 0:
            total_even += term
    o = _exact_quotient(total, chi.n, f"o({l}) of {chi.action}")
    o_k = _exact_quotient(2 * total_even, chi.n, f"o_K({l}) of {chi.action}")
    return o, o_k
