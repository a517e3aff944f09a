"""Parameter admissibility and curve data for the family.

The family is y^2 = x(x - n1)(x - n2) + t^2 with n1 = (m^2+1)^2,
n2 = -(m^2-1)^2, t = 2m(m^4-1), which factors as
y^2 = (x - (m^4-1))(x + (m^4-1))(x - 4m^2).  A parameter m is admissible when
it is even, m-1 and m+1 are both prime, and m^2+1 is squarefree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .numtheory import Factorization, factorize, is_prime


class InadmissibleParameter(ValueError):
    """m fails the admissibility conditions."""

    def __init__(self, report: "AdmissibilityReport"):
        super().__init__(f"m = {report.m} is not admissible: {report.describe()}")
        self.report = report


@dataclass(frozen=True)
class AdmissibilityReport:
    """squarefree_check is only evaluated once the twin condition holds."""

    m: int
    is_even: bool
    twin_primes: bool
    squarefree_check: bool

    @property
    def admissible(self) -> bool:
        return self.is_even and self.twin_primes and self.squarefree_check

    def describe(self) -> str:
        if self.admissible:
            return "even; m-1, m+1 both prime; m^2+1 squarefree"
        if not self.is_even:
            return "odd"
        if not self.twin_primes:
            return "m-1, m+1 not twin primes"
        return "m^2+1 not squarefree"


@dataclass(frozen=True)
class CurveParams:
    """All curve data derived from an admissible m.

    p_primes, q_primes, r_primes partition the odd bad primes: divisors of
    m^4-1, m^4-1-4m^2 and m^4-1+4m^2 respectively (pairwise coprime since m
    is even).  s_primes, 2 and then these ascending, is the one bad-place set.
    admissibility is the report that build_curve proved before deriving the
    rest.
    """

    m: int
    n1: int
    n2: int
    t: int
    e1: int
    e2: int
    e3: int
    a_value: int  # m^4 - 1
    q_value: int  # m^4 - 1 - 4m^2
    r_value: int  # m^4 - 1 + 4m^2
    p_primes: tuple[int, ...]
    q_primes: tuple[int, ...]
    r_primes: tuple[int, ...]
    r_squarefree: bool
    admissibility: AdmissibilityReport

    @property
    def roots(self) -> tuple[int, int, int]:
        return (self.e1, self.e2, self.e3)

    @property
    def s_primes(self) -> tuple[int, ...]:
        return tuple(sorted((2,) + self.p_primes + self.q_primes + self.r_primes))

    def cubic_coefficients(self) -> tuple[int, int, int]:
        """(a, b, c) of y^2 = x^3 + a x^2 + b x + c.

        Since e1 + e2 = 0 the expansion collapses to
        x^3 - 4m^2 x^2 - A^2 x + 4m^2 A^2 with A = m^4 - 1.
        """
        A = self.a_value
        return (-4 * self.m**2, -(A**2), 4 * self.m**2 * A**2)

    def has_good_reduction(self, ell: int) -> bool:
        """True when the prime ell is outside S: the discriminant 16 prod
        (e_i - e_j)^2 = 2^6 (a_value q_value r_value)^2 has no other primes."""
        return ell not in self.s_primes


def is_admissible(m: int, **factor_kwargs) -> AdmissibilityReport:
    """Admissibility report for m >= 2.

    Every admissible m >= 6 satisfies m = 0 (mod 3) because m-1 and m+1 are
    then primes exceeding 3; m = 4 is the one admissible value where that
    derivation fails (m - 1 = 3).
    """
    return _admissibility(m, **factor_kwargs)[0]


def _admissibility(
    m: int, **factor_kwargs
) -> tuple[AdmissibilityReport, Factorization | None]:
    """is_admissible's report, plus the factorization of m^2+1 when computed."""
    if m < 2:
        raise ValueError("m >= 2 required")
    even = m % 2 == 0
    twins = even and is_prime(m - 1) and is_prime(m + 1)
    f_m2 = None
    if even and twins:
        f_m2 = factorize(m * m + 1, **factor_kwargs)
    report = AdmissibilityReport(
        m=m, is_even=even, twin_primes=twins,
        squarefree_check=f_m2 is not None and f_m2.is_squarefree(),
    )
    return report, f_m2


def build_curve(m: int, **factor_kwargs) -> CurveParams:
    """Construct CurveParams for an admissible m; factorizations complete.

    Raises InadmissibleParameter for bad m and propagates factorization
    timeouts.  Squarefreeness of m^4-1+4m^2 is recorded, not required; the
    Selmer computation checks that flag itself.
    """
    report, f_m2 = _admissibility(m, **factor_kwargs)
    if not report.admissible:
        raise InadmissibleParameter(report)
    a_value = m**4 - 1
    q_value = a_value - 4 * m**2
    r_value = a_value + 4 * m**2
    # m^4-1 = (m-1)(m+1)(m^2+1): m-1 and m+1 were just proved prime and
    # m^2+1 just factored, and the three parts are pairwise coprime (m even).
    fa = Factorization(
        value=a_value,
        factors=tuple(sorted(((m - 1, 1), (m + 1, 1)) + f_m2.factors)),
    )
    assert fa.recompose() == a_value
    cache = factor_kwargs.get("cache")
    if cache is not None and cache.get_factorization(a_value) is None:
        cache.put_factorization(a_value, fa.factors)
    fq = factorize(q_value, **factor_kwargs)
    fr = factorize(r_value, **factor_kwargs)
    return CurveParams(
        m=m,
        n1=(m * m + 1) ** 2,
        n2=-((m * m - 1) ** 2),
        t=2 * m * a_value,
        e1=a_value,
        e2=-a_value,
        e3=4 * m * m,
        a_value=a_value,
        q_value=q_value,
        r_value=r_value,
        p_primes=fa.primes(),
        q_primes=fq.primes(),
        r_primes=fr.primes(),
        r_squarefree=fr.is_squarefree(),
        admissibility=report,
    )


def scan_admissible(lo: int, hi: int, **factor_kwargs) -> Iterator[int]:
    """Yield the admissible even m in [lo, hi], ascending."""
    if not 2 <= lo <= hi:
        raise ValueError("need 2 <= lo <= hi")
    start = lo + (lo % 2)
    for m in range(start, hi + 1, 2):
        if is_admissible(m, **factor_kwargs).admissible:
            yield m
