"""Exact truncated formal power series in q over Z[x, y].

MultiSeries is the working ring: coefficients are Python ints (arbitrary
precision) and q-exponents are truncated at an inclusive order N, the only
truncation; x and y exponents are never cut.  Every q-product is built
one binomial factor (1 - c q^s x^a y^b) at a time by two O(terms) steps:
multiplying by it is one shifted add, and dividing by it (s >= 1) walks the
exact recurrence g[k] = f[k] + c g[k - (s, a, b)] in increasing q, so no
inverse series is ever formed.  The public constructor validates every
exponent; only the two binomial steps store their own output unchecked
(dropping cancelled zeros), because their bounds keep every exponent
nonnegative and within the order.  Every named series is one of two sums: a
double sum in nested Horner form over binomial steps, or one recurrence
loop, which QBINOM runs as the Pochhammer builders do.  LaurentPoly quarantines
the negative q-powers required by the terminating hypergeometric checks;
MultiSeries never holds a negative exponent.  No floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .report import Counterexample, compare_series

Key = tuple[int, int, int]  # (q-exponent, x-exponent, y-exponent)


@dataclass(frozen=True)
class Monomial:
    """An integer multiple of x^x_exp * y^y_exp * q^q_exp."""

    coeff: int
    x: int = 0
    y: int = 0
    q: int = 0


class MultiSeries:
    """Formal power series in q, truncated at ``order``, coefficients in Z[x, y].

    Only q is truncated; all ring operations require the same order.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict[Key, int] | None = None) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order
        kept: dict[Key, int] = {}
        if terms:
            for (q, x, y), coeff in terms.items():
                if q < 0 or x < 0 or y < 0:
                    raise ValueError(f"negative exponent in term {(q, x, y)}")
                if coeff == 0 or q > order:
                    continue
                kept[(q, x, y)] = coeff
        self.terms = kept

    @classmethod
    def _trusted(cls, order: int, terms: dict[Key, int]) -> "MultiSeries":
        """Store ``terms`` unchecked except that zero coefficients are dropped:
        every exponent must already be nonnegative with q <= order.  Only the
        binomial steps call this."""
        series = object.__new__(cls)
        series.order = order
        series.terms = {key: coeff for key, coeff in terms.items() if coeff}
        return series

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "MultiSeries":
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> "MultiSeries":
        return cls(order, {(0, 0, 0): 1})

    @classmethod
    def term(cls, coeff: int, order: int, *, q: int = 0, x: int = 0, y: int = 0) -> "MultiSeries":
        return cls(order, {(q, x, y): coeff})

    # -- ring operations ----------------------------------------------------

    def _require_compatible(self, other: "MultiSeries") -> None:
        if self.order != other.order:
            raise ValueError("series truncation orders differ")

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._require_compatible(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return MultiSeries(self.order, merged)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(self.order, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiSeries(self.order, {k: other * c for k, c in self.terms.items()})
        self._require_compatible(other)
        out: dict[Key, int] = {}
        order = self.order
        for (q1, x1, y1), c1 in self.terms.items():
            for (q2, x2, y2), c2 in other.terms.items():
                q = q1 + q2
                if q > order:
                    continue
                key = (q, x1 + x2, y1 + y2)
                out[key] = out.get(key, 0) + c1 * c2
        return MultiSeries(order, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiSeries):
            return (self.order, self.terms) == (other.order, other.terms)
        return NotImplemented

    __hash__ = None  # mutable dict inside

    def invert(self) -> "MultiSeries":
        """Multiplicative inverse; the constant term must be +1 or -1.

        Every non-constant term must carry a positive q-exponent, otherwise
        the geometric expansion would not terminate.  The builders divide by
        binomials only, through ``_over_binomial``; this general inverse is
        its independent reference.
        """
        c = self.terms.get((0, 0, 0), 0)
        if c not in (1, -1):
            raise ValueError("cannot invert a series whose constant term is not +1/-1")
        order = self.order
        u = MultiSeries.one(order) - self * c
        if any(q < 1 for (q, _x, _y) in u.terms):
            raise ValueError("series is not invertible under this truncation")
        # every term of u has q >= 1, so u^(order+1) truncates to zero
        result = MultiSeries.one(order)
        power = u
        while power.terms:
            result = result + power
            power = power * u
        return result * c

    # -- binomial steps ------------------------------------------------------

    def _times_binomial(self, c: int, s: int, a: int, b: int) -> "MultiSeries":
        """This series times (1 - c q^s x^a y^b): one shifted add."""
        if s < 0 or a < 0 or b < 0:
            raise ValueError(f"negative exponent in binomial {(s, a, b)}")
        out = dict(self.terms)
        limit = self.order - s
        for (q, x, y), coeff in self.terms.items():
            if q <= limit:
                key = (q + s, x + a, y + b)
                out[key] = out.get(key, 0) - c * coeff
        return MultiSeries._trusted(self.order, out)

    def _over_binomial(self, c: int, s: int, a: int, b: int) -> "MultiSeries":
        """This series divided by (1 - c q^s x^a y^b), by the exact
        recurrence g[k] = f[k] + c g[k - (s, a, b)].

        The terms are walked level by level in q, so each g[k] is final
        before it feeds k + (s, a, b) on a higher level.  A shift with s < 1
        gives no such order, and no inverse, so it is rejected.
        """
        if s < 0 or a < 0 or b < 0:
            raise ValueError(f"negative exponent in binomial {(s, a, b)}")
        if s < 1:
            raise ValueError("binomial is not invertible under this truncation")
        order = self.order
        out = dict(self.terms)
        levels: list[list[Key]] = [[] for _ in range(order + 1)]
        for key in out:
            levels[key[0]].append(key)
        for level in range(order + 1 - s):
            above = levels[level + s]
            for key in levels[level]:
                q, x, y = key
                shifted = (q + s, x + a, y + b)
                if shifted in out:
                    out[shifted] += c * out[key]
                else:
                    out[shifted] = c * out[key]
                    above.append(shifted)
        return MultiSeries._trusted(order, out)

    # -- inspection ----------------------------------------------------------

    def coefficient(self, q: int, x: int = 0, y: int = 0) -> int:
        return self.terms.get((q, x, y), 0)

    def map_exponents(self, fn) -> "MultiSeries":
        """Rebuild the series sending each exponent triple through ``fn``."""
        out: dict[Key, int] = {}
        for key, coeff in self.terms.items():
            new = fn(*key)
            out[new] = out.get(new, 0) + coeff
        return MultiSeries(self.order, out)

    def first_discrepancy(self, other: "MultiSeries"):
        """Smallest (q, x, y) where coefficients differ, or None if equal."""
        self._require_compatible(other)
        keys = set(self.terms) | set(other.terms)
        for key in sorted(keys):
            a = self.terms.get(key, 0)
            b = other.terms.get(key, 0)
            if a != b:
                return key, a, b
        return None

    def serialize(self) -> str:
        """One term per line ``q^c x^a y^b : coeff``, sorted by (c, a, b)."""
        lines = []
        for (q, x, y) in sorted(self.terms):
            lines.append(f"q^{q} x^{x} y^{y} : {self.terms[(q, x, y)]}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<MultiSeries order={self.order} terms={len(self.terms)}>"


def pochhammer(a: Monomial, step: int, n: int | None, order: int) -> MultiSeries:
    """The q-shifted factorial (a; q^step)_n as a truncated series.

    ``n is None`` means the infinite product, which stabilises modulo
    q^(order+1) once the shifted monomial's q-exponent exceeds the order.
    A monomial without a positive q exponent makes the infinite product
    divergent and is rejected.
    """
    if step < 1:
        raise ValueError("step must be a positive q-power")
    if n is not None and n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n is None and a.q < 1:
        raise ValueError("infinite product diverges for this monomial")
    result = MultiSeries.one(order)
    k = 0
    # the q-shifts only grow, so the first factor past the order ends the product
    while (n is None or k < n) and (shift := a.q + step * k) <= order:
        result = result._times_binomial(a.coeff, shift, a.x, a.y)
        k += 1
    return result


def _gauss_coeffs(a: int, b: int) -> dict[int, int]:
    """Coefficients {exponent: value} of the Gaussian binomial via q-Pascal."""
    if b < 0 or b > a:
        return {}
    prev: list[dict[int, int]] = [{0: 1}]
    for i in range(1, a + 1):
        cur: list[dict[int, int]] = []
        for j in range(0, min(i, b) + 1):
            if j == 0 or j == i:
                cur.append({0: 1})
                continue
            merged = dict(prev[j - 1])
            for exp, coeff in prev[j].items():
                merged[exp + j] = merged.get(exp + j, 0) + coeff
            cur.append(merged)
        prev = cur
    return prev[b]


# -- named series builders ---------------------------------------------------


def _assert_y_bounded(series: MultiSeries) -> MultiSeries:
    # every series built here weights y by a partition length, so y <= q
    if any(y > q for (q, _x, y) in series.terms):
        raise RuntimeError("built series has a y-exponent above its q-exponent")
    return series


def _double_sum(order: int, cells) -> MultiSeries:
    """Sum of x^a y^b q^e / ((q; q)_i (q^2; q^2)_j) over the (e, a, b, i, j)
    cells in nested Horner form, over j and then i from the largest down:
    each step adds its cells, then divides by (1 - q^i) or (1 - q^(2j))."""
    rows: dict[int, dict[int, list[Key]]] = {}
    for e, a, b, i, j in cells:
        rows.setdefault(j, {}).setdefault(i, []).append((e, a, b))
    total = MultiSeries.zero(order)
    for j in range(max(rows, default=0), -1, -1):
        row = rows.get(j, {})
        inner = MultiSeries.zero(order)
        for i in range(max(row, default=0), -1, -1):
            inner = inner + MultiSeries(order, Counter(row.get(i, ())))
            if i:
                inner = inner._over_binomial(1, i, 0, 0)
        total = total + inner
        if j:
            total = total._over_binomial(1, 2 * j, 0, 0)
    return total


def _term_sum(order: int, head, a: Monomial, step: int) -> MultiSeries:
    """Sum of t(n) over n >= 0, where t(0) = 1 and
    t(n+1) = t(n) head(n) (1 - a q^(step n)) / (1 - q^(n+1)), up to the
    first term that truncates to zero; ``head(n)`` is a Monomial."""
    total: dict[Key, int] = {}
    term = MultiSeries.one(order)
    n = 0
    while term.terms:
        for key, coeff in term.terms.items():
            total[key] = total.get(key, 0) + coeff
        h = head(n)
        term = MultiSeries.term(h.coeff, order, q=h.q, x=h.x, y=h.y) * term
        term = term._times_binomial(a.coeff, a.q + step * n, a.x, a.y)
        term = term._over_binomial(1, n + 1, 0, 0)
        n += 1
    return MultiSeries(order, total)


def build_run_double_sum_gf(order: int, x_weight) -> MultiSeries:
    """Strict partitions as the double sum over run data (i odd runs, j
    even-run pairs), each term weighted x^x_weight(i, j) y^length q^size.

    x_weight(i, j) = i counts odd runs; i + j counts the 2-measure."""

    def cells():
        i = 0
        while i * i <= order:
            j = 0
            while (exponent := i * i + 2 * i * j + 2 * j * j + j) <= order:
                yield exponent, x_weight(i, j), i + 2 * j, i, j
                j += 1
            i += 1

    return _assert_y_bounded(_double_sum(order, cells()))


def build_k_measure_gf(k: int, order: int) -> MultiSeries:
    """(-yq; q)_inf times sum_n (-yq)^n (x; q^k)_n / (q; q)_n:
    strict partitions counted by x^(k-measure) y^length q^size."""
    if type(k) is not int or k < 1:  # bool is an int subclass
        raise ValueError("k must be a positive integer")
    total = _term_sum(order, lambda n: Monomial(-1, y=1, q=1), Monomial(1, x=1), k)
    for shift in range(1, order + 1):
        total = total._times_binomial(-1, shift, 0, 1)
    return _assert_y_bounded(total)


def build_all_partitions_2measure_gf(order: int) -> MultiSeries:
    """All partitions counted by x^(2-measure) y^length q^size:
    1/(yq; q)_inf times sum_n (-y)^n q^(n(n+1)/2) (x; q)_n / (q; q)_n."""
    total = _term_sum(order, lambda n: Monomial(-1, y=1, q=n + 1), Monomial(1, x=1), 1)
    for shift in range(1, order + 1):
        total = total._over_binomial(1, shift, 0, 1)
    return _assert_y_bounded(total)


def build_durfee_type_gf(order: int) -> MultiSeries:
    """Odd partitions counted by x^(2-modular sub-Durfee side)
    y^(2-modular Durfee side) q^size, assembled from the type I / type II
    splits around the 2-modular Durfee square."""

    def cells():
        yield 0, 0, 0, 0, 0  # the empty partition
        k = 1
        while k * (2 * k - 1) <= order:
            for m in range(0, k + 1):  # type I rows exceed the square
                exponent = m * (2 * m - 1) + k * (2 * k + 1)
                if exponent > order:
                    break
                yield exponent, m, k, 2 * m, k - m
            for m in range(1, k + 1):  # type II row k equals 2k-1
                exponent = (m - 1) * (2 * m - 1) + k * (2 * k - 1)
                if exponent > order:
                    break
                yield exponent, m - 1, k, 2 * m - 1, k - m
            k += 1

    return _assert_y_bounded(_double_sum(order, cells()))


def _parity_cells(m: int, shift: int, y: int, order: int):
    """Cells of the parity-index series over largest part ``m`` times
    y^y q^shift, up to the first cell past the order (a has m's parity)."""
    k, odd = (m + 1) // 2, m % 2
    for j in range(odd, k + 1):
        a = 2 * j - odd
        exponent = shift + m + a * (a - 1) // 2
        if exponent > order:
            return
        yield exponent, a, y, a, k - j


def build_parity_index_gf(m: int, order: int) -> MultiSeries:
    """Partitions with largest part exactly ``m`` counted by
    x^(parity index) q^size."""
    if type(m) is not int or m < 1:  # bool is an int subclass
        raise ValueError("m must be a positive integer")
    return _double_sum(order, _parity_cells(m, 0, 0, order))


def build_alt_durfee_gf(order: int) -> MultiSeries:
    """Odd partitions counted by x^(alternating index)
    y^(2-modular Durfee side) q^size.

    Type I contributes the parity-index cells over largest part 2k shifted
    by the square weight k(2k-1); type II the cells over largest part 2k-1
    shifted by (k-1)(2k-1), because there the appended part 2k-1 is not part
    of the partition being built.
    """

    def cells():
        yield 0, 0, 0, 0, 0  # the empty partition
        k = 1
        while k * (2 * k - 1) <= order:
            yield from _parity_cells(2 * k - 1, (k - 1) * (2 * k - 1), k, order)
            yield from _parity_cells(2 * k, k * (2 * k - 1), k, order)
            k += 1

    return _assert_y_bounded(_double_sum(order, cells()))


_BUILDERS = {
    "LHS_THM11": (lambda order: build_run_double_sum_gf(order, lambda i, j: i + j), ()),
    "RHS_THM11": (lambda order: build_k_measure_gf(2, order), ()),
    "GF_SOL_LEN": (lambda order: build_run_double_sum_gf(order, lambda i, j: i), ()),
    "GF_KMEASURE": (build_k_measure_gf, ("k",)),
    "GF_2MEASURE_P": (build_all_partitions_2measure_gf, ()),
    "GF_A_TYPES": (build_durfee_type_gf, ()),
    "GF_B": (build_alt_durfee_gf, ()),
    "GF_PARITY": (build_parity_index_gf, ("m",)),
}

SERIES_NAMES = tuple(_BUILDERS)


def build(name: str, order: int, **params) -> MultiSeries:
    """Construct a named series at the given truncation order."""
    try:
        builder, wanted = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown series {name!r}; choose from {SERIES_NAMES}") from None
    missing = [p for p in wanted if p not in params]
    if missing:
        raise ValueError(f"series {name} needs parameter(s) {missing}")
    extra = [p for p in params if p not in wanted]
    if extra:
        raise ValueError(f"series {name} does not take parameter(s) {extra}")
    args = [params[p] for p in wanted]
    return builder(*args, order)


# -- Laurent polynomials ------------------------------------------------------


class LaurentPoly:
    """Exact Laurent polynomial in q (any-sign exponents) with an optional
    x dimension.  Used only by the finite hypergeometric checks."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None) -> None:
        self.terms = {}
        if terms:
            for (q, x), coeff in terms.items():
                if x < 0:
                    raise ValueError("x-exponents are nonnegative")
                if coeff:
                    self.terms[(q, x)] = coeff

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, q: int = 0, x: int = 0) -> "LaurentPoly":
        return cls({(q, x): coeff})

    @classmethod
    def poch(cls, coeff: int, q_start: int, step: int, n: int, x: int = 0) -> "LaurentPoly":
        """Finite product of (1 - coeff * x^x * q^(q_start + step*t)), t < n."""
        result = cls.one()
        for t in range(n):
            result = result * (cls.one() - cls.term(coeff, q=q_start + step * t, x=x))
        return result

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return LaurentPoly(merged)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({k: other * c for k, c in self.terms.items()})
        out: dict[tuple[int, int], int] = {}
        for (q1, x1), c1 in self.terms.items():
            for (q2, x2), c2 in other.terms.items():
                key = (q1 + q2, x1 + x2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"<LaurentPoly terms={len(self.terms)}>"


# -- finite identity checks ----------------------------------------------------


def check_qbinom(a: Monomial, order: int) -> dict:
    """Cauchy's q-binomial theorem at z = xq,
    sum_m (a; q)_m (xq)^m / (q; q)_m = (axq; q)_inf / (xq; q)_inf,
    compared truncated in q at 2 * order.  Each x^m rides on q^m, so for a
    monomial a without x this covers every coefficient q^c x^m with
    c, m <= order of the theorem in z = x.  The left side is the
    builders' ``_term_sum`` with head xq.  Returns the term count, or
    raises ``Counterexample`` at the first difference."""
    top = 2 * order
    lhs = _term_sum(top, lambda m: Monomial(1, x=1, q=1), a, 1)
    rhs = pochhammer(Monomial(a.coeff, x=a.x + 1, y=a.y, q=a.q + 1), 1, None, top)
    for shift in range(1, top + 1):
        rhs = rhs._over_binomial(1, shift, 1, 0)
    return {"terms": compare_series(lhs, rhs)}


def _compare_laurent(built: LaurentPoly, expected: LaurentPoly) -> None:
    """Raise ``Counterexample`` at the smallest (q, x) where the sides
    differ, as ``q^c x^a: built A, expected B``."""
    for q, x in sorted(built.terms.keys() | expected.terms.keys()):
        a, b = built.terms.get((q, x), 0), expected.terms.get((q, x), 0)
        if a != b:
            raise Counterexample(f"q^{q} x^{x}: built {a}, expected {b}")


def check_xq2_expansion(n: int) -> dict:
    """(x; q^2)_n as a Gaussian-binomial sum, in exact (q, x) polynomials;
    raises ``Counterexample`` at the smallest (q, x) where the sides differ."""
    lhs = LaurentPoly.poch(1, 0, 2, n, x=1)
    rhs = LaurentPoly.zero()
    for i in range(n + 1):
        sign = -1 if i % 2 else 1
        head = LaurentPoly.term(sign, q=i * i - i, x=i)
        binom = LaurentPoly(
            {(2 * exp, 0): coeff for exp, coeff in _gauss_coeffs(n, i).items()}
        )
        rhs = rhs + head * binom
    _compare_laurent(lhs, rhs)
    return {}


def check_qchu(i: int, j: int) -> dict:
    """Terminating q-Chu-Vandermonde instance in Laurent-polynomial arithmetic.

    Both sides are multiplied by (q^2; q^2)_j = (q; q)_j (-q; q)_j so the
    n-th summand's denominator cancels into the genuine polynomial
    (q^(2n+2); q^2)_(j-n); the comparison then stays in Z[q, q^-1].
    Returns whether both sides vanish, or raises ``Counterexample`` at the
    smallest (q, x) where they differ.
    """
    lhs = LaurentPoly.zero()
    for n in range(j + 1):
        summand = (
            LaurentPoly.poch(-1, i + 1, 1, n)
            * LaurentPoly.poch(1, -j, 1, n)
            * LaurentPoly.term(1, q=n)
            * LaurentPoly.poch(1, 2 * n + 2, 2, j - n)
        )
        lhs = lhs + summand
    sign = -1 if j % 2 else 1
    rhs = (
        LaurentPoly.term(sign, q=j * (i + 1))
        * LaurentPoly.poch(1, -i, 1, j)
        * LaurentPoly.poch(1, 1, 1, j)
    )
    _compare_laurent(lhs, rhs)
    return {"vanishes": int(lhs.is_zero())}
