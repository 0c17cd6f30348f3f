"""Exact truncated formal power series in q over Z[x, y].

MultiSeries is the working ring: coefficients are Python ints (arbitrary
precision) and q-exponents are truncated at an inclusive order N, the only
truncation; x and y exponents are never cut.  Every q-product is built from
runs of binomial factors (1 - c q^s x^a y^b), one shift s per factor and c,
a, b shared, by two steps that cost O(terms) per factor: multiplying by a
factor is one shifted add, and dividing by it (s >= 1) walks the exact
recurrence g[k] = f[k] + c g[k - (s, a, b)] in increasing q, so no inverse
series is ever formed.  A division run keeps one working dict and one index
of its keys by q-level across all its factors, and takes them largest shift
first: a factor with shift s walks only the levels q <= N - s, so the dict
stays small until the last, small shifts, and the factors commute, so the
quotient is the same.  A product run takes one copy per factor, in the
order given; the Pochhammer envelopes give ascending shifts, which shrink a
cancelling sum fastest.  The public constructor validates every exponent
and keeps each validated key, in a dict of its own; only the two binomial
steps store their own output unchecked and uncopied, with no zero
coefficient, because their bounds keep every exponent nonnegative and
within the order.  Every named series is one of two sums: a double sum in
nested Horner form over one-factor runs, or one recurrence loop, which
QBINOM runs as the Pochhammer builders do; the product envelopes are one
run each.  XQ2's Gaussian binomials are two runs, truncated at their
degree; there is no q-Pascal table.  LaurentPoly quarantines the negative
q-powers required by the terminating hypergeometric checks; a factor run
multiplies one by finitely many binomials with the same shifted add per
factor, untruncated, and its finite Pochhammer products are one times a
run, so QCHU builds each summand as one running polynomial.
MultiSeries never holds a negative exponent.  No floating point anywhere.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .report import Counterexample, compare_series

Key = tuple[int, int, int]  # (q-exponent, x-exponent, y-exponent)


class Monomial(namedtuple("Monomial", ("coeff", "x", "y", "q"), defaults=(0, 0, 0))):
    """An integer multiple of x^x * y^y * q^q."""

    __slots__ = ()


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
            for key, coeff in terms.items():
                q, x, y = key
                if q < 0 or x < 0 or y < 0:
                    raise ValueError(f"negative exponent in term {(q, x, y)}")
                if coeff == 0 or q > order:
                    continue
                kept[key] = coeff  # the validated key itself, not a copy
        self.terms = kept

    @classmethod
    def _trusted(cls, order: int, terms: dict[Key, int]) -> "MultiSeries":
        """Store ``terms`` as given, unchecked and uncopied: every exponent
        must already be nonnegative with q <= order, and no coefficient 0.
        Only the binomial steps call this, each with a dict of its own."""
        series = object.__new__(cls)
        series.order = order
        series.terms = terms
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

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._require_compatible(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return MultiSeries(self.order, merged)

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
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
        # u = 1 - c * self: c * c = 1 cancels the constant term
        u = MultiSeries(order, {k: -c * v for k, v in self.terms.items() if k != (0, 0, 0)})
        if any(q < 1 for (q, _x, _y) in u.terms):
            raise ValueError("series is not invertible under this truncation")
        # every term of u has q >= 1, so u^(order+1) truncates to zero
        result = MultiSeries.one(order)
        power = u
        while power.terms:
            result = result + power
            power = power * u
        return MultiSeries(order, {k: c * v for k, v in result.terms.items()})

    # -- binomial steps ------------------------------------------------------

    def _times_binomial(self, c: int, shifts, a: int, b: int) -> "MultiSeries":
        """This series times (1 - c q^s x^a y^b) for each s in ``shifts``, in
        order: one shifted add per factor, each into a fresh copy of the
        previous factor's terms, deleting a coefficient as soon as it
        cancels.  A factor with c = 0 is 1."""
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in binomial {(a, b)}")
        order = self.order
        out = self.terms
        for s in shifts:
            if s < 0:
                raise ValueError(f"negative exponent in binomial {(s, a, b)}")
            if not c:
                continue
            source, out = out, dict(out)
            limit = order - s
            for (q, x, y), coeff in source.items():
                if q <= limit:
                    key = (q + s, x + a, y + b)
                    total = out.get(key, 0) - c * coeff
                    if total:
                        out[key] = total
                    else:
                        del out[key]
        if out is self.terms:  # an empty run, or factors of 1
            out = dict(out)
        return MultiSeries._trusted(order, out)

    def _over_binomial(self, c: int, shifts, a: int, b: int) -> "MultiSeries":
        """This series divided by (1 - c q^s x^a y^b) for each s in
        ``shifts``, each by the exact recurrence
        g[k] = f[k] + c g[k - (s, a, b)], largest shift first.

        The factors commute, so their order leaves the truncated quotient
        unchanged, but not its cost: a factor with shift s walks only the
        levels q <= order - s, so the large shifts run while the dict is
        still small, and the small shifts, which walk nearly every level,
        come last.  One working dict and one index of its keys by q-level
        serve the whole run; each new key joins its level.  The levels are
        walked in increasing q, so each g[k] is final before it feeds
        k + (s, a, b) on a higher level.  A coefficient that cancels stays
        as 0, and is skipped, until the run ends: deleted, it could join
        its level a second time.  A shift with s < 1 gives no such order,
        and no inverse, so the whole run is rejected before any walk.
        """
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in binomial {(a, b)}")
        shifts = sorted(shifts, reverse=True)
        if shifts and shifts[-1] < 1:
            raise ValueError(f"binomial {(shifts[-1], a, b)} is not invertible under this truncation")
        order = self.order
        out = dict(self.terms)
        levels: list[list[Key]] = [[] for _ in range(order + 1)]
        for key in out:
            levels[key[0]].append(key)
        for s in shifts:
            for level in range(order + 1 - s):
                above = levels[level + s]
                for key in levels[level]:
                    coeff = out[key]
                    if not coeff:
                        continue
                    q, x, y = key
                    shifted = (q + s, x + a, y + b)
                    if shifted in out:
                        out[shifted] += c * coeff
                    else:
                        out[shifted] = c * coeff
                        above.append(shifted)
        for key in [key for key, coeff in out.items() if not coeff]:
            del out[key]
        return MultiSeries._trusted(order, out)

    # -- inspection ----------------------------------------------------------

    def map_exponents(self, fn) -> "MultiSeries":
        """Rebuild the series sending each exponent triple through ``fn``."""
        out: dict[Key, int] = {}
        for key, coeff in self.terms.items():
            new = fn(*key)
            out[new] = out.get(new, 0) + coeff
        return MultiSeries(self.order, out)

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
    # the q-shifts only grow, so the first factor past the order ends the product
    stop = order + 1 if n is None else min(order + 1, a.q + step * n)
    return MultiSeries.one(order)._times_binomial(a.coeff, range(a.q, stop, step), a.x, a.y)


def _gauss(n: int, i: int) -> MultiSeries:
    """The Gaussian binomial [n, i]_q for 0 <= i <= n: the product of
    (1 - q^(n-i+k)) over k = 1..i in one binomial run, divided by
    (1 - q^k) over k = 1..i in another.  Truncating at its degree i(n - i)
    loses nothing."""
    numerator = MultiSeries.one(i * (n - i))._times_binomial(1, range(n - i + 1, n + 1), 0, 0)
    return numerator._over_binomial(1, range(1, i + 1), 0, 0)


# -- named series builders ---------------------------------------------------


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
                inner = inner._over_binomial(1, (i,), 0, 0)
        total = total + inner
        if j:
            total = total._over_binomial(1, (2 * j,), 0, 0)
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
        term = term._times_binomial(a.coeff, (a.q + step * n,), a.x, a.y)
        term = term._over_binomial(1, (n + 1,), 0, 0)
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

    return _double_sum(order, cells())


def build_k_measure_gf(k: int, order: int) -> MultiSeries:
    """(-yq; q)_inf times sum_n (-yq)^n (x; q^k)_n / (q; q)_n:
    strict partitions counted by x^(k-measure) y^length q^size."""
    if type(k) is not int or k < 1:  # bool is an int subclass
        raise ValueError("k must be a positive integer")
    total = _term_sum(order, lambda n: Monomial(-1, y=1, q=1), Monomial(1, x=1), k)
    return total._times_binomial(-1, range(1, order + 1), 0, 1)


def build_all_partitions_2measure_gf(order: int) -> MultiSeries:
    """All partitions counted by x^(2-measure) y^length q^size:
    1/(yq; q)_inf times sum_n (-y)^n q^(n(n+1)/2) (x; q)_n / (q; q)_n."""
    total = _term_sum(order, lambda n: Monomial(-1, y=1, q=n + 1), Monomial(1, x=1), 1)
    return total._over_binomial(1, range(1, order + 1), 0, 1)


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

    return _double_sum(order, cells())


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

    return _double_sum(order, cells())


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
    """Construct a named series at the given truncation order, which must be
    an int and not a bool.  Each one weights y by a length or a Durfee
    side, so y <= q is checked here."""
    try:
        builder, wanted = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown series {name!r}; choose from {SERIES_NAMES}") from None
    if type(order) is not int:  # bool is an int subclass
        raise ValueError(f"series {name} needs an integer order, got {order!r}")
    missing = [p for p in wanted if p not in params]
    if missing:
        raise ValueError(f"series {name} needs parameter(s) {missing}")
    extra = [p for p in params if p not in wanted]
    if extra:
        raise ValueError(f"series {name} does not take parameter(s) {extra}")
    args = [params[p] for p in wanted]
    series = builder(*args, order)
    if any(y > q for (q, _x, y) in series.terms):
        raise RuntimeError(f"built series {name} has a y-exponent above its q-exponent")
    return series


# -- Laurent polynomials ------------------------------------------------------


class LaurentPoly:
    """Exact Laurent polynomial in q (any-sign exponents) with an optional
    x dimension.  Used only by the finite hypergeometric checks."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None) -> None:
        kept: dict[tuple[int, int], int] = {}
        if terms:
            for key, coeff in terms.items():
                q, x = key
                if type(q) is not int or type(x) is not int or type(coeff) is not int:
                    # bool is an int subclass, and a float breaks exactness
                    raise ValueError(f"non-integer term {key}: {coeff!r}")
                if x < 0:
                    raise ValueError("x-exponents are nonnegative")
                if coeff:
                    kept[key] = coeff  # the validated key itself, not a copy
        self.terms = kept

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
        """Finite product of (1 - coeff * x^x * q^(q_start + step*t)), t < n:
        one times that factor run."""
        return cls.one()._times_run(coeff, q_start, step, n, x)

    def _times_run(self, coeff: int, q_start: int, step: int, n: int, x: int = 0) -> "LaurentPoly":
        """This polynomial times (1 - coeff * x^x * q^(q_start + step*t)) for
        each t < n.

        One shifted add per factor, into a fresh copy of the previous
        factor's terms, deleting a coefficient as soon as it cancels: the
        step of ``MultiSeries._times_binomial`` without its truncation, as
        q may go negative here.  A factor with coeff 0 is 1; a negative
        length is rejected, as in ``pochhammer``."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        out = self.terms
        for t in range(n if coeff else 0):
            shift = q_start + step * t
            source, out = out, dict(out)
            for (q, xe), c in source.items():
                key = (q + shift, xe + x)
                total = out.get(key, 0) - coeff * c
                if total:
                    out[key] = total
                else:
                    del out[key]
        return LaurentPoly(out)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return LaurentPoly(merged)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (q1, x1), c1 in self.terms.items():
            for (q2, x2), c2 in other.terms.items():
                key = (q1 + q2, x1 + x2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out)

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
    rhs = rhs._over_binomial(1, range(1, top + 1), 1, 0)
    return {"terms": compare_series(lhs, rhs)}


def check_xq2_expansion(n: int) -> dict:
    """(x; q^2)_n as a Gaussian-binomial sum, in exact (q, x) polynomials.
    Returns the term count; ``compare_series`` raises ``Counterexample`` at
    the smallest (q, x) where the sides differ."""
    lhs = LaurentPoly.poch(1, 0, 2, n, x=1)
    rhs = LaurentPoly.zero()
    for i in range(n + 1):
        sign = -1 if i % 2 else 1
        head = LaurentPoly.term(sign, q=i * i - i, x=i)
        binom = LaurentPoly({(2 * q, 0): c for (q, _x, _y), c in _gauss(n, i).terms.items()})
        rhs = rhs + head * binom
    return {"terms": compare_series(lhs, rhs)}


def check_qchu(i: int, j: int) -> dict:
    """Terminating q-Chu-Vandermonde instance in Laurent-polynomial arithmetic.

    Both sides are multiplied by (q^2; q^2)_j = (q; q)_j (-q; q)_j so the
    n-th summand's denominator cancels into the genuine polynomial
    (q^(2n+2); q^2)_(j-n); the comparison then stays in Z[q, q^-1].  Each
    summand, and the right side, is one running polynomial: its first
    Pochhammer factor comes from ``LaurentPoly.poch`` and the others are
    factor runs on it, so only the monomials q^n and +-q^(j(i+1)) are
    products.
    Returns the term count and whether both sides vanish, which they must
    do exactly when j > i: the right side then carries the factor 1 - q^0
    of (q^-i; q)_j.  ``compare_series`` raises ``Counterexample`` at the
    smallest (q, x) where the sides differ, and a vanishing that breaks
    that rule raises one too.
    """
    lhs = LaurentPoly.zero()
    for n in range(j + 1):
        summand = (
            LaurentPoly.poch(-1, i + 1, 1, n)
            ._times_run(1, -j, 1, n)
            ._times_run(1, 2 * n + 2, 2, j - n)
        )
        lhs = lhs + LaurentPoly.term(1, q=n) * summand
    sign = -1 if j % 2 else 1
    rhs = LaurentPoly.poch(1, -i, 1, j)._times_run(1, 1, 1, j)
    rhs = LaurentPoly.term(sign, q=j * (i + 1)) * rhs
    terms = compare_series(lhs, rhs)
    vanishes = lhs.is_zero()
    if vanishes != (j > i):
        said = "vanish" if vanishes else "do not vanish"
        raise Counterexample(f"both sides {said}, but they vanish exactly when j > i")
    return {"terms": terms, "vanishes": int(vanishes)}
