"""Computations made apart from crossnum, against which its outputs are checked.

Nothing here imports crossnum.  Each oracle rests on a different formula
from the one the program uses:

* cross counts come from the divisor-summatory identity
  ``C(r, d) = sum_j binom(d, j) 2^j (-1)^(d-j) D_j(r)``, where ``D_j`` is the
  j-fold divisor summatory function, evaluated with the hyperbola method
  (the program sums positive parts over supports and signs);
* the sharp staircase comes from shell counts ``#{k : prod (1+|k_j|) = p}``
  built by Dirichlet convolution (the program searches exact counts);
* non-sharp spectra come from sorting a box of reciprocal weights, with the
  box certified by the one-dimensional weight at its edge (the program
  enumerates crosses of doubling radius).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np

_INT64_SAFE = float(1 << 61)


def _runs(keys: np.ndarray, lengths: np.ndarray):
    """Repeat each key ``lengths`` times; also return 1-based positions in
    each run and the start offset of each run."""
    owner = np.repeat(keys, lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    position = np.arange(len(owner), dtype=np.int64) - np.repeat(offsets, lengths) + 1
    return owner, position, offsets


def _multiples(top: int):
    """All pairs (a, a * k) with a * k <= top."""
    keys = np.arange(1, top + 1, dtype=np.int64)
    owner, position, _ = _runs(keys, top // keys)
    return owner, owner * position


def _hyperbola_levels(r: int, levels: int) -> list[int]:
    """``[D_0(r), ..., D_levels(r)]`` exactly.

    ``D_j(m) = sum_{a <= t} d_{j-1}(a) (m // a) + sum_{b <= t} D_{j-1}(m // b)
    - D_{j-1}(t) t`` with ``t = isqrt(m)``.  Every ``m // b`` is a floor
    quotient of r, kept in two tables: values up to ``isqrt(r)`` and the
    large quotients ``r // i`` for ``i <= isqrt(r)``.
    """
    s = isqrt(r)
    base = np.arange(1, s + 1, dtype=np.int64)
    src, dst = _multiples(s)                 # divisor-function sieve on 1..s
    # hyperbola pairs (i, b) with b <= isqrt(r // i)
    heights = np.array([isqrt(r // i) for i in range(1, s + 1)], dtype=np.int64)
    owner, b, offsets = _runs(base, heights)
    ib = owner * b
    quotient = r // ib
    from_big = ib <= s
    big_index = np.where(from_big, ib, 0)
    small_index = np.where(from_big, 0, quotient)

    def run(dtype) -> list[int] | None:
        d_prev = np.zeros(s + 1, dtype=dtype)
        d_prev[1] = 1                      # d_0 = delta_1
        small_prev = np.ones(s + 1, dtype=dtype)
        small_prev[0] = 0                  # D_0(v) = 1 for v >= 1
        big_prev = np.ones(s + 1, dtype=dtype)
        big_prev[0] = 0
        out = [1]
        for _ in range(levels):
            d_q = np.where(from_big, big_prev[big_index], small_prev[small_index])
            terms = d_prev[b] * quotient.astype(dtype) + d_q
            sums = np.add.reduceat(terms, offsets)
            big = np.zeros(s + 1, dtype=dtype)
            big[1:] = sums - small_prev[heights] * heights.astype(dtype)
            d_next = np.zeros(s + 1, dtype=dtype)
            np.add.at(d_next, dst, d_prev[src])
            small = np.cumsum(d_next)
            if dtype is np.float64 and float(big[1]) >= _INT64_SAFE:
                return None
            d_prev, small_prev, big_prev = d_next, small, big
            out.append(int(big[1]))
        return out

    # D_j(r) <= r (1 + ln r)^(j - 1) bounds every intermediate sum
    if r * (1.0 + math.log(r)) ** max(levels - 1, 0) < _INT64_SAFE \
            or run(np.float64) is not None:
        return run(np.int64)
    return run(object)


class CountOracle:
    """Exact ``C(r, d)`` through divisor summatory functions, memoised per r."""

    def __init__(self) -> None:
        self._summatory: dict[int, list[int]] = {}
        self._counts: dict[tuple[int, int], int] = {}

    def summatory(self, r: int, top: int) -> list[int]:
        """``[D_0(r), ..., D_top(r)]``.  D_j(r) is a polynomial of degree
        floor(log2 r) in j, so levels past that are extrapolated exactly."""
        have = self._summatory.get(r, [])
        if len(have) > top:
            return have
        degree = r.bit_length() - 1
        values = _hyperbola_levels(r, min(top, degree + 1))
        if top > degree + 1:
            diffs, row = [], list(values)
            while row:
                diffs.append(row[0])
                row = [y - x for x, y in zip(row, row[1:])]
            if diffs[-1] != 0:
                raise AssertionError(f"D_j({r}) is not a polynomial of degree {degree}")
            values += [sum(comb(j, l) * diffs[l] for l in range(degree + 1))
                       for j in range(len(values), top + 1)]
        self._summatory[r] = values
        return values

    def count(self, r: int, d: int) -> int:
        if r < 1:
            return 0
        key = (r, d)
        if key not in self._counts:
            sums = self.summatory(r, max(d, 64))
            self._counts[key] = sum(comb(d, j) * (1 << j) * (-1) ** (d - j) * sums[j]
                                    for j in range(d + 1))
        return self._counts[key]


@lru_cache(maxsize=None)
def first_radius(eps: float, s: float) -> int:
    """Least integer r with r^(-s) <= eps, in exact rational arithmetic.

    ``s`` must be a float with a short exact fraction (0.5, 0.75, 3.0 ...);
    r^(-p/q) <= eps  <=>  r^p * eps^q >= 1.
    """
    sf = Fraction(s).limit_denominator(64)
    if float(sf) != s:
        raise ValueError(f"smoothness {s} has no short exact fraction")
    p, q = sf.numerator, sf.denominator
    if not 0.0 < eps < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {eps}")
    e = Fraction(eps) ** q
    lo, hi = 1, max(2, 2 * int(eps ** (-1.0 / s)))
    while hi ** p * e < 1:
        hi *= 2
    while lo + 1 < hi:                     # r = lo fails, r = hi passes
        mid = (lo + hi) // 2
        if mid ** p * e >= 1:
            hi = mid
        else:
            lo = mid
    return hi


def complexity_sharp(counts: CountOracle, eps: float, d: int, s: float) -> int:
    """n(eps, d) = C(r* - 1, d) + 1 for the sharp weight."""
    r_star = first_radius(eps, s)
    return 1 if r_star <= 1 else counts.count(r_star - 1, d) + 1


class Staircase:
    """Sharp staircase of one dimension from Dirichlet-convolved shell counts."""

    def __init__(self, d: int) -> None:
        self.d = d
        self.radius = 0
        self.cumulative = np.zeros(0, dtype=np.int64)  # [r-1] -> C(r, d)

    def _grow(self, radius: int) -> None:
        size = radius + 1
        a, m = _multiples(radius)
        shells = np.zeros(size, dtype=np.float64)
        shells[1] = 1.0                     # zero coordinates: the empty product
        for _ in range(self.d):
            # f = 2 * 1 - delta_1 per coordinate, so shells <- 2 (1 * h) - h
            divisor_sum = np.bincount(m, weights=shells[a], minlength=size)
            shells = 2.0 * divisor_sum - shells
        if shells.max() >= 2.0 ** 52:
            raise OverflowError("shell counts leave the exact float range")
        self.cumulative = np.cumsum(shells[1:].astype(np.int64))
        self.radius = radius

    def cover(self, n_max: int) -> None:
        if self.radius == 0:
            self._grow(16)
        while int(self.cumulative[-1]) < n_max:
            self._grow(2 * self.radius)

    def count(self, r: int) -> int:
        if r < 1:
            return 0
        if r > self.radius:
            self._grow(max(r, 2 * self.radius))
        return int(self.cumulative[r - 1])

    def radii(self, ns) -> np.ndarray:
        """Least r with C(r, d) >= n, for each n."""
        ns = np.asarray(ns, dtype=np.int64)
        self.cover(int(ns.max()))
        return np.searchsorted(self.cumulative, ns, side="left") + 1

    def shell_counts(self, top: int) -> list[int]:
        self.count(top)
        c = self.cumulative[:top]
        return [int(c[0])] + [int(x) for x in np.diff(c)]


def sharp_value(r: int, s: float) -> float:
    return 1.0 / float(r) ** s


def weight_1d(family: str, s: float, levels: np.ndarray) -> np.ndarray:
    """One-coordinate weight of a family at integer levels l (vectorised)."""
    x = np.abs(levels).astype(np.float64)
    if family == "sharp":
        return (1.0 + x) ** s
    if family == "plus":
        return (1.0 + x * x) ** (s / 2.0)
    if family == "star":
        return np.sqrt(1.0 + x ** (2.0 * s))
    if family == "intm":
        acc = np.zeros_like(x)
        for a in range(int(s) + 1):
            acc += x ** (2 * a)
        return np.sqrt(acc)
    raise ValueError(family)


_BOX_POINTS = 1 << 21


class BoxSpectrum:
    """Head of a non-sharp spectrum from a sorted box of reciprocal weights.

    Every point outside the box ``|k_j| <= B`` has one coordinate beyond B,
    and every one-coordinate weight is at least 1 and grows with |l|, so its
    value is at most ``1 / w1(B + 1)``.  Box values at or above that ceiling
    are therefore the true head, as a multiset.
    """

    def __init__(self, family: str, s: float, d: int) -> None:
        edge = 1
        while (2 * (edge + 1) + 1) ** d <= _BOX_POINTS:
            edge += 1
        levels = np.arange(-edge, edge + 1)
        inv = 1.0 / weight_1d(family, s, levels)
        values = inv
        for _ in range(d - 1):
            values = np.multiply.outer(values, inv).ravel()
        values = -np.sort(-values)
        ceiling = 1.0 / float(weight_1d(family, s, np.array([edge + 1]))[0])
        self.certified = int(np.searchsorted(-values, -ceiling, side="right"))
        self.values = values[:self.certified].copy()


def residual_energy(stairs: Staircase, r: int, tail_radius: int,
                    coefficient) -> float:
    """sqrt of the exact sum of |c_k|^2 over r <= prod(1+|k_j|) <= tail_radius,
    for a model whose coefficient depends on the product p only."""
    shells = stairs.shell_counts(tail_radius)
    total = Fraction(0)
    for p in range(r, tail_radius + 1):
        count = shells[p - 1]
        if count:
            total += count * Fraction(abs(coefficient(p)) ** 2)
    return math.sqrt(float(total))
