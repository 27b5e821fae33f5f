"""Upper bounds delta_n on the normal-approximation error of standardized sums.

Over the class of distributions with kurtosis at most K, the distance between
the law of a standardized i.i.d. sum and N(0,1) admits explicit bounds:

* Berry-Esseen:              0.4690 * K^(3/4) / sqrt(n)
* Edgeworth, leading term:   0.1995 * (K^(3/4) + 1) / sqrt(n)
* Edgeworth under continuity restrictions, leading term:
                             (0.195*K + 0.01465*K^(3/2)) / n

Only the Berry-Esseen bound is a complete, certified bound.  The Edgeworth
variants drop their O(1/n) (resp. O(n^-5/4)) remainder terms, so providers
built from them carry ``certified=False``: an interval inflated by an
uncertified delta loses its finite-sample coverage guarantee and the CLI
warns about it.  ``UserSupplied`` and CSV-table providers exist so a fully
ported remainder bound can be injected without code changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError, DomainError, ProviderError

__all__ = [
    "delta_berry_esseen",
    "delta_edgeworth_leading",
    "delta_edgeworth_continuous_leading",
    "DeltaProvider",
    "BerryEsseen",
    "EdgeworthLeading",
    "EdgeworthContinuousLeading",
    "UserSupplied",
    "MinOf",
    "TableProvider",
    "delta_of",
    "provider_from_string",
]


def _check_nk(n: int, kurtosis_bound: float) -> tuple[int, float]:
    n = int(n)
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    k = float(kurtosis_bound)
    if not math.isfinite(k) or k < 1.0:
        raise DomainError(f"kurtosis bound must be finite and >= 1, got {k!r}")
    return n, k


def delta_berry_esseen(n: int, kurtosis_bound: float) -> float:
    """Certified Berry-Esseen bound 0.4690 * K^(3/4) / sqrt(n)."""
    n, k = _check_nk(n, kurtosis_bound)
    return 0.4690 * k**0.75 / math.sqrt(n)


def delta_edgeworth_leading(n: int, kurtosis_bound: float) -> float:
    """Leading Edgeworth term 0.1995 * (K^(3/4) + 1) / sqrt(n); remainder omitted."""
    n, k = _check_nk(n, kurtosis_bound)
    return 0.1995 * (k**0.75 + 1.0) / math.sqrt(n)


def delta_edgeworth_continuous_leading(n: int, kurtosis_bound: float) -> float:
    """Leading term (0.195*K + 0.01465*K^(3/2)) / n.

    Valid only under continuity restrictions on the underlying distribution
    (they rule out discrete laws), and the remainder is omitted; never
    certified.
    """
    n, k = _check_nk(n, kurtosis_bound)
    try:  # a float's ** raises OverflowError past K = 1e205: the bound is then +inf
        return (0.195 * k + 0.01465 * k**1.5) / n
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DeltaProvider:
    """Base class: a strategy producing delta_n from (n, K).  The built-in
    providers' flags are class attributes, not fields: a provider's hash, a
    key of the ``optimize_a`` and ``n_zero`` caches, holds its fields only."""

    #: Whether delta(n, K) is provably nonincreasing in n at fixed K.
    #: ``n_zero`` bisects only under a provider that says so; an arbitrary
    #: bound (the default) keeps its exact scan.
    nonincreasing = False

    def delta(self, n: int, kurtosis_bound: float) -> float:
        raise NotImplementedError

    @property
    def certified(self) -> bool:
        raise NotImplementedError

    @property
    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class BerryEsseen(DeltaProvider):
    certified = True
    label = "be"
    nonincreasing = True

    def delta(self, n: int, kurtosis_bound: float) -> float:
        return delta_berry_esseen(n, kurtosis_bound)


@dataclass(frozen=True)
class EdgeworthLeading(DeltaProvider):
    certified = False
    label = "edg-leading"
    nonincreasing = True

    def delta(self, n: int, kurtosis_bound: float) -> float:
        return delta_edgeworth_leading(n, kurtosis_bound)


@dataclass(frozen=True)
class EdgeworthContinuousLeading(DeltaProvider):
    certified = False
    label = "edg-cont-leading"
    nonincreasing = True

    def delta(self, n: int, kurtosis_bound: float) -> float:
        return delta_edgeworth_continuous_leading(n, kurtosis_bound)


class _Declared(DeltaProvider):
    """A provider from outside the package, labelled ``user:<name>`` and
    certified only when its ``declared_certified`` field says so."""

    @property
    def certified(self) -> bool:
        return self.declared_certified

    @property
    def label(self) -> str:
        return f"user:{self.name}"


@dataclass(frozen=True)
class UserSupplied(_Declared):
    """Inject an externally computed bound; certification is declared by the caller."""

    fn: Callable[[int, float], float]
    declared_certified: bool = False
    name: str = "user"

    def delta(self, n: int, kurtosis_bound: float) -> float:
        value = float(self.fn(n, kurtosis_bound))
        if not math.isfinite(value) or value <= 0.0:
            raise ProviderError(
                f"user-supplied delta provider {self.name!r} returned {value!r} "
                f"at (n={n}, K={kurtosis_bound}); need a finite positive bound"
            )
        return value


@dataclass(frozen=True)
class MinOf(DeltaProvider):
    """Pointwise minimum of sub-providers; certified only if all members are."""

    providers: tuple[DeltaProvider, ...]

    def __post_init__(self) -> None:
        if not self.providers:
            raise ConfigError("MinOf requires at least one sub-provider")

    def delta(self, n: int, kurtosis_bound: float) -> float:
        return min(p.delta(n, kurtosis_bound) for p in self.providers)

    @property
    def certified(self) -> bool:
        return all(p.certified for p in self.providers)

    @property
    def label(self) -> str:
        return "min(" + ",".join(p.label for p in self.providers) + ")"

    @property
    def nonincreasing(self) -> bool:
        return all(p.nonincreasing for p in self.providers)


@dataclass(frozen=True)
class TableProvider(_Declared):
    """Step interpolation of a (n, K, delta) table, conservative upward.

    A row (n', K', d') is a valid bound at every (n, K) with n >= n' and
    K <= K' because delta decreases in n and increases in K.  A query takes
    the smallest of those rows' deltas and the trivial bound 1, so where no
    row covers (n, K) the interval is the whole line.  The valid rows only
    grow with n, so ``n_zero`` bisects a table.
    """

    nonincreasing = True

    rows: tuple[tuple[int, float, float], ...]
    declared_certified: bool = False
    name: str = "table"

    def __post_init__(self) -> None:
        if not self.rows:
            raise ConfigError("delta table must contain at least one row")
        for row_n, row_k, row_d in self.rows:
            if row_n < 1 or not math.isfinite(row_k) or row_k < 1.0:
                raise ConfigError(f"invalid delta-table row (n={row_n}, K={row_k})")
            if not math.isfinite(row_d) or row_d <= 0.0:
                raise ConfigError(f"invalid delta-table value {row_d!r}")

    def delta(self, n: int, kurtosis_bound: float) -> float:
        n, k = _check_nk(n, kurtosis_bound)
        return min([1.0] + [d for (rn, rk, d) in self.rows if rn <= n and rk >= k])


def delta_of(provider: DeltaProvider, n: int, kurtosis_bound: float) -> float:
    """Evaluate a provider and enforce positivity/finiteness of the result."""
    value = provider.delta(n, kurtosis_bound)
    if not math.isfinite(value) or value <= 0.0:
        raise ProviderError(
            f"delta provider {provider.label!r} produced {value!r}; "
            "bounds must be finite and positive"
        )
    return value


def _load_table(path: str | Path) -> tuple[tuple[int, float, float], ...]:
    """The ``n,K,delta`` rows of a table file, read as the CLI reads its CSV
    inputs; line 1 may be a header whose first cell is ``n``.  An n that is
    not an integer is a ``ConfigError``."""
    from .cli import _first_record, _read_floats  # cli imports this module

    first, lines = _first_record(path)
    is_header = bool(first) and first[0].strip().lower() == "n"
    rows = _read_floats(path, lines if is_header else 0, 3).tolist()
    for n, _, _ in rows:
        if not (math.isfinite(n) and n.is_integer()):
            raise ConfigError(f"{path}: delta-table n must be an integer, got {n!r}")
    return tuple((int(n), k, d) for n, k, d in rows)


def provider_from_string(spec: str) -> DeltaProvider:
    """Build a provider from its configuration string.

    Recognized forms: a built-in provider's ``label`` (``be``,
    ``edg-leading``, ``edg-cont-leading``), ``min(<spec>,<spec>,...)``, and
    ``user:<csv-path>[:certified]`` where the CSV holds ``n,K,delta`` rows
    (step interpolation, conservative upward).  A table is treated as
    uncertified unless the ``:certified`` suffix declares otherwise.
    """
    text = spec.strip()
    lowered = text.lower()
    for named in (BerryEsseen, EdgeworthLeading, EdgeworthContinuousLeading):
        if lowered == named.label:
            return named()
    if lowered.startswith("min(") and text.endswith(")"):
        inner = text[4:-1]
        parts = _split_top_level(inner)
        if not parts:
            raise ConfigError(f"empty min() in delta provider spec {spec!r}")
        return MinOf(tuple(provider_from_string(p) for p in parts))
    if lowered.startswith("user:"):
        (path,) = _table_paths(text)
        if not path:
            raise ConfigError(f"missing table path in delta provider spec {spec!r}")
        return TableProvider(rows=_load_table(path), declared_certified=text.endswith(":certified"),
                             name=Path(path).name)
    raise ConfigError(f"unknown delta provider spec {spec!r}")


def _table_paths(spec: str | None) -> list[str]:
    """The table files a delta spec reads: each ``user:`` path, inside
    ``min(...)`` too, without its ``:certified`` suffix."""
    text = (spec or "").strip()
    if text.lower().startswith("min(") and text.endswith(")"):
        return [path for part in _split_top_level(text[4:-1]) for path in _table_paths(part)]
    return [text[5:].removesuffix(":certified")] if text.lower().startswith("user:") else []


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested inside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts
