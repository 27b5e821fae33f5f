"""Tuning-rule values of the form ``c1 + c2 * n**e`` and their mini-language.

All tuning sequences used by the intervals (the variance-control parameter
``a_n``, the OLS splitting weight ``omega_n``) are power laws in the sample
size.  ``PowerRule`` is a hashable callable for those, and ``parse_rule``
turns the command-line / config strings ("n^-1/5", "1+20*n^-2/5", "1.5",
"optimized") into rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError

__all__ = ["PowerRule", "OPTIMIZED", "OptimizedRule", "parse_rule", "format_rule"]


@dataclass(frozen=True)
class PowerRule:
    """The map n -> c1 + c2 * n**exponent."""

    c1: float = 0.0
    c2: float = 1.0
    exponent: float = 0.0

    def __call__(self, n: int) -> float:
        return self.c1 + self.c2 * float(n) ** self.exponent


@dataclass(frozen=True)
class OptimizedRule:
    """Marker requesting the width-minimizing choice instead of a formula."""


OPTIMIZED = OptimizedRule()


def _rule_value(rule: Callable[[int], float], n: int, name: str) -> float:
    """``float(rule(n))``; a value that ``float()`` rejects is a ConfigError
    naming the rule ``name``, n and the value."""
    value = rule(n)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}({n}) = {value!r}; must be a number") from exc


# number: int/float literal with optional sign and exponent part
_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_EXP = r"(?P<exp>[+-]?(?:\d+\.?\d*|\.\d+)(?:/\d+\.?\d*)?)"
_RULE_RE = re.compile(
    rf"^\s*(?:(?P<c1>{_NUM})\s*\+\s*)?(?:(?P<c2>{_NUM})\s*\*\s*)?n\s*\^\s*{_EXP}\s*$"
)
_CONST_RE = re.compile(rf"^\s*(?P<c>{_NUM})\s*$")


def _parse_exponent(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def parse_rule(text: str) -> PowerRule | OptimizedRule:
    """Parse a tuning-rule string.

    Accepted forms: ``optimized``, a bare constant, or ``[c1+][c2*]n^e``
    where the exponent ``e`` may be a decimal or a fraction like ``-1/5``.
    """
    if text.strip().lower() == "optimized":
        return OPTIMIZED
    m = _CONST_RE.match(text)
    if m:
        return PowerRule(c1=float(m.group("c")), c2=0.0, exponent=0.0)
    m = _RULE_RE.match(text)
    if m is None:
        raise ConfigError(
            f"cannot parse tuning rule {text!r}; expected 'optimized', a "
            "constant, or '[c1+][c2*]n^e'"
        )
    c1 = float(m.group("c1")) if m.group("c1") is not None else 0.0
    c2 = float(m.group("c2")) if m.group("c2") is not None else 1.0
    return PowerRule(c1=c1, c2=c2, exponent=_parse_exponent(m.group("exp")))


def format_rule(rule) -> str:
    """Inverse of :func:`parse_rule`, for report metadata; any other callable
    rule is named by its ``__name__``, or ``custom``."""
    if isinstance(rule, OptimizedRule):
        return "optimized"
    if not isinstance(rule, PowerRule):
        return getattr(rule, "__name__", "custom")
    if rule.c2 == 0.0 or rule.exponent == 0.0:
        return repr(rule.c1 + rule.c2)
    parts = []
    if rule.c1 != 0.0:
        parts.append(f"{rule.c1!r}+")
    if rule.c2 != 1.0:
        parts.append(f"{rule.c2!r}*")
    parts.append(f"n^{rule.exponent!r}")
    return "".join(parts)
