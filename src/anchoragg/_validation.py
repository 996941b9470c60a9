"""Small input-validation helpers shared across the package."""

from __future__ import annotations

import math
import threading
from dataclasses import fields
from typing import Any


def check_fitted(obj: Any, attributes: tuple[str, ...]) -> None:
    """Raise if any of the fitted attributes are missing (sklearn convention)."""
    missing = [a for a in attributes if getattr(obj, a, None) is None]
    if missing:
        raise RuntimeError(
            f"{type(obj).__name__} is not fitted; missing {', '.join(missing)}. "
            "Call fit() first."
        )


def check_fraction(value: float, name: str = "fraction") -> float:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return float(value)


def check_probability(value: float, name: str, *, open_low: bool = True,
                      open_high: bool = True) -> float:
    low_ok = value > 0.0 if open_low else value >= 0.0
    high_ok = value < 1.0 if open_high else value <= 1.0
    if not (low_ok and high_ok):
        raise ValueError(f"{name} out of range: {value!r}")
    return float(value)


def check_positive(value: float, name: str, *, zero_ok: bool = False) -> float:
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not (value >= 0 if zero_ok else value > 0):
        bound = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return float(value)


def check_timeout(value: float) -> float:
    """A service timeout: positive, and at most ``threading.TIMEOUT_MAX``
    seconds, the longest wait ``select`` accepts."""
    check_positive(value, "timeout")
    if value > threading.TIMEOUT_MAX:
        raise ValueError(f"timeout must be at most {threading.TIMEOUT_MAX} s, "
                         f"got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str) -> int:
    if int(value) != value or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


class ParamsMixin:
    """get_params/set_params in the sklearn style, without the sklearn
    dependency, for a dataclass: its parameters are its ``__init__`` fields,
    in declaration order, and its repr prints them. Enough for cloning and
    grid-style configuration.
    """

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def set_params(self, **params: Any):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self
