"""Tunable parameters shared by the algorithm suite."""

import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass
class AlgoConfig:
    source: int = 0
    gamma: float = 0.15  # walk reset probability
    tokens_per_node: int = None  # None -> ceil(log2 n)
    eps: float = 0.5  # peeling slack
    delta: int = 2  # spanner stretch parameter, stretch is 2*delta-1

    def validate(self, n: int = None):
        for name in ("source", "tokens_per_node", "delta"):
            value = getattr(self, name)
            if value is None and name == "tokens_per_node":
                continue  # None picks the default
            if not is_int(value):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        for name in ("gamma", "eps"):
            value = getattr(self, name)
            if not is_real(value):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must be in (0,1), got {self.gamma}")
        if self.tokens_per_node is not None and self.tokens_per_node < 1:
            raise ConfigError("tokens_per_node must be >= 1")
        if not self.eps > 0.0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if self.delta < 1:
            raise ConfigError(f"delta must be >= 1, got {self.delta}")
        if n is not None and not (0 <= self.source < n):
            raise ConfigError(f"source {self.source} out of range for n={n}")
        return self
