"""Tunable parameters shared by the algorithm suite."""

from dataclasses import dataclass


class ConfigError(ValueError):
    pass


@dataclass
class AlgoConfig:
    source: int = 0
    gamma: float = 0.15  # walk reset probability
    tokens_per_node: int = None  # None -> ceil(log2 n)
    eps: float = 0.5  # peeling slack
    delta: int = 2  # spanner stretch parameter, stretch is 2*delta-1
    mis_max_phases: int = None  # None -> 10*ceil(log2 n) + 16

    def validate(self, n: int = None):
        for name in ("source", "tokens_per_node", "delta", "mis_max_phases"):
            value = getattr(self, name)
            if value is None and name in ("tokens_per_node", "mis_max_phases"):
                continue  # None picks the default
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must be in (0,1), got {self.gamma}")
        if self.tokens_per_node is not None and self.tokens_per_node < 1:
            raise ConfigError("tokens_per_node must be >= 1")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if self.delta < 1:
            raise ConfigError(f"delta must be >= 1, got {self.delta}")
        if self.mis_max_phases is not None and self.mis_max_phases < 1:
            raise ConfigError("mis_max_phases must be >= 1")
        if n is not None and not (0 <= self.source < n):
            raise ConfigError(f"source {self.source} out of range for n={n}")
        return self
