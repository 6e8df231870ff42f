"""Run and experiment configuration: strict JSON in, validated dataclasses out.

parse_config accepts either a single-run object or an experiment object
(recognized by its "kind" key). Unknown keys and wrong types are hard
errors naming the offending key; silent coercion would let typos change
physics.
"""

import json
import math
from dataclasses import dataclass, field

__all__ = ["MODELS", "RunConfig", "ExperimentSpec", "parse_config", "ConfigError"]

EXPERIMENT_KINDS = ("stability", "wasserstein", "corrector", "lifespan", "inequalities")

MODELS = ("Euler", "SGeps", "Corrector")


class ConfigError(ValueError):
    """Malformed configuration input."""


def _is_finite(v) -> bool:
    """True for a number that converts to a finite float: JSON input can
    hold NaN, Infinity and integers too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class RunConfig:
    """Parameters of a single simulation run."""

    n: int = 128
    model: str = "Euler"
    eps: float = 0.0
    t_final: float = 1.0
    cfl: float = 0.5
    sample_interval: float = 0.05
    initial_data: object = "default"
    stop_on_exit: bool = False
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ConfigError(f"key 'n': expected int, got {type(self.n).__name__}")
        if not _is_power_of_two(self.n) or self.n < 32:
            raise ConfigError(f"key 'n': must be a power of two >= 32, got {self.n}")
        if self.model not in MODELS:
            raise ConfigError(f"key 'model': must be one of {MODELS}, got {self.model!r}")
        for key in ("eps", "t_final", "cfl", "sample_interval"):
            v = getattr(self, key)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"key {key!r}: expected number, got {type(v).__name__}")
            if not _is_finite(v):
                raise ConfigError(f"key {key!r}: must be a finite number")
            setattr(self, key, float(v))
        if self.eps < 0:
            raise ConfigError(f"key 'eps': must be >= 0, got {self.eps}")
        if self.t_final <= 0:
            raise ConfigError(f"key 't_final': must be > 0, got {self.t_final}")
        if not (0 < self.cfl <= 1):
            raise ConfigError(f"key 'cfl': must lie in (0, 1], got {self.cfl}")
        if self.sample_interval <= 0:
            raise ConfigError(f"key 'sample_interval': must be > 0, got {self.sample_interval}")
        if not isinstance(self.stop_on_exit, bool):
            raise ConfigError("key 'stop_on_exit': expected bool")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("key 'seed': expected int")
        if not isinstance(self.output_dir, str):
            raise ConfigError("key 'output_dir': expected str")
        self._check_initial_data()

    def _check_initial_data(self):
        spec = self.initial_data
        if isinstance(spec, str):
            return
        if not isinstance(spec, list) or not spec:
            raise ConfigError(
                "key 'initial_data': expected preset name or nonempty list of "
                "[p, q, cos_coeff, sin_coeff] rows"
            )
        for row in spec:
            if not isinstance(row, list) or len(row) != 4:
                raise ConfigError(f"key 'initial_data': bad mode row {row!r}")
            p, q, c, s = row
            for v in row:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"key 'initial_data': non-numeric entry in {row!r}")
                if not _is_finite(v):
                    raise ConfigError("key 'initial_data': non-finite entry in a mode row")
            if int(p) != p or int(q) != q:
                raise ConfigError(f"key 'initial_data': mode indices must be integers in {row!r}")
            if p == 0 and q == 0:
                raise ConfigError("key 'initial_data': (0, 0) mode not allowed")


@dataclass
class ExperimentSpec:
    """Parameters of a multi-run experiment.

    eps_list must be strictly decreasing with at least three entries for
    the slope-fitting kinds (everything except 'inequalities').
    """

    kind: str
    eps_list: list = field(default_factory=list)
    base: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"key 'kind': must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.eps_list, list):
            raise ConfigError("key 'eps_list': expected list of numbers")
        eps = []
        for v in self.eps_list:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"key 'eps_list': non-numeric entry {v!r}")
            if not _is_finite(v):
                raise ConfigError("key 'eps_list': entries must be finite")
            eps.append(float(v))
        if any(e <= 0 for e in eps):
            raise ConfigError("key 'eps_list': entries must be positive")
        if self.kind != "inequalities":
            if len(eps) < 3:
                raise ConfigError("key 'eps_list': need at least 3 entries")
            if any(a <= b for a, b in zip(eps, eps[1:])):
                raise ConfigError("key 'eps_list': must be strictly decreasing")
        self.eps_list = eps
        if not isinstance(self.base, RunConfig):
            raise ConfigError("key 'base': expected a run-config object")


_RUN_KEYS = set(RunConfig.__dataclass_fields__)
_EXP_KEYS = set(ExperimentSpec.__dataclass_fields__)


def _build_run(obj: dict) -> RunConfig:
    unknown = set(obj) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in run config")
    return RunConfig(**obj)


def parse_config(text: str):
    """Parse a JSON config; returns RunConfig or ExperimentSpec."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    if "kind" in obj:
        unknown = set(obj) - _EXP_KEYS
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in experiment config")
        obj = dict(obj)
        base = obj.pop("base", None)
        if base is not None:
            if not isinstance(base, dict):
                raise ConfigError("key 'base': expected object")
            obj["base"] = _build_run(base)
        return ExperimentSpec(**obj)
    return _build_run(obj)
