"""Registry of per-task executors and the deterministic stub policies behind them.

Each task id owns one executor. Real controllers would be fine-tuned models;
here every executor is a seeded stub that traces a fixed smooth trajectory,
so different tasks produce visibly different action chunks and the
registry/lookup/execute boundary is stable for later adapters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .atomic import write_atomic
from .checks import check_int, check_number, json_fields

__all__ = [
    "ExecutorSpec",
    "Observation",
    "ActionChunk",
    "ExecutorRegistry",
    "execute",
    "load_manifest",
    "save_manifest",
]


@dataclass(frozen=True)
class ExecutorSpec:
    """One registered executor: identity, output shape, and stub behaviour."""

    task_id: int
    name: str
    action_dim: int
    horizon: int
    seed: int = 0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        check_int(self.task_id, "executor field 'task_id'")
        if not isinstance(self.name, str):
            raise ValueError(f"executor field 'name' must be a string, got {self.name!r}")
        check_int(self.action_dim, "executor field 'action_dim'", 1)
        check_int(self.horizon, "executor field 'horizon'", 1)
        check_int(self.seed, "executor field 'seed'")
        object.__setattr__(
            self, "amplitude", check_number(self.amplitude, "executor field 'amplitude'")
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExecutorSpec":
        """Parse a spec from a JSON object; ``seed`` and ``amplitude`` may be absent."""
        return cls(**json_fields(
            doc, "executor spec", ("task_id", "name", "action_dim", "horizon"), ("seed", "amplitude")
        ))


@dataclass(frozen=True)
class Observation:
    """What an executor sees: proprioception, an opaque image digest, the text."""

    proprioception: np.ndarray
    image_digest: bytes = b""
    instruction: str = ""

    def __post_init__(self) -> None:
        prop = np.asarray(self.proprioception, dtype=np.float64).reshape(-1)
        if not np.isfinite(prop).all():
            raise ValueError("proprioception must be finite")
        object.__setattr__(self, "proprioception", prop)


@dataclass(frozen=True)
class ActionChunk:
    """A horizon x action_dim block of low-level actions."""

    actions: np.ndarray

    def __post_init__(self) -> None:
        actions = np.asarray(self.actions, dtype=np.float64)
        if actions.ndim != 2:
            raise ValueError("actions must be a 2-D matrix")
        if not np.isfinite(actions).all():
            raise ValueError("actions must be finite")
        object.__setattr__(self, "actions", actions)

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]


class ExecutorRegistry:
    """Immutable-after-construction mapping from task id to executor spec."""

    def __init__(self, specs: Iterable[ExecutorSpec] = ()) -> None:
        self._specs: dict[int, ExecutorSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: ExecutorSpec) -> None:
        if spec.task_id in self._specs:
            raise ValueError(f"task_id {spec.task_id} is already registered")
        self._specs[spec.task_id] = spec

    def lookup(self, task_id: int) -> ExecutorSpec | None:
        """The spec for ``task_id``, or None as the missing-task signal."""
        return self._specs.get(task_id)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._specs

    def __iter__(self) -> Iterator[ExecutorSpec]:
        return iter(self._specs.values())


def execute(spec: ExecutorSpec, observation: Observation) -> ActionChunk:
    """Run the stub policy: a fixed smooth trajectory per (seed, task_id).

    Repeated calls with the same inputs are identical; distinct task ids trace
    distinct paths. The proprioceptive mean shifts the whole chunk slightly so
    the observation is not ignored. The image digest is never interpreted.
    """
    prop = observation.proprioception
    rng = np.random.default_rng([spec.seed, spec.task_id])
    phases = rng.uniform(0.0, 2.0 * np.pi, spec.action_dim)
    freqs = rng.uniform(0.5, 2.5, spec.action_dim)
    t = np.arange(spec.horizon, dtype=np.float64)[:, None] / spec.horizon
    offset = float(prop.mean()) if prop.size else 0.0
    actions = spec.amplitude * np.sin(2.0 * np.pi * freqs[None, :] * t + phases[None, :])
    actions += 0.1 * offset
    return ActionChunk(actions=actions)


def save_manifest(registry: ExecutorRegistry, destination: str | Path) -> None:
    text = json.dumps([spec.to_dict() for spec in registry], indent=2)
    write_atomic(destination, (text + "\n").encode("utf-8"))


def load_manifest(source: str | Path) -> ExecutorRegistry:
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt registry manifest: {exc}") from exc
    if not isinstance(doc, list):
        raise ValueError("registry manifest must be a JSON array")
    return ExecutorRegistry(ExecutorSpec.from_dict(entry) for entry in doc)
