"""Distilled tuning policies: enumerated winners, keyed for deployment.

The gym's output is a *policy*: for every (hardware, system size, batch
size, scenario) cell, the exact argmin of the cost model over the
scenario's space — or the hand-rule baseline when the argmin is not
strictly cheaper, so a policy is never worse than the rules it replaces.
The policy serialises to ``best_configs.json`` and
:func:`repro.gpu.tuning.tune_for_matrix` consults it (``policy=...``)
before falling back to the hand rules, so a production run can ship the
JSON artifact without re-pricing anything.  A loaded file is outside
input: its format tag, its cell keys and every entry's config are checked
before any of it is applied.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field

from .env import CostModelEnv, TuneScenario, exhaustive_best
from .space import TuneConfig, space_for_scenario

__all__ = [
    "POLICY_FORMAT",
    "PolicyEntry",
    "TuningPolicy",
    "baseline_config",
    "distill_policy",
]

#: Format tag of a ``best_configs.json`` policy file.
POLICY_FORMAT = "repro-tuning-policy-v1"


def baseline_config(hw, scenario: TuneScenario, num_batch: int) -> TuneConfig:
    """Map the hand rules' decision for a scenario cell into the space.

    Runs :func:`repro.gpu.tuning.tune_batched_solver` on the scenario's
    pattern statistics and lifts the decision into a :class:`TuneConfig`:
    the hand-rule format and solver variant, fp64 (the hand rules never
    drop precision), the hardware's default residency target, compaction
    off.  :func:`distill_policy` falls back to this config whenever the
    enumerated argmin is not strictly cheaper.
    """
    from ..gpu.tuning import tune_batched_solver

    decision = tune_batched_solver(
        hw, scenario.num_rows, scenario.nnz_row_min, scenario.nnz_row_max,
        solver="bicgstab",
        value_bytes=8,
        padding_fraction=scenario.padding_fraction,
        num_diags=scenario.num_diags or None,
        dia_padding_fraction=scenario.dia_padding_fraction,
        num_batch=num_batch,
    )
    return TuneConfig(
        solver=decision.solver_variant or "bicgstab",
        fmt=decision.fmt,
        precision="fp64",
        target_blocks_per_cu=hw.target_blocks_per_cu,
    )


@dataclass(frozen=True)
class PolicyEntry:
    """One distilled cell: the recorded config plus its audited costs.

    ``cost``/``baseline_cost`` are the modelled batch wall-clocks of the
    recorded config and of the hand-rule baseline (same environment, same
    cost model) — kept in the artifact so a reader can audit each cell.
    """

    hardware: str
    num_rows: int
    num_batch: int
    scenario: str
    config: TuneConfig
    cost: float
    baseline_cost: float

    def to_dict(self) -> dict:
        return {
            "hardware": self.hardware,
            "num_rows": int(self.num_rows),
            "num_batch": int(self.num_batch),
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "cost": float(self.cost),
            "baseline_cost": float(self.baseline_cost),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyEntry":
        return cls(
            hardware=data["hardware"],
            num_rows=int(data["num_rows"]),
            num_batch=int(data["num_batch"]),
            scenario=data["scenario"],
            config=TuneConfig.from_dict(data["config"]),
            cost=float(data["cost"]),
            baseline_cost=float(data["baseline_cost"]),
        )


@dataclass
class TuningPolicy:
    """Lookup table of enumerated winners, JSON round-trippable."""

    entries: dict = field(default_factory=dict)

    @staticmethod
    def key_for(hardware: str, num_rows: int, num_batch: int,
                scenario: str) -> str:
        """Stable cell key: ``"<hw>|n<rows>|b<batch>|<scenario>"``."""
        return f"{hardware}|n{int(num_rows)}|b{int(num_batch)}|{scenario}"

    def add(self, entry: PolicyEntry) -> None:
        self.entries[self.key_for(
            entry.hardware, entry.num_rows, entry.num_batch,
            entry.scenario)] = entry

    def lookup(self, hardware: str, num_rows: int, num_batch: int,
               scenario: str) -> TuneConfig | None:
        """The recorded config for a cell, or ``None`` (→ hand rules)."""
        entry = self.entries.get(
            self.key_for(hardware, num_rows, num_batch, scenario))
        return None if entry is None else entry.config

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "format": POLICY_FORMAT,
            "entries": {k: e.to_dict() for k, e in sorted(
                self.entries.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TuningPolicy":
        """Parse and validate a policy; ``ValueError`` on a bad file.

        The ``"format"`` tag must be :data:`POLICY_FORMAT`, each entry
        must sit under its own cell key, and each config must lie in its
        scenario's space — otherwise ``tune_for_matrix`` would apply a
        solver, format or threshold the scenario was never priced for.
        """
        tag = data.get("format") if isinstance(data, dict) else None
        if tag != POLICY_FORMAT:
            raise ValueError(
                f"not a tuning policy: format tag {tag!r}, expected "
                f"{POLICY_FORMAT!r}"
            )
        policy = cls()
        for key, raw in data.get("entries", {}).items():
            try:
                entry = PolicyEntry.from_dict(raw)
                space = space_for_scenario(entry.scenario)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"policy entry {key!r} is malformed: {exc!r}") from None
            if not space.is_valid(entry.config):
                raise ValueError(
                    f"policy entry {key!r}: {entry.config} is not a valid "
                    f"{entry.scenario!r} configuration"
                )
            cell = cls.key_for(entry.hardware, entry.num_rows,
                               entry.num_batch, entry.scenario)
            if key != cell:
                raise ValueError(
                    f"policy entry {key!r} describes cell {cell!r}")
            policy.entries[key] = entry
        return policy

    def save(self, path) -> None:
        """Write the policy as ``best_configs.json``-style JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TuningPolicy":
        """Read and validate a policy file (see :meth:`from_dict`)."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def distill_policy(hardware, scenario: TuneScenario,
                   batch_sizes) -> TuningPolicy:
    """Enumerate every (GPU, batch) cell and distill the winners.

    ``hardware`` is an iterable of :class:`~repro.gpu.hardware.GpuSpec`.
    Each cell records :func:`~repro.tune.env.exhaustive_best`'s config
    when it is strictly cheaper than :func:`baseline_config`, and the
    hand-rule config otherwise, so the policy is deterministic and never
    loses to the hand rules.
    """
    space = space_for_scenario(scenario)
    policy = TuningPolicy()
    for hw in hardware:
        for num_batch in batch_sizes:
            env = CostModelEnv(hw, scenario, int(num_batch))
            base = baseline_config(hw, scenario, int(num_batch))
            base_cost = env.evaluate(base)
            config, cost = exhaustive_best(env, space)
            if not cost < base_cost:
                config, cost = base, base_cost
            policy.add(PolicyEntry(
                hardware=hw.name,
                num_rows=scenario.num_rows,
                num_batch=int(num_batch),
                scenario=scenario.name,
                config=config,
                cost=cost,
                baseline_cost=base_cost,
            ))
    return policy
