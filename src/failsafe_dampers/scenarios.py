"""Enumeration of damper failure scenarios.

A scenario prescribes a subset of dampers whose damping capacity is
multiplied by a damage factor ``nu`` in [0, 1]; ``nu = 0`` means complete
loss of the device. Scenario 0 is always the no-failure case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import InputError

# Largest scenario set `enumerate_scenarios` builds.
MAX_SCENARIOS = 100_000


@dataclass(frozen=True)
class FailureScenario:
    """A damage pattern: damper indices (0-based) and the damage factor."""

    id: int
    damaged: tuple[int, ...] = ()
    factor: float = 1.0

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"scenario id must be nonnegative, got {self.id}")
        damaged = tuple(sorted(set(int(i) for i in self.damaged)))
        if damaged and damaged[0] < 0:
            raise ValueError(f"damper indices must be nonnegative, got {damaged}")
        object.__setattr__(self, "damaged", damaged)
        if not 0.0 <= self.factor <= 1.0:
            raise ValueError(f"damage factor must lie in [0, 1], got {self.factor}")

    @property
    def is_no_failure(self) -> bool:
        return not self.damaged

    def label(self) -> str:
        """Human-readable tag, damper locations reported 1-based."""
        if self.is_no_failure:
            return "none"
        locs = "+".join(str(i + 1) for i in self.damaged)
        return f"{locs}@nu={self.factor:g}"


def no_failure() -> FailureScenario:
    return FailureScenario(id=0)


@dataclass(frozen=True)
class ScenarioSet:
    """Ordered, densely indexed collection of failure scenarios."""

    scenarios: tuple[FailureScenario, ...]
    n_dampers: int
    n_complete: int = field(init=False)
    n_partial: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios or not self.scenarios[0].is_no_failure:
            raise ValueError("scenario 0 must be the no-failure case")
        for expected, sc in enumerate(self.scenarios):
            if sc.id != expected:
                raise ValueError(
                    f"scenario ids must be dense starting at 0; "
                    f"position {expected} holds id {sc.id}"
                )
            if sc.damaged and sc.damaged[-1] >= self.n_dampers:
                raise ValueError(
                    f"scenario {sc.id} references damper {sc.damaged[-1]} "
                    f"out of range for {self.n_dampers} dampers"
                )
        damaged = [sc for sc in self.scenarios if not sc.is_no_failure]
        object.__setattr__(
            self, "n_complete", sum(1 for sc in damaged if sc.factor == 0.0)
        )
        object.__setattr__(
            self, "n_partial", sum(1 for sc in damaged if sc.factor > 0.0)
        )

    @property
    def n_total(self) -> int:
        """Scenario count including the no-failure case."""
        return len(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def __getitem__(self, idx: int) -> FailureScenario:
        return self.scenarios[idx]


def enumerate_scenarios(
    n_dampers: int,
    complete_group_size: int = 0,
    partial_group_size: int = 0,
    nu: float = 0.5,
) -> ScenarioSet:
    """Build the scenario set for all damage subsets of the given sizes.

    Produces the no-failure scenario, every subset of ``complete_group_size``
    dampers fully failed, and every subset of ``partial_group_size`` dampers
    degraded by ``nu``. Subsets are in lexicographic order so scenario ids
    are stable across runs. A group size of 0 disables that group. A set
    above `MAX_SCENARIOS` raises `InputError`.
    """
    if n_dampers < 1:
        raise ValueError(f"need at least one damper, got {n_dampers}")
    for name, k in (("complete", complete_group_size), ("partial", partial_group_size)):
        if not 0 <= k <= n_dampers:
            raise ValueError(
                f"{name} group size must lie in [0, {n_dampers}], got {k}"
            )
    if partial_group_size and not 0.0 < nu < 1.0:
        raise ValueError(f"partial damage factor must lie in (0, 1), got {nu}")

    n_c = comb(n_dampers, complete_group_size) if complete_group_size else 0
    n_p = comb(n_dampers, partial_group_size) if partial_group_size else 0
    total = 1 + n_c + n_p
    if total > MAX_SCENARIOS:
        raise InputError(
            f"scenario set would hold {total} scenarios, above the cap of "
            f"{MAX_SCENARIOS}; reduce the group sizes"
        )

    scenarios = [no_failure()]
    next_id = 1
    if complete_group_size:
        for subset in combinations(range(n_dampers), complete_group_size):
            scenarios.append(FailureScenario(id=next_id, damaged=subset, factor=0.0))
            next_id += 1
    if partial_group_size:
        for subset in combinations(range(n_dampers), partial_group_size):
            scenarios.append(FailureScenario(id=next_id, damaged=subset, factor=nu))
            next_id += 1
    return ScenarioSet(scenarios=tuple(scenarios), n_dampers=n_dampers)
