"""Scenario enumeration: counts, ordering, caps."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe_dampers import FailureScenario, InputError, enumerate_scenarios
from failsafe_dampers.model import damper_scales
from failsafe_dampers.scenarios import ScenarioSet, no_failure

from conftest import shear_frame


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: FailureScenario(id=-1), "scenario id must be nonnegative, got -1"),
        (
            lambda: FailureScenario(id=1, damaged=(-1, 2)),
            r"damper indices must be nonnegative, got \(-1, 2\)",
        ),
        (
            lambda: ScenarioSet((no_failure(), FailureScenario(id=1, damaged=(3,))), n_dampers=3),
            "scenario 1 references damper 3 out of range for 3 dampers",
        ),
        (lambda: enumerate_scenarios(0), "need at least one damper, got 0"),
    ],
    ids=["negative-id", "negative-damper", "damper-out-of-range", "no-dampers"],
)
def test_malformed_argument_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestFailureScenario:
    def test_factor_bounds(self):
        with pytest.raises(ValueError):
            FailureScenario(id=1, damaged=(0,), factor=1.5)
        with pytest.raises(ValueError):
            FailureScenario(id=1, damaged=(0,), factor=-0.1)

    def test_damaged_sorted_and_deduplicated(self):
        sc = FailureScenario(id=1, damaged=(3, 1, 3), factor=0.0)
        assert sc.damaged == (1, 3)

    def test_scale_vector(self):
        # A scenario's capacity multipliers come from `damper_scales` alone.
        sc = FailureScenario(id=1, damaged=(0, 2), factor=0.5)
        assert np.array_equal(damper_scales(shear_frame(4), sc), [0.5, 1.0, 0.5, 1.0])
        message = "scenario 1 damages damper 2, but the model has only 2 dampers"
        with pytest.raises(ValueError, match=message):
            damper_scales(shear_frame(2), sc)


class TestEnumerate:
    def test_published_counts_16_dampers(self):
        # singles complete and pairs partial over 16 devices
        ss = enumerate_scenarios(16, complete_group_size=1, partial_group_size=2, nu=0.5)
        assert ss.n_complete == 16
        assert ss.n_partial == 120
        assert ss.n_total == 137

    def test_no_failure_scenario_is_first(self):
        ss = enumerate_scenarios(4, 1, 0)
        assert ss[0].is_no_failure
        assert ss[0].id == 0

    def test_lexicographic_ordering(self):
        ss = enumerate_scenarios(4, 0, 2, nu=0.5)
        pairs = [sc.damaged for sc in ss if sc.damaged]
        assert pairs == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_enumeration_is_pure(self):
        a = enumerate_scenarios(6, 2, 1, nu=0.3)
        b = enumerate_scenarios(6, 2, 1, nu=0.3)
        assert [sc.damaged for sc in a] == [sc.damaged for sc in b]
        assert [sc.factor for sc in a] == [sc.factor for sc in b]

    def test_cap_guards_combinatorial_blowup(self):
        with pytest.raises(InputError, match="cap"):
            enumerate_scenarios(40, complete_group_size=20)

    def test_partial_nu_must_be_interior(self):
        with pytest.raises(ValueError):
            enumerate_scenarios(4, 0, 2, nu=0.0)
        with pytest.raises(ValueError):
            enumerate_scenarios(4, 0, 2, nu=1.0)

    @given(
        n=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_formula(self, n, data):
        kc = data.draw(st.integers(min_value=1, max_value=n))
        kp = data.draw(st.integers(min_value=1, max_value=n))
        ss = enumerate_scenarios(n, kc, kp, nu=0.5)
        assert len(ss) == 1 + comb(n, kc) + comb(n, kp)
        assert [sc.id for sc in ss] == list(range(len(ss)))


class TestScenarioSet:
    def test_dense_ids_required(self):
        with pytest.raises(ValueError, match="dense"):
            ScenarioSet(
                scenarios=(no_failure(), FailureScenario(id=2, damaged=(0,), factor=0.0)),
                n_dampers=2,
            )

    def test_first_must_be_no_failure(self):
        with pytest.raises(ValueError, match="no-failure"):
            ScenarioSet(
                scenarios=(FailureScenario(id=0, damaged=(0,), factor=0.0),),
                n_dampers=2,
            )
