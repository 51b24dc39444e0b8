"""Case generator: determinism, legality, and coverage of the config space."""

import numpy as np
import pytest

from repro.conformance import ConformanceCase, generate_cases
from repro.conformance.cases import parse_dist

CASES = generate_cases(seed=11, n=150)


class TestDeterminism:
    def test_same_seed_same_cases(self):
        again = generate_cases(seed=11, n=150)
        assert [c.to_dict() for c in again] == [c.to_dict() for c in CASES]

    def test_prefix_stability(self):
        # The first k cases of a stream never depend on how many are drawn
        # after them — corpus entries cite (seed, index) pairs.
        assert [c.to_dict() for c in generate_cases(seed=11, n=30)] == [
            c.to_dict() for c in CASES[:30]
        ]

    def test_different_seeds_differ(self):
        other = generate_cases(seed=12, n=150)
        assert [c.to_dict() for c in other] != [c.to_dict() for c in CASES]

    def test_inputs_are_pure_functions_of_the_case(self):
        case = CASES[0]
        assert np.array_equal(case.make_mask(), case.make_mask())
        assert np.array_equal(case.make_array("array"), case.make_array("array"))


class TestLegality:
    def test_every_case_is_normalized(self):
        # pad is forced on whenever the shape violates P*W | N, so every
        # drawn case is runnable without further fixing.
        for case in CASES:
            assert case.pad or case.divisible(), case.describe()

    def test_machine_bounds(self):
        for case in CASES:
            assert 1 <= case.nprocs <= 16
            assert int(np.prod([max(n, 1) for n in case.shape])) <= 4096

    def test_dist_specs_parse(self):
        for case in CASES:
            for spec in case.dist:
                parse_dist(spec)  # must not raise

    def test_ctrl_prs_only_on_cm5(self):
        # The ctrl PRS algorithm needs the CM-5 control network.
        for case in CASES:
            if case.prs == "ctrl":
                assert case.machine == "cm5", case.describe()


class TestCoverage:
    """150 draws must visit the corners the fuzzer exists to reach."""

    def test_all_ops_drawn(self):
        assert {c.op for c in CASES} == {
            "pack", "unpack", "pack_vector", "roundtrip", "ranking"
        }

    def test_zero_extents_drawn(self):
        assert any(0 in c.shape for c in CASES)

    def test_degenerate_masks_drawn(self):
        kinds = {c.mask_kind for c in CASES}
        assert {"all_false", "all_true"} <= kinds
        densities = {c.density for c in CASES if c.mask_kind == "random"}
        assert 0.0 in densities and 1.0 in densities

    def test_all_dist_kinds_drawn(self):
        seen = {spec for c in CASES for spec in c.dist}
        assert "block" in seen and "cyclic" in seen
        assert any(s.startswith("cyclic(") for s in seen)

    def test_multidimensional_cases_drawn(self):
        assert {c.d for c in CASES} == {1, 2, 3}

    def test_ragged_result_layouts_drawn(self):
        assert any(c.result_block is not None for c in CASES)

    def test_mixed_dtype_unpacks_drawn(self):
        assert any(
            c.field_dtype is not None and c.field_dtype != c.dtype
            for c in CASES
        )


class TestSerialization:
    @pytest.mark.parametrize("case", CASES[:20], ids=range(20))
    def test_roundtrip(self, case):
        assert ConformanceCase.from_dict(case.to_dict()) == case

    def test_unknown_fields_rejected(self):
        data = CASES[0].to_dict()
        data["no_such_knob"] = 1
        with pytest.raises(ValueError, match="no_such_knob"):
            ConformanceCase.from_dict(data)

    def test_snippet_mentions_the_case(self):
        snippet = CASES[0].snippet()
        assert "ConformanceCase.from_dict(" in snippet
        assert "run_case" in snippet
