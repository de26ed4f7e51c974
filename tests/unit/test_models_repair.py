"""Unit tests for matrix repair."""

import numpy as np
import pytest

from repro.models.matrix import empty_matrix, iid_matrix
from repro.models.registry import get_model
from repro.models.repair import repair_to_satisfy


@pytest.mark.parametrize(
    "model_name", ["ES", "LM", "WLM", "WLM_SIM", "AFM", "GS"]
)
@pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
class TestRepair:
    def test_repaired_matrix_satisfies_model(self, model_name, p):
        rng = np.random.default_rng(11)
        model = get_model(model_name)
        for trial in range(20):
            matrix = iid_matrix(7, p, rng)
            repaired = repair_to_satisfy(matrix, model, leader=3, rng=rng)
            leader = 3 if model.needs_leader else None
            assert model.satisfied(repaired, leader=leader)

    def test_repair_never_removes_links(self, model_name, p):
        rng = np.random.default_rng(13)
        for trial in range(20):
            matrix = iid_matrix(7, p, rng)
            repaired = repair_to_satisfy(matrix, model_name, leader=3, rng=rng)
            assert ((repaired | matrix) == repaired).all()

    def test_input_matrix_unmodified(self, model_name, p):
        rng = np.random.default_rng(17)
        matrix = iid_matrix(7, p, rng)
        copy = matrix.copy()
        repair_to_satisfy(matrix, model_name, leader=3, rng=rng)
        assert (matrix == copy).all()


class TestRepairEdges:
    def test_leader_required_for_leader_models(self):
        with pytest.raises(ValueError):
            repair_to_satisfy(empty_matrix(5), "WLM")
        with pytest.raises(ValueError):
            repair_to_satisfy(empty_matrix(5), "LM")

    @pytest.mark.parametrize("leader", [-1, 5, 9])
    def test_leader_outside_the_system_rejected(self, leader):
        # -1 would otherwise index pid 4 and 5 fail mid-repair.
        with pytest.raises(ValueError, match="out of range"):
            repair_to_satisfy(empty_matrix(5), "WLM", leader=leader)

    def test_es_repair_fills_matrix(self):
        repaired = repair_to_satisfy(empty_matrix(5), "ES")
        assert repaired.all()

    def test_wlm_repair_is_minimal_on_empty_matrix(self):
        # Repairing the identity matrix to WLM should touch only the
        # leader's row and column.
        repaired = repair_to_satisfy(empty_matrix(7), "WLM", leader=2)
        untouched = repaired.copy()
        untouched[:, 2] = False
        untouched[2, :] = False
        np.fill_diagonal(untouched, False)
        assert not untouched.any()

    def test_gs_repair_is_exactly_the_guaranteed_links(self):
        # GS's repair is deterministic: turn on the canonical matrix's
        # guaranteed links, nothing else.
        from repro.models.properties import (
            canonical_granular_assumptions,
            granular_guaranteed,
        )

        repaired = repair_to_satisfy(empty_matrix(8), "GS")
        guaranteed = granular_guaranteed(canonical_granular_assumptions(8))
        assert (repaired == guaranteed).all()

    def test_gs_repair_respects_the_correct_set(self):
        # Only links between correct processes are forced; a crashed
        # node's row and column stay as sampled.
        repaired = repair_to_satisfy(
            empty_matrix(8), "GS", correct=range(1, 8)
        )
        off_diagonal = ~np.eye(8, dtype=bool)
        assert not repaired[0, :][off_diagonal[0]].any()
        assert not repaired[:, 0][off_diagonal[:, 0]].any()
        assert get_model("GS").satisfied(repaired, correct=range(1, 8))

    def test_already_satisfying_matrix_unchanged_for_wlm(self):
        m = empty_matrix(5)
        m[:, 0] = True
        m[0, 1] = True
        m[0, 2] = True
        repaired = repair_to_satisfy(m, "WLM", leader=0)
        assert (repaired == m).all()


class TestDefaultRngSeeding:
    """The default rng must be derived from the call's content, not a
    fixed ``default_rng(0)`` — which repaired every matrix of a sweep
    with the *same* link choices (regression: these tests fail pre-fix).
    """

    def test_identical_calls_reproduce(self):
        rng = np.random.default_rng(3)
        matrix = iid_matrix(9, 0.3, rng)
        first = repair_to_satisfy(matrix, "AFM")
        second = repair_to_satisfy(matrix, "AFM")
        assert (first == second).all()

    def test_distinct_matrices_decorrelate(self):
        # Six matrices identical in the repaired region (the leader's
        # row): with the old fixed seed every variant got the exact same
        # forced links; content-derived seeds must differ.
        repaired_rows = set()
        for k in range(6):
            matrix = empty_matrix(9)
            matrix[8, k] = True  # six distinct contents, away from row 2
            repaired = repair_to_satisfy(matrix, "WLM", leader=2)
            assert get_model("WLM").satisfied(repaired, leader=2)
            repaired_rows.add(tuple(repaired[2]))
        assert len(repaired_rows) > 1

    def test_model_is_part_of_the_seed(self):
        matrix = empty_matrix(9)
        lm = repair_to_satisfy(matrix, "LM", leader=2)
        wlm = repair_to_satisfy(matrix, "WLM", leader=2)
        # Both repair leader row 2 to a majority; seeds differing by
        # model keep the choices independent (equality possible but
        # wildly unlikely across the 8-choose-4 possibilities... and
        # pinned by the fixed hash, so this is deterministic, not flaky).
        assert tuple(lm[2]) != tuple(wlm[2])

    def test_explicit_rng_still_wins(self):
        rng = np.random.default_rng(5)
        matrix = iid_matrix(9, 0.2, rng)
        a = repair_to_satisfy(matrix, "AFM", rng=np.random.default_rng(7))
        b = repair_to_satisfy(matrix, "AFM", rng=np.random.default_rng(7))
        assert (a == b).all()
