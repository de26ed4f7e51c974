"""Unit tests for the timing-model predicates."""

import pytest

from repro.models.matrix import empty_matrix, full_matrix, majority
from repro.models.properties import (
    is_j_destination,
    is_j_source,
    satisfies_afm,
    satisfies_es,
    satisfies_lm,
    satisfies_wlm,
)


def matrix_with(n, entries):
    """Identity plus the given (dst, src) entries."""
    m = empty_matrix(n)
    for dst, src in entries:
        m[dst, src] = True
    return m


class TestJSource:
    def test_self_link_counts(self):
        # Footnote 1: p's link with itself counts toward j.
        assert is_j_source(empty_matrix(4), 0, 1)
        assert not is_j_source(empty_matrix(4), 0, 2)

    def test_column_orientation(self):
        m = matrix_with(4, [(1, 0), (2, 0)])
        assert is_j_source(m, 0, 3)
        assert not is_j_source(m, 1, 2)


class TestJDestination:
    def test_row_orientation(self):
        m = matrix_with(4, [(0, 1), (0, 2)])
        assert is_j_destination(m, 0, 3)
        assert not is_j_destination(m, 1, 2)

    def test_correct_filter_excludes_faulty_senders(self):
        m = matrix_with(4, [(0, 1), (0, 2)])
        assert is_j_destination(m, 0, 3, correct=[0, 1, 2])
        assert not is_j_destination(m, 0, 3, correct=[0, 1])

    def test_bad_correct_set_rejected(self):
        with pytest.raises(ValueError):
            is_j_destination(empty_matrix(3), 0, 1, correct=[5])
        with pytest.raises(ValueError):
            is_j_destination(empty_matrix(3), 0, 1, correct=[])


class TestES:
    def test_full_matrix_satisfies(self):
        assert satisfies_es(full_matrix(5))

    def test_single_missing_link_fails(self):
        m = full_matrix(5)
        m[3, 1] = False
        assert not satisfies_es(m)

    def test_links_of_faulty_processes_ignored(self):
        m = full_matrix(5)
        m[3, 1] = False
        assert satisfies_es(m, correct=[0, 2, 3, 4])  # 1 is faulty


class TestLM:
    def test_requires_leader_column_full(self):
        n = 5
        m = full_matrix(n)
        m[4, 2] = False  # leader 2 fails to reach 4
        assert not satisfies_lm(m, leader=2)
        assert satisfies_lm(m, leader=0)  # a different leader is fine

    def test_requires_every_row_majority(self):
        n = 5
        m = full_matrix(n)
        m[3, :] = False
        m[3, 3] = True
        m[3, 2] = True  # row 3 now has 2 entries < majority(5) = 3
        assert not satisfies_lm(m, leader=2)
        m[3, 0] = True  # now 3 entries = majority
        assert satisfies_lm(m, leader=2)

    def test_minimal_lm_matrix(self):
        n = 5
        m = empty_matrix(n)
        m[:, 0] = True  # leader 0 n-source
        for row in range(n):
            m[row, (row + 1) % n] = True
            m[row, (row + 2) % n] = True
        assert satisfies_lm(m, leader=0)


class TestWLM:
    def test_only_leader_links_matter(self):
        n = 5
        m = empty_matrix(n)
        m[:, 1] = True  # leader 1 reaches everyone
        m[1, 2] = True
        m[1, 3] = True  # leader hears from {1,2,3} = majority
        assert satisfies_wlm(m, leader=1)
        # Everything else can be dead — WLM does not care.
        assert not satisfies_lm(m, leader=1)
        assert not satisfies_afm(m)
        assert not satisfies_es(m)

    def test_leader_missing_one_outgoing_fails(self):
        n = 5
        m = full_matrix(n)
        m[4, 1] = False
        assert not satisfies_wlm(m, leader=1)

    def test_leader_below_majority_incoming_fails(self):
        n = 5
        m = full_matrix(n)
        m[1, :] = False
        m[1, 1] = True
        m[1, 0] = True  # only 2 < 3
        assert not satisfies_wlm(m, leader=1)


class TestAFM:
    def test_full_matrix_satisfies(self):
        assert satisfies_afm(full_matrix(4))

    def test_one_bad_column_fails(self):
        # A process whose messages reach less than a majority kills AFM —
        # the China-egress effect of the WAN measurements.
        n = 8
        m = full_matrix(n)
        m[:, 4] = False
        m[4, 4] = True
        m[0, 4] = True  # reaches 2 < 5
        assert not satisfies_afm(m)
        assert satisfies_lm(m, leader=6)  # LM doesn't care about column 4

    def test_one_bad_row_fails(self):
        n = 8
        m = full_matrix(n)
        m[5, :] = False
        m[5, 5] = True
        m[5, 6] = True
        assert not satisfies_afm(m)

    def test_exact_majorities_pass(self):
        n = 4
        maj = majority(n)  # 3
        m = empty_matrix(n)
        for i in range(n):
            for step in range(1, maj):
                m[i, (i + step) % n] = True
        # Each row has maj entries; columns symmetric.
        assert satisfies_afm(m)
