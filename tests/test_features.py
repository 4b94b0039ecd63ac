import math

import numpy as np
import pytest

from steinerkit.features import (
    feature_scale,
    knn_features,
    terminal_distance_matrix,
)
from steinerkit.graph import StpInstance, WeightedGraph

# Hand-checked: distances from every vertex to terminals {0, 3}.
FIXTURE_EDGES = [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 5.0), (2, 3, 1.0)]
FIXTURE_TABLE = [[0.0, 4.0], [1.0, 3.0], [3.0, 1.0], [4.0, 0.0]]


@pytest.fixture
def inst():
    return StpInstance(graph=WeightedGraph(4, FIXTURE_EDGES),
                       terminals=frozenset({0, 3}))


def test_distance_matrix_matches_hand_calc(inst):
    table = terminal_distance_matrix(inst)
    assert table.shape == (4, 2)
    assert np.array_equal(table, FIXTURE_TABLE)


def test_distance_matrix_columns_follow_ascending_terminals():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    inst = StpInstance(graph=g, terminals=frozenset({2, 0}))
    table = terminal_distance_matrix(inst)
    assert table[0, 0] == 0.0 and table[0, 1] == 5.0  # column 0 is terminal 0


def test_feature_scale_is_max_finite_entry(inst):
    assert feature_scale(terminal_distance_matrix(inst)) == 4.0


def test_feature_scale_ignores_inf_and_falls_back():
    assert feature_scale(np.array([[1.0, math.inf], [3.0, 2.0]])) == 3.0
    assert feature_scale(np.array([[math.inf]])) == 1.0
    assert feature_scale(np.zeros((2, 2))) == 1.0


def test_knn_rows_sorted_ascending(inst):
    table = terminal_distance_matrix(inst)
    feats = knn_features(table, [True, True], k=2)
    assert np.array_equal(feats, [[0, 4], [1, 3], [1, 3], [0, 4]])


def test_knn_respects_active_mask(inst):
    table = terminal_distance_matrix(inst)
    feats = knn_features(table, [False, True], k=2)
    # only terminal 3 contributes; second slot zero-filled
    assert np.array_equal(feats, [[4, 0], [3, 0], [1, 0], [0, 0]])


def test_knn_empty_active_set_gives_zero_rows(inst):
    table = terminal_distance_matrix(inst)
    feats = knn_features(table, [False, False], k=2)
    assert not feats.any()


def test_knn_drops_nonfinite_candidates():
    table = np.array([[math.inf, 2.0], [1.0, math.inf], [math.inf, math.inf]])
    feats = knn_features(table, [True, True], k=2)
    assert np.array_equal(feats, [[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


def test_knn_k_larger_than_terminal_count(inst):
    table = terminal_distance_matrix(inst)
    feats = knn_features(table, [True, True], k=5)
    assert feats.shape == (4, 5)
    assert np.array_equal(feats[1], [1, 3, 0, 0, 0])


def test_knn_validates_arguments(inst):
    table = terminal_distance_matrix(inst)
    with pytest.raises(ValueError, match="k must be"):
        knn_features(table, [True, True], k=0)
    with pytest.raises(ValueError, match="active_mask length"):
        knn_features(table, [True], k=1)

