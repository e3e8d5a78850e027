"""Tests for deep CSR validation."""

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph.csr import CSRGraph
from repro.graph.validate import validate_csr


class TestValidate:
    def test_accepts_symmetric(self, two_cliques):
        validate_csr(two_cliques)

    def test_rejects_asymmetric(self):
        g = CSRGraph.from_coo([0], [1], num_vertices=2)
        with pytest.raises(GraphStructureError):
            validate_csr(g)

    def test_asymmetric_ok_when_not_required(self):
        g = CSRGraph.from_coo([0], [1], num_vertices=2)
        validate_csr(g, require_symmetric=False)

    def test_rejects_zero_weight(self):
        g = CSRGraph.from_coo([0, 1], [1, 0], [0.0, 0.0])
        with pytest.raises(GraphStructureError):
            validate_csr(g)

    def test_zero_weight_ok_when_allowed(self):
        g = CSRGraph.from_coo([0, 1], [1, 0], [0.0, 0.0])
        validate_csr(g, require_positive_weights=False)

    def test_rejects_nan_weight(self):
        g = CSRGraph.from_coo([0, 1], [1, 0], [np.nan, np.nan])
        with pytest.raises(GraphStructureError):
            validate_csr(g, require_positive_weights=False)

    def test_rejects_asymmetric_weights(self):
        g = CSRGraph.from_coo([0, 1], [1, 0], [1.0, 2.0])
        with pytest.raises(GraphStructureError):
            validate_csr(g)

    def test_self_loops_fine(self):
        g = CSRGraph.from_coo([0], [0], [2.0])
        validate_csr(g)
