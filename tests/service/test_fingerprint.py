"""Tests for the content hashes keying the partition store."""

import numpy as np

from repro.core.config import LeidenConfig
from repro.dynamic.batch import EdgeBatch, apply_batch
from repro.service.fingerprint import (
    config_fingerprint,
    graph_fingerprint,
    membership_fingerprint,
    partition_key,
)
from tests.conftest import two_cliques_graph


class TestGraphFingerprint:
    def test_same_content_same_hash(self):
        assert (graph_fingerprint(two_cliques_graph())
                == graph_fingerprint(two_cliques_graph()))

    def test_different_content_different_hash(self, two_cliques):
        other = apply_batch(two_cliques,
                            EdgeBatch.from_edges([(0, 7)]))
        assert graph_fingerprint(two_cliques) != graph_fingerprint(other)

    def test_cached_on_graph(self, two_cliques):
        assert two_cliques.fingerprint() is two_cliques.fingerprint()

    def test_holey_graph_hashes_compacted(self):
        """A holey CSR hashes its compacted form, so content equality
        holds across storage layouts (the digest ignores row slack)."""
        from repro.graph.csr import CSRGraph

        dense = CSRGraph([0, 1, 2], [1, 0], [1.0, 1.0])
        holey = CSRGraph([0, 2, 4], [1, 0, 0, 0], [1.0, 9.0, 1.0, 9.0],
                         degrees=[1, 1])
        assert holey.is_holey
        assert graph_fingerprint(holey) == graph_fingerprint(dense)


class TestConfigFingerprint:
    def test_default_equals_none(self):
        assert config_fingerprint(None) == config_fingerprint(LeidenConfig())

    def test_field_sensitivity(self):
        assert (config_fingerprint(LeidenConfig(seed=1))
                != config_fingerprint(LeidenConfig(seed=2)))

    def test_pinned_digests(self):
        """Store keys persist across releases: deleting or adding a
        defaulted field must not rotate these digests."""
        assert config_fingerprint(LeidenConfig()) == "01e7b720ff566d53"
        assert config_fingerprint(LeidenConfig(seed=3)) == "0eb3a9f9854b50da"
        cfg = LeidenConfig(engine="process", refinement="random",
                           quality="cpm", resolution=0.5, max_passes=4,
                           batch_size=1024, vertex_pruning=False)
        assert config_fingerprint(cfg) == "be201894b7d5ff0c"


class TestPartitionKey:
    def test_composed(self, two_cliques):
        key = partition_key(two_cliques, LeidenConfig(seed=3))
        assert key.startswith(graph_fingerprint(two_cliques) + ":")
        assert key.endswith(config_fingerprint(LeidenConfig(seed=3)))

    def test_config_distinguishes(self, two_cliques):
        assert (partition_key(two_cliques, LeidenConfig(seed=1))
                != partition_key(two_cliques, LeidenConfig(seed=2)))


class TestMembershipFingerprint:
    def test_content_hash(self):
        a = membership_fingerprint(np.array([0, 0, 1, 1]))
        b = membership_fingerprint([0, 0, 1, 1])
        c = membership_fingerprint([0, 1, 1, 0])
        assert a == b
        assert a != c
