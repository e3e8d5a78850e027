"""Tests for LeidenConfig and the paper's variants."""

import pytest

from repro.core.config import LeidenConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_paper_defaults(self):
        cfg = LeidenConfig()
        assert cfg.tolerance == 0.01
        assert cfg.tolerance_drop == 10.0
        assert cfg.aggregation_tolerance == 0.8
        assert cfg.max_iterations == 20
        assert cfg.max_passes == 10
        assert cfg.refinement == "greedy"
        assert cfg.vertex_label == "move"
        assert cfg.threshold_scaling
        assert cfg.refine_guard == "cas"

    def test_hashable(self):
        assert hash(LeidenConfig()) == hash(LeidenConfig())
        assert LeidenConfig() != LeidenConfig(seed=1)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tolerance": -1.0},
        {"tolerance_drop": 1.0},
        {"strict_tolerance": -1e-9},
        {"aggregation_tolerance": 0.0},
        {"aggregation_tolerance": 1.5},
        {"max_iterations": 0},
        {"max_passes": 0},
        {"refinement": "hybrid"},
        {"vertex_label": "both"},
        {"engine": "gpu"},
        {"engine": "threads"},
        {"engine": "BATCH"},
        {"batch_size": 0},
        {"resolution": 0.0},
        {"refine_guard": "lock"},
        # Non-finite floats: every ``<``/``<=`` check is false for NaN.
        {"tolerance": float("nan")},
        {"tolerance": float("inf")},
        {"tolerance_drop": float("nan")},
        {"tolerance_drop": float("inf")},
        {"strict_tolerance": float("nan")},
        {"strict_tolerance": float("inf")},
        {"resolution": float("nan")},
        {"resolution": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            LeidenConfig(**kwargs)

    def test_aggregation_tolerance_none_allowed(self):
        assert LeidenConfig(aggregation_tolerance=None).aggregation_tolerance is None

    @pytest.mark.parametrize("kwargs", [
        {"relabel": "community"},
        {"vertex_order": "degree"},
    ])
    def test_retired_fields_rejected(self, kwargs):
        with pytest.raises(TypeError):
            LeidenConfig(**kwargs)


class TestVariants:
    def test_default_variant(self):
        cfg = LeidenConfig.variant("default")
        assert cfg.threshold_scaling
        assert cfg.aggregation_tolerance == 0.8

    def test_medium_disables_threshold_scaling(self):
        cfg = LeidenConfig.variant("medium")
        assert not cfg.threshold_scaling
        assert cfg.aggregation_tolerance == 0.8

    def test_heavy_disables_both(self):
        cfg = LeidenConfig.variant("heavy")
        assert not cfg.threshold_scaling
        assert cfg.aggregation_tolerance is None

    def test_variant_with_overrides(self):
        cfg = LeidenConfig.variant("medium", refinement="random")
        assert cfg.refinement == "random"

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            LeidenConfig.variant("extreme")


class TestTolerance:
    def test_initial_with_scaling(self):
        assert LeidenConfig().initial_tolerance() == 0.01

    def test_initial_without_scaling(self):
        cfg = LeidenConfig(threshold_scaling=False, strict_tolerance=1e-7)
        assert cfg.initial_tolerance() == 1e-7

    def test_next_tolerance_drops(self):
        cfg = LeidenConfig()
        assert cfg.next_tolerance(0.01) == pytest.approx(0.001)

    def test_next_tolerance_fixed_without_scaling(self):
        cfg = LeidenConfig(threshold_scaling=False)
        assert cfg.next_tolerance(1e-6) == 1e-6

    def test_with_(self):
        cfg = LeidenConfig().with_(seed=99)
        assert cfg.seed == 99
        assert cfg.tolerance == 0.01
