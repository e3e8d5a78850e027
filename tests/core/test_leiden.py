"""End-to-end tests for the Leiden driver (Algorithm 1)."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.louvain import louvain
from repro.core.result import ALL_PHASES
from repro.datasets.registry import load_graph
from repro.datasets.sbm import planted_partition
from repro.errors import GraphStructureError
from repro.metrics.comparison import adjusted_rand_index
from repro.metrics.connectivity import disconnected_communities
from repro.metrics.modularity import modularity
from repro.observability.profiler import timeline, to_chrome_trace
from repro.observability.recorder import Recorder
from repro.observability.tracer import trace_doc
from repro.parallel.runtime import Runtime
from tests.conftest import (
    path_graph,
    random_graph,
    ring_of_cliques_graph,
    signed_zero_weights,
    two_cliques_graph,
)


class TestBasicCorrectness:
    @pytest.mark.parametrize("engine", ["batch", "loop"])
    @pytest.mark.parametrize("refinement", ["greedy", "random"])
    def test_two_cliques(self, engine, refinement):
        g = two_cliques_graph()
        res = leiden(g, LeidenConfig(engine=engine, refinement=refinement))
        C = res.membership
        assert len(np.unique(C)) == 2
        assert len(np.unique(C[:5])) == 1
        assert len(np.unique(C[5:])) == 1

    def test_ring_of_cliques(self):
        g = ring_of_cliques_graph(6, 5)
        res = leiden(g)
        assert res.num_communities == 6

    def test_membership_compact_ids(self):
        g = random_graph(n=80, avg_degree=6, seed=1)
        res = leiden(g)
        C = res.membership
        assert C.min() == 0
        assert len(np.unique(C)) == C.max() + 1

    def test_recovers_planted_partition(self):
        g, planted = planted_partition(8, 30, intra_degree=12,
                                       inter_degree=2, seed=3)
        res = leiden(g)
        assert adjusted_rand_index(res.membership, planted) > 0.95

    def test_no_disconnected_communities(self):
        for seed in range(3):
            g = random_graph(n=150, avg_degree=5, seed=seed)
            res = leiden(g, LeidenConfig(seed=seed))
            report = disconnected_communities(g, res.membership)
            assert report.num_disconnected == 0, f"seed {seed}"

    def test_beats_singletons_and_single_community(self):
        g = random_graph(n=100, avg_degree=8, seed=7)
        res = leiden(g)
        q = modularity(g, res.membership)
        assert q > modularity(g, np.zeros(g.num_vertices, dtype=np.int32))
        assert q > modularity(g, np.arange(g.num_vertices, dtype=np.int32))

    def test_deterministic_given_seed(self):
        g = random_graph(n=80, avg_degree=6, seed=2)
        a = leiden(g, LeidenConfig(seed=11))
        b = leiden(g, LeidenConfig(seed=11))
        assert np.array_equal(a.membership, b.membership)

    def test_path_graph_contiguous_communities(self):
        g = path_graph(40)
        res = leiden(g)
        C = res.membership
        # communities on a path must be contiguous runs
        changes = np.flatnonzero(C[1:] != C[:-1])
        assert len(np.unique(C)) == changes.shape[0] + 1


class TestEdgeCases:
    def test_empty_graph(self):
        from repro.graph.csr import empty_csr
        res = leiden(empty_csr(0))
        assert res.membership.shape == (0,)

    def test_edgeless_vertices(self):
        from repro.graph.csr import empty_csr
        res = leiden(empty_csr(5))
        assert res.membership.shape == (5,)
        assert res.num_communities == 5

    def test_single_edge(self):
        from repro.graph.builder import build_csr_from_edges
        g = build_csr_from_edges([0], [1])
        res = leiden(g)
        assert res.num_communities == 1

    def test_self_loop_only(self):
        from repro.graph.builder import build_csr_from_edges
        g = build_csr_from_edges([0], [0])
        res = leiden(g)
        assert res.num_communities == 1

    def test_max_passes_respected(self):
        g = random_graph(n=100, avg_degree=4, seed=5)
        res = leiden(g, LeidenConfig(max_passes=1))
        assert res.num_passes == 1


class TestVariantsAndLabels:
    def test_refine_based_labels_finer_or_equal(self):
        g = random_graph(n=120, avg_degree=6, seed=9)
        move = leiden(g, LeidenConfig(vertex_label="move"))
        refine = leiden(g, LeidenConfig(vertex_label="refine"))
        assert refine.num_communities >= move.num_communities

    def test_refine_labels_nested_in_move_labels(self):
        g = random_graph(n=100, avg_degree=6, seed=10)
        refine = leiden(g, LeidenConfig(vertex_label="refine", max_passes=1))
        move = leiden(g, LeidenConfig(vertex_label="move", max_passes=1))
        # every refined community sits inside one move community
        for comm in np.unique(refine.membership):
            members = np.flatnonzero(refine.membership == comm)
            assert len(np.unique(move.membership[members])) == 1

    @pytest.mark.parametrize("variant", ["default", "medium", "heavy"])
    def test_variants_all_work(self, variant):
        g = two_cliques_graph()
        res = leiden(g, LeidenConfig.variant(variant))
        assert res.num_communities == 2

    def test_resolution_controls_granularity(self):
        g = ring_of_cliques_graph(6, 5)
        fine = leiden(g, LeidenConfig(resolution=2.0))
        coarse = leiden(g, LeidenConfig(resolution=0.2))
        assert fine.num_communities >= coarse.num_communities


class TestResultStructure:
    def test_pass_stats_populated(self):
        g = random_graph(n=100, avg_degree=6, seed=4)
        res = leiden(g)
        assert res.num_passes == len(res.passes)
        assert res.passes[0].num_vertices == g.num_vertices
        for ps in res.passes:
            assert ps.move_iterations >= 1
            assert ps.ledger.total_work > 0

    def test_vertex_counts_shrink(self):
        g = random_graph(n=150, avg_degree=6, seed=6)
        res = leiden(g)
        counts = [ps.num_vertices for ps in res.passes]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_dendrogram_flattens_to_membership(self):
        g = random_graph(n=100, avg_degree=6, seed=8)
        res = leiden(g)
        flat = res.dendrogram.flatten()
        # same partition up to renumbering
        assert adjusted_rand_index(flat, res.membership) == pytest.approx(1.0)

    def test_phase_wall_times_recorded(self):
        g = random_graph(n=80, avg_degree=6, seed=3)
        res = leiden(g)
        assert set(res.wall_phase_seconds) == set(ALL_PHASES)
        assert res.wall_seconds > 0
        fr = res.phase_fractions_wall()
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_ledger_contains_all_phases(self):
        g = random_graph(n=150, avg_degree=6, seed=2)
        res = leiden(g)
        assert set(res.ledger.phases()) == set(ALL_PHASES)

    def test_modeled_time_decreases_with_threads(self):
        # At paper scale (work_scale) the chunk granularity of the small
        # test graph no longer limits parallelism.
        from repro.parallel.costmodel import PAPER_MACHINE
        g = random_graph(n=200, avg_degree=8, seed=1)
        res = leiden(g)
        t1 = res.ledger.simulate(PAPER_MACHINE, 1, work_scale=1000).seconds
        t8 = res.ledger.simulate(PAPER_MACHINE, 8, work_scale=1000).seconds
        assert t8 < t1


class TestInputValidation:
    def test_validate_input_accepts_symmetric(self):
        g = two_cliques_graph()
        res = leiden(g, validate_input=True)
        assert res.num_communities == 2

    def test_validate_input_rejects_directed(self):
        from repro.errors import GraphStructureError
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_coo([0, 1], [1, 2], num_vertices=3)
        with pytest.raises(GraphStructureError):
            leiden(g, validate_input=True)

    def test_default_skips_validation(self):
        from repro.graph.csr import CSRGraph
        g = CSRGraph.from_coo([0, 1], [1, 2], num_vertices=3)
        res = leiden(g)  # silently tolerated, as the paper's code would
        assert res.membership.shape == (3,)


class TestWarmStartValidation:
    """``initial_membership`` and ``affected`` fail with a typed error
    before any work is done."""

    N = 12000  # asia_osm

    @pytest.fixture(scope="class")
    def graph(self):
        g = load_graph("asia_osm", seed=1)
        assert g.num_vertices == self.N
        return g

    @pytest.fixture
    def cfg(self):
        return LeidenConfig()

    def test_membership_one_short(self, graph, cfg):
        with pytest.raises(GraphStructureError, match="11999 entries"):
            leiden(graph, cfg,
                   initial_membership=np.zeros(self.N - 1, dtype=np.int32))

    def test_membership_negative_id(self, graph, cfg):
        warm = np.zeros(self.N, dtype=np.int32)
        warm[-1] = -1
        with pytest.raises(GraphStructureError, match="non-negative"):
            leiden(graph, cfg, initial_membership=warm)

    def test_affected_id_past_the_end(self, graph, cfg):
        with pytest.raises(GraphStructureError, match="lie in"):
            leiden(graph, cfg, affected=[0, self.N + 5])

    def test_affected_negative_id(self, graph, cfg):
        # A negative index would wrap to vertex N-1.
        with pytest.raises(GraphStructureError, match="lie in"):
            leiden(graph, cfg, affected=[-1])

    def test_affected_mask_wrong_length(self, graph, cfg):
        with pytest.raises(GraphStructureError, match="shape"):
            leiden(graph, cfg, affected=np.ones(self.N - 3, dtype=bool))

    def test_affected_float_ids(self, graph, cfg):
        with pytest.raises(GraphStructureError, match="vertex ids"):
            leiden(graph, cfg, affected=[0.5])

    def test_valid_warm_start_still_runs(self, graph, cfg):
        base = leiden(graph, cfg)
        res = leiden(graph, cfg, initial_membership=base.membership.tolist(),
                     affected=[0, self.N - 1])
        assert res.membership.shape == (self.N,)
        empty = leiden(graph, cfg, affected=[])
        assert empty.membership.shape == (self.N,)


def _digest(values):
    data = np.ascontiguousarray(values, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class TestPinnedSolves:
    """Membership and dendrogram digests of default-config solves.  The
    pass bookkeeping (renumbering, community counts, move-label seeding)
    must reproduce them bit for bit."""

    PINNED = {
        ("asia_osm", "move", None): (
            "d9984c7e766883bff540dfec700ffb73",
            ("c885d3e063dadb5d95ad5d178a67e9a8",
             "7626aab21e7df595ddb0bbbd2525358a",
             "b9c2f34789780bafe0ef322a9a18beac",
             "857cb1d89ec378ec361a68d94b430c86",
             "1ed654686ca04919af7a0b1814cee961",
             "e72c2963373a43be4cb1bcdce01d1dc3",
             "e5bde2131d5cff7e969fc1f48866b0cb")),
        ("asia_osm", "refine", None): (
            "5f864e3f4aaf5ba9fd036f041dde6f68",
            ("c885d3e063dadb5d95ad5d178a67e9a8",
             "f7388102e8fe0f062a9c76734f811e36",
             "4c46728e44451d4fa34d3277c00a2900",
             "4f65e3fb4a98e4ab271d4e883d22e79f",
             "7c2797a0b09d327ab4dcbdbac5c86fb2",
             "f7b8ec178848ef822aa4218048256379",
             "6c2ff8fcb6d1c76b5ffd14606e5f08ff")),
        ("uk-2002", "move", None): (
            "c74ca9fc2183d9daa634a7ea88cdeca4",
            ("c82baebaa16f8ec7e974a37ef76eec4e",
             "e1949dd49f4a827e2a644d2f3a9222f6",
             "a5c9946424c68d6fcec8299cbecf93ee",
             "65c34b91843fb8b8d3a20b66b65dc203",
             "15fcfb1b99866b209ebd5c3c373db1b8")),
        ("uk-2002", "refine", None): (
            "c74ca9fc2183d9daa634a7ea88cdeca4",
            ("c82baebaa16f8ec7e974a37ef76eec4e",
             "e1949dd49f4a827e2a644d2f3a9222f6",
             "a5c9946424c68d6fcec8299cbecf93ee",
             "65c34b91843fb8b8d3a20b66b65dc203",
             "15fcfb1b99866b209ebd5c3c373db1b8")),
        # Pass budget exhausted: move labels add the seeded level on top.
        ("asia_osm", "move", 3): (
            "f285e37123e82c5454144b8f5065d7f5",
            ("c885d3e063dadb5d95ad5d178a67e9a8",
             "7626aab21e7df595ddb0bbbd2525358a",
             "b9c2f34789780bafe0ef322a9a18beac",
             "5e6c81d319b7e7bb512eef5393e986a0")),
        ("uk-2002", "move", 3): (
            "5e3d4fe7b69b1be0c692d7e9f1507d56",
            ("c82baebaa16f8ec7e974a37ef76eec4e",
             "e1949dd49f4a827e2a644d2f3a9222f6",
             "a5c9946424c68d6fcec8299cbecf93ee",
             "484fd0f96b23de0130478a419d7c1b80")),
    }

    @pytest.mark.parametrize("key", sorted(PINNED, key=str), ids=str)
    def test_digests(self, key):
        name, label, max_passes = key
        cfg = LeidenConfig(vertex_label=label)
        if max_passes is not None:
            cfg = cfg.with_(max_passes=max_passes)
        res = leiden(load_graph(name, seed=1), cfg)
        membership, levels = self.PINNED[key]
        assert tuple(_digest(lvl) for lvl in res.dendrogram) == levels
        assert _digest(res.membership) == membership
        assert res.num_communities == len(np.unique(res.membership))
        for p in res.passes:
            upto = res.dendrogram.flatten(upto=p.index + 1)
            assert p.num_communities == len(np.unique(upto))


def _ledger_digest(ledger):
    data = hashlib.blake2b(digest_size=16)
    for region in ledger.regions:
        data.update(region.chunk_costs.tobytes())
        data.update(np.float64(region.atomics).tobytes())
    return data.hexdigest()


class TestPinnedSignedZeroWeights:
    """Solves on graphs whose weights are a third ``+0.0`` and a third
    ``-0.0``: membership, dendrogram and run-ledger digests.  Σ holds
    signed zeros here, and a scatter that sums over a window of ids adds
    ``+0.0`` to the untouched slots in it; the digests must not move."""

    PINNED = {
        ("asia_osm", "greedy"): (
            "22727e66c5cc9aee55c6f79b4192c01e",
            ("4cbbbc82c28296851a2d6d1b8bef2e1c",
             "6ecfb211c5d5ed339bf854cc16823bdb"),
            "b96d01633acac4f2fd6fc37fedd2173b"),
        ("asia_osm", "random"): (
            "870fff243f45cedbd6fc8b4112504ef2",
            ("2a4d12f55be8c2858fbed2ccea6168a8",
             "be6c44b28600dafc9d94494100a5877b"),
            "55af4f7eefa5a7e24bb90225dc799c3a"),
        ("uk-2002", "greedy"): (
            "14b9cea1c015c39c7198eb1bcd0289af",
            ("c54787224f8a187e527767f2c06ed0eb",
             "ce9118cc41a3eb76338a678d2ae3a0fd",
             "eed8067201e89c9e66953e87b1771b0a",
             "b68ce5700c55cd492725f8ab60e0b663",
             "9f7e53c247ae7e6390c8b9bbf3740c0e"),
            "34017aa98e4911c81b7847b69bb92dab"),
        ("uk-2002", "random"): (
            "13f12ac99540267438d27f6fe977b793",
            ("ee870e1b30a2a9600a4ab75b7418cbee",
             "f0dd1ecceae9e86703cd13b288c27656",
             "d0b90f6d2394a24afccfe9349380680c",
             "93c296f383e679a0f9d81ae9ff1d938b",
             "b0fc0d239bbfd1951d12b0fb574de4c1"),
            "721e60e0e070606dc0d05db5add6ef27"),
    }

    @pytest.mark.parametrize("key", sorted(PINNED), ids=str)
    def test_digests(self, key):
        name, refinement = key
        graph = signed_zero_weights(load_graph(name, seed=1))
        res = leiden(graph, LeidenConfig(refinement=refinement))
        membership, levels, ledger = self.PINNED[key]
        assert tuple(_digest(lvl) for lvl in res.dendrogram) == levels
        assert _digest(res.membership) == membership
        assert _ledger_digest(res.ledger) == ledger


class TestBudgetExit:
    """When the pass budget runs out, move-based labels compose the last
    pass's move-phase communities on top of its refined ones (Algorithm
    1, line 16 after line 14).  That level carries no connectivity
    guarantee, and on ``webbase-2001`` at one pass it holds internally
    disconnected communities; refine-based labels stop at the refined,
    connected level."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_graph("webbase-2001")

    def test_move_labels_compose_a_disconnected_level(self, graph):
        res = leiden(graph, LeidenConfig(max_passes=1))
        assert res.num_communities == 2436
        assert res.dendrogram.num_levels == 2
        report = disconnected_communities(graph, res.membership)
        assert report.num_disconnected == 11

    def test_refine_labels_stay_connected(self, graph):
        res = leiden(graph, LeidenConfig(max_passes=1, vertex_label="refine"))
        assert res.num_communities == 13767
        assert res.dendrogram.num_levels == 1
        report = disconnected_communities(graph, res.membership)
        assert report.num_disconnected == 0


def _zero_seconds(doc):
    if isinstance(doc, dict):
        return {k: 0.0 if k in ("seconds", "wall_seconds") else
                _zero_seconds(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_zero_seconds(v) for v in doc]
    return doc


class TestPinnedRecorderDocuments:
    """Digests of the documents the pass loop's recorders write on
    ``asia_osm``, with every ``seconds``/``wall_seconds`` zeroed: the
    trace of a default solve, of a Louvain solve and of a one-pass budget
    exit, and the Chrome document of a profiled solve at 8 threads.
    Spans, counters, series and profiler regions must keep every byte."""

    PINNED = {
        "leiden": "65de47723609357091ba8215a52f55e2",
        "louvain": "d728b6c606b4d6472d9b699a82772e85",
        "budget": "ec542eccfaede01c294369dfeaa6a4cf",
        "chrome": "5698a60768c8920f7800e1d54ed4a369",
    }

    @staticmethod
    def _digest(doc):
        text = json.dumps(_zero_seconds(doc), sort_keys=True)
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    @staticmethod
    def _traced(algo, cfg):
        recorder = Recorder()
        with Runtime(num_threads=1, seed=cfg.seed, recorder=recorder) as rt:
            algo(load_graph("asia_osm"), cfg, runtime=rt)
        return recorder

    @pytest.mark.parametrize("key,algo,cfg", [
        ("leiden", leiden, LeidenConfig()),
        ("louvain", louvain, LeidenConfig()),
        ("budget", leiden, LeidenConfig(max_passes=1)),
    ], ids=["leiden", "louvain", "budget"])
    def test_trace(self, key, algo, cfg):
        doc = trace_doc(self._traced(algo, cfg))
        assert self._digest(doc) == self.PINNED[key]

    def test_chrome(self):
        recorder = self._traced(leiden, LeidenConfig())
        doc = to_chrome_trace(timeline(recorder, 8))
        assert self._digest(doc) == self.PINNED["chrome"]

    #: Digests of three documents' bytes of the recorded ``asia_osm``
    #: run: the Prometheus text, the memory Chrome lane and the profile
    #: report.
    PINNED_CLI = {
        "prom": "cea7ca3040116ddcc90579787ab04c00",
        "mem_chrome": "486cc4733d96c7b1f8a3f59ffd7a412c",
        "report": "fee1bd2cc486eeabb1fadcd1bffe91cb",
    }

    @pytest.mark.parametrize("key,name", [
        ("prom", "metrics.prom"),
        ("mem_chrome", "memory.chrome.json"),
        ("report", "profile.txt"),
    ], ids=["prom", "mem_chrome", "report"])
    def test_cli_document(self, key, name, recorded):
        doc = recorded["run"] / name
        digest = hashlib.blake2b(doc.read_bytes(), digest_size=16)
        assert digest.hexdigest() == self.PINNED_CLI[key]

    #: Digests of the documents of a recorded ``asia_osm --seed 42`` solve
    #: and of a recorded ``serve --workload tiny --seed 0 --no-verify``
    #: run: each trace with its wall-clock fields zeroed, the other
    #: documents byte for byte.
    PINNED_RECORD = {
        "run/trace.json": "b03fa47904ba8fa0888717dfe4520352",
        "run/profile.chrome.json": "f6e2a39a0b8ebe455185d2f164225fec",
        "run/metrics.json": "7722fa71bbb18c58dac5546f97db9779",
        "run/memory.json": "2c71e3e22d29635ddfb0006ba74b4b6d",
        "serve/trace.json": "cad5efabf8954aebfeade266c7b5ec17",
        "serve/profile.chrome.json": "cf710b19d16fd20295aa0332f7cc0a8d",
        "serve/metrics.json": "ac42a2172e615aa64055ac0c896cc442",
        "serve/memory.json": "0eb940ddf5496df85532eeea7098119c",
    }

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """Record directory of each recorded run, by command."""
        from repro.cli import main

        run = tmp_path_factory.mktemp("run")
        assert main(["run", "asia_osm", "--seed", "42",
                     "--record", str(run)]) == 0
        serve = tmp_path_factory.mktemp("serve")
        assert main(["serve", "--workload", "tiny", "--seed", "0",
                     "--no-verify", "--output", str(serve / "stats.json"),
                     "--record", str(serve)]) == 0
        return {"run": run, "serve": serve}

    @pytest.mark.parametrize("key", sorted(PINNED_RECORD))
    def test_recorded_document(self, recorded, key):
        from tests.observability.test_independence import zero_wall

        command, name = key.split("/")
        path = recorded[command] / name
        if name == "trace.json":
            digest = self._digest(zero_wall(json.loads(path.read_text())))
        else:
            digest = hashlib.blake2b(path.read_bytes(),
                                     digest_size=16).hexdigest()
        assert digest == self.PINNED_RECORD[key]
