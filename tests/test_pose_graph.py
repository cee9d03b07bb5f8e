"""Pose graph construction rules and LM optimizer behavior.

Oracles: a dense grid search for the 3-node chain, a closed-form generalized
least-squares solve for small translation-only graphs, central finite
differences for the edge Jacobians, and a known-ground-truth drifting circle.
"""

import numpy as np
import pytest

from featslam.geometry import Pose, Rotation, exp, log
from featslam.loop_closure import LoopConstraint
from featslam.pose_graph import (
    OptimizationReport,
    PoseGraph,
    PoseGraphConfig,
    PoseGraphEdge,
    add_loop_edge,
    add_odometry_node,
    default_loop_information,
    default_odometry_information,
    edge_jacobians,
    edge_residual,
    optimize,
    save_g2o,
)


def tpose(x, y=0.0, z=0.0):
    return Pose(Rotation.identity(), np.array([x, y, z], dtype=float))


def rotz(deg):
    return Pose(Rotation.from_rotvec([0.0, 0.0, np.deg2rad(deg)]), np.zeros(3))


def random_pose(rng, rot_scale=0.5, trans_scale=2.0):
    return Pose(
        Rotation.from_rotvec(rng.normal(0.0, rot_scale, 3)),
        rng.normal(0.0, trans_scale, 3),
    )


def noisy_chain_graph(rng, n_nodes, loop_pairs, rot_sigma=0.005, trans_sigma=0.02,
                      config=None):
    """Chain of noisy odometry estimates plus exact-rel loop constraints."""
    true = [Pose(Rotation.identity(), np.zeros(3))]
    for k in range(1, n_nodes):
        step = Pose(
            Rotation.from_rotvec(rng.normal(0.0, 0.1, 3)),
            rng.normal(0.0, 1.0, 3),
        )
        true.append(true[-1].compose(step))
    est = [true[0].copy()]
    for k in range(1, n_nodes):
        rel = true[k - 1].inverse().compose(true[k])
        noise = Pose(
            Rotation.from_rotvec(rng.normal(0.0, rot_sigma, 3)),
            rng.normal(0.0, trans_sigma, 3),
        )
        est.append(est[-1].compose(rel.compose(noise)))
    graph = PoseGraph(config)
    for k, p in enumerate(est):
        add_odometry_node(graph, k, p)
    for newer, older in loop_pairs:
        rel = true[older].inverse().compose(true[newer])
        add_loop_edge(graph, LoopConstraint(newer, older, rel, 0.0, True))
    return graph, true


class TestGraphConstruction:
    def test_first_node_no_edges(self):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        assert len(g) == 1
        assert g.edges == []

    def test_second_node_adds_one_odometry_edge(self):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        add_odometry_node(g, 1, tpose(1.0))
        assert len(g) == 2
        assert len(g.edges) == 1
        assert not g.edges[0].robust
        assert (g.edges[0].from_node, g.edges[0].to_node) == (0, 1)

    def test_edge_measurement_is_relative_pose(self):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        add_odometry_node(g, 1, tpose(1.0))
        m = g.edges[0].measurement
        np.testing.assert_allclose(m.translation, [1.0, 0.0, 0.0], atol=1e-12)
        assert m.rotation.angle() < 1e-12

    def test_non_sequential_index_rejected(self):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        with pytest.raises(ValueError):
            add_odometry_node(g, 2, tpose(2.0))
        with pytest.raises(ValueError):
            add_odometry_node(g, 0, tpose(0.0))
        assert len(g) == 1

    def test_default_odometry_information(self):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        add_odometry_node(g, 1, tpose(1.0))
        info = g.edges[0].information
        np.testing.assert_allclose(np.diag(info), [1e4] * 3 + [400.0] * 3)

    def test_poses_returns_copies(self):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        snap = g.poses()
        snap[0].translation[0] = 99.0
        assert g.nodes[0].translation[0] == 0.0


class TestLoopEdges:
    def _three_node_graph(self):
        g = PoseGraph()
        for k in range(3):
            add_odometry_node(g, k, tpose(float(k)))
        return g

    def test_accepted_constraint_appends_robust_edge(self):
        g = self._three_node_graph()
        c = LoopConstraint(2, 0, tpose(1.8), 0.05, True)
        add_loop_edge(g, c)
        assert len(g.edges) == 3
        e = g.edges[-1]
        assert e.robust
        assert (e.from_node, e.to_node) == (0, 2)
        np.testing.assert_allclose(np.diag(e.information), [400.0] * 3 + [25.0] * 3)

    def test_unaccepted_constraint_rejected(self):
        g = self._three_node_graph()
        c = LoopConstraint(2, 0, tpose(1.8), 9.0, False)
        with pytest.raises(ValueError):
            add_loop_edge(g, c)
        assert len(g.edges) == 2

    def test_missing_node_rejected(self):
        g = self._three_node_graph()
        c = LoopConstraint(7, 0, tpose(1.8), 0.05, True)
        with pytest.raises(ValueError):
            add_loop_edge(g, c)
        assert len(g.edges) == 2

    def test_non_psd_information_rejected_at_insertion(self):
        g = self._three_node_graph()
        c = LoopConstraint(2, 0, tpose(1.8), 0.05, True)
        negative = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            add_loop_edge(g, c, information=negative)
        asym = np.eye(6)
        asym[0, 5] = 3.0
        with pytest.raises(ValueError):
            add_loop_edge(g, c, information=asym)
        with pytest.raises(ValueError):
            add_loop_edge(g, c, information=np.eye(5))
        assert len(g.edges) == 2

    def test_config_validates_information(self):
        with pytest.raises(ValueError):
            PoseGraphConfig(odometry_information=np.zeros((6, 6)))
        with pytest.raises(ValueError):
            PoseGraphConfig(huber_scale=0.0)


class TestOptimizeExamples:
    def test_consistent_chain_zero_cost_poses_unchanged(self):
        g = PoseGraph()
        poses = [tpose(0.0), tpose(1.0).compose(rotz(10)), tpose(2.0, 0.5)]
        for k, p in enumerate(poses):
            add_odometry_node(g, k, p)
        before = [p.matrix() for p in g.nodes]
        report = optimize(g)
        assert report.converged
        assert report.final_cost < 1e-10
        for b, n in zip(before, g.nodes):
            np.testing.assert_allclose(n.matrix(), b, atol=1e-10)

    def test_three_node_chain_matches_grid_oracle(self):
        g = PoseGraph()
        info = np.eye(6)
        add_odometry_node(g, 0, tpose(0.0), information=info)
        add_odometry_node(g, 1, tpose(1.0), information=info)
        add_odometry_node(g, 2, tpose(2.0), information=info)
        add_loop_edge(g, LoopConstraint(2, 0, tpose(1.8), 0.0, True), information=info)
        report = optimize(g)
        assert report.converged
        x1 = g.nodes[1].translation[0]
        x2 = g.nodes[2].translation[0]
        assert 1.8 < x2 < 2.0

        # All measurements lie on the x axis, so the optimum reduces to the
        # translation subproblem min (x1-1)^2 + (x2-x1-1)^2 + (x2-1.8)^2.
        g1 = np.arange(0.5, 1.5, 1e-3)
        g2 = np.arange(1.5, 2.1, 1e-3)
        a, b = np.meshgrid(g1, g2, indexing="ij")
        cost = (a - 1.0) ** 2 + (b - a - 1.0) ** 2 + (b - 1.8) ** 2
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        assert abs(x1 - g1[i]) < 2e-3
        assert abs(x2 - g2[j]) < 2e-3
        # Off-axis and rotational components stay put.
        assert abs(g.nodes[2].translation[1]) < 1e-9
        assert g.nodes[2].rotation.angle() < 1e-9

    def test_hundred_node_circle_loop_repairs_drift(self):
        rng = np.random.default_rng(42)
        n = 100
        radius = 20.0
        true = []
        for k in range(n):
            yaw = k * (2 * np.pi / n)
            pos = radius * np.array([np.sin(yaw), 1.0 - np.cos(yaw), 0.0])
            true.append(Pose(Rotation.from_rotvec([0, 0, yaw]), pos))

        bias = rotz(0.25)
        est = [true[0].copy()]
        for k in range(1, n):
            rel = true[k - 1].inverse().compose(true[k])
            jitter = Pose(Rotation.identity(), rng.normal(0.0, 0.01, 3))
            est.append(est[-1].compose(bias.compose(rel).compose(jitter)))
        drift = np.linalg.norm(est[-1].translation - true[-1].translation)
        assert drift > 1.0  # the chain must actually drift for the test to mean anything

        g = PoseGraph()
        for k, p in enumerate(est):
            add_odometry_node(g, k, p)
        loop_rel = true[0].inverse().compose(true[-1])
        # The synthetic loop measurement is exact, so weight it like odometry.
        add_loop_edge(
            g,
            LoopConstraint(99, 0, loop_rel, 0.0, True),
            information=default_odometry_information(),
        )
        report = optimize(g, max_iterations=100)
        err = np.linalg.norm(g.nodes[-1].translation - true[-1].translation)
        assert report.converged
        assert report.final_cost <= report.initial_cost
        assert err < 0.1 * drift

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            optimize(PoseGraph())

    def test_single_node_graph_trivially_converged(self):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        report = optimize(g)
        assert report.converged
        assert report.final_cost == 0.0
        assert report.iterations == 0

    def test_optimize_is_deterministic(self):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            g, _ = noisy_chain_graph(rng, 12, [(11, 0), (8, 2)])
            optimize(g, max_iterations=100)
            results.append(np.array([p.translation for p in g.nodes]))
        np.testing.assert_array_equal(results[0], results[1])


class TestInvariants:
    def test_gauge_invariance_of_final_residuals(self):
        tight = dict(cost_rel_tolerance=1e-14, gradient_tolerance=1e-11)
        rng = np.random.default_rng(3)
        g_a, _ = noisy_chain_graph(rng, 8, [(7, 0), (5, 1)],
                                   config=PoseGraphConfig(**tight))
        shift = Pose(Rotation.from_rotvec([0.3, -0.2, 0.9]), np.array([5.0, -2.0, 1.0]))
        g_b = PoseGraph(PoseGraphConfig(**tight))
        g_b.nodes = [shift.compose(p) for p in g_a.nodes]
        g_b.edges = [
            PoseGraphEdge(e.from_node, e.to_node, e.measurement.copy(),
                          e.information.copy(), e.robust)
            for e in g_a.edges
        ]
        optimize(g_a, max_iterations=300)
        optimize(g_b, max_iterations=300)
        for ea, eb in zip(g_a.edges, g_b.edges):
            ra = edge_residual(g_a.nodes, ea)
            rb = edge_residual(g_b.nodes, eb)
            np.testing.assert_allclose(ra, rb, atol=1e-8)

    def test_final_cost_never_exceeds_initial(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            pairs = [(9, 0)] if trial % 2 == 0 else [(9, 0), (6, 2)]
            g, _ = noisy_chain_graph(rng, 10, pairs)
            report = optimize(g, max_iterations=30)
            assert report.final_cost <= report.initial_cost

    def test_edge_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(23)
        eps = 1e-6
        for _ in range(20):
            nodes = [random_pose(rng) for _ in range(3)]
            edge = PoseGraphEdge(0, 2, random_pose(rng),
                                 default_loop_information(), True)
            _, j_from, j_to = edge_jacobians(nodes, edge)
            for idx, jac in ((0, j_from), (2, j_to)):
                fd = np.zeros((6, 6))
                for k in range(6):
                    d = np.zeros(6)
                    d[k] = eps
                    plus = list(nodes)
                    plus[idx] = exp(d).compose(nodes[idx])
                    minus = list(nodes)
                    minus[idx] = exp(-d).compose(nodes[idx])
                    fd[:, k] = (edge_residual(plus, edge)
                                - edge_residual(minus, edge)) / (2 * eps)
                rel = np.abs(jac - fd).max() / np.abs(fd).max()
                assert rel < 1e-4

    def test_translation_only_graph_matches_closed_form_gls(self):
        # Rotation weights pinned far above the translation weights keep the
        # full SE(3) optimum within 1e-6 of the pure-translation GLS answer.
        rng = np.random.default_rng(31)
        true_t = [np.zeros(3)] + [rng.uniform(-3.0, 3.0, 3) for _ in range(3)]
        edges_spec = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        measurements = {}
        weights = {}
        for i, j in edges_spec:
            measurements[(i, j)] = (true_t[j] - true_t[i]) + rng.normal(0.0, 0.01, 3)
            weights[(i, j)] = rng.uniform(0.5, 2.0)

        def info_for(key):
            w = weights[key]
            return np.diag([1e8] * 3 + [w] * 3)

        g = PoseGraph()
        est = np.zeros(3)
        add_odometry_node(g, 0, tpose(0.0), information=info_for((0, 1)))
        for k in range(1, 4):
            est = est + measurements[(k - 1, k)]
            info = info_for((k, k + 1)) if k < 3 else None
            add_odometry_node(g, k, Pose(Rotation.identity(), est.copy()),
                              information=info)
        # add_odometry_node weights edge (k-1, k) with the information passed
        # when node k was added; rebuild the per-edge weights directly.
        for e in g.edges:
            e.information = info_for((e.from_node, e.to_node))
        for i, j in [(0, 3), (1, 3)]:
            rel = Pose(Rotation.identity(), measurements[(i, j)].copy())
            add_loop_edge(g, LoopConstraint(j, i, rel, 0.0, True),
                          information=info_for((i, j)))

        report = optimize(g, max_iterations=200)
        assert report.converged

        # Independent GLS: unknowns t1..t3 stacked, rows t_j - t_i = m_ij.
        a = np.zeros((3 * len(edges_spec), 9))
        b = np.zeros(3 * len(edges_spec))
        w_rows = np.zeros(3 * len(edges_spec))
        for row, (i, j) in enumerate(edges_spec):
            sl = slice(3 * row, 3 * row + 3)
            if i > 0:
                a[sl, 3 * (i - 1):3 * i] = -np.eye(3)
            if j > 0:
                a[sl, 3 * (j - 1):3 * j] = np.eye(3)
            b[sl] = measurements[(i, j)]
            w_rows[sl] = weights[(i, j)]
        aw = a * w_rows[:, None]
        solution = np.linalg.solve(a.T @ aw, aw.T @ b)

        for k in range(1, 4):
            np.testing.assert_allclose(
                g.nodes[k].translation, solution[3 * (k - 1):3 * k], atol=1e-6
            )
            assert g.nodes[k].rotation.angle() < 1e-6


class TestG2oDump:
    def test_dump_format_and_information_order(self, tmp_path):
        g = PoseGraph()
        add_odometry_node(g, 0, tpose(0.0))
        add_odometry_node(g, 1, tpose(1.0).compose(rotz(30)))
        add_loop_edge(g, LoopConstraint(1, 0, tpose(1.0), 0.0, True))
        path = tmp_path / "graph.g2o"
        save_g2o(g, path)
        lines = path.read_text().strip().splitlines()
        vertices = [l for l in lines if l.startswith("VERTEX_SE3:QUAT ")]
        edges = [l for l in lines if l.startswith("EDGE_SE3:QUAT ")]
        assert len(vertices) == 2
        assert len(edges) == 2
        assert all(len(v.split()) == 9 for v in vertices)
        assert all(len(e.split()) == 31 for e in edges)

        tok = edges[0].split()
        assert (tok[1], tok[2]) == ("0", "1")
        upper = np.array([float(v) for v in tok[10:]])
        # g2o information order is translation-first: (0,0) -> trans x,
        # (3,3) -> rot x at flattened upper-triangular index 15.
        assert upper[0] == pytest.approx(400.0)
        assert upper[15] == pytest.approx(1e4)
        # Off-diagonal blocks of a diagonal information matrix stay zero.
        assert upper[1:6].max() == 0.0

        vt = vertices[1].split()
        np.testing.assert_allclose([float(v) for v in vt[2:5]], [1.0, 0.0, 0.0])
        quat = np.array([float(v) for v in vt[5:]])  # qx qy qz qw
        assert quat[3] == pytest.approx(np.cos(np.deg2rad(15.0)))
