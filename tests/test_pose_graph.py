"""Pose graph construction rules and LM optimizer behavior.

Oracles: a dense grid search for the 3-node chain, a closed-form generalized
least-squares solve for small translation-only graphs, central finite
differences for the edge Jacobians, a known-ground-truth drifting circle,
and the per-edge quaternion solve of tests/loop_reference.py for the batched
evaluation and normal equations.
"""

import copy

import numpy as np
import pytest

import featslam.pose_graph as pg
import loop_reference as ref
from featslam.geometry import Pose, exp_rt
from featslam.pose_graph import (
    OptimizationReport,
    PoseGraph,
    PoseGraphConfig,
    PoseGraphEdge,
    add_loop_edge,
    add_odometry_node,
    optimize,
)
from shapes import rotz


SIGMAS = ("odometry_rotation_sigma", "odometry_translation_sigma",
          "loop_rotation_sigma", "loop_translation_sigma")
CFG = PoseGraphConfig()


def tpose(x, y=0.0, z=0.0):
    return Pose(np.eye(3), np.array([x, y, z], dtype=float))


def random_pose(rng, rot_scale=0.5, trans_scale=2.0):
    return Pose.from_rt(rng.normal(0.0, rot_scale, 3), rng.normal(0.0, trans_scale, 3))


def stacked(nodes):
    """(N, 3, 3) rotations and (N, 3) translations of a Pose list."""
    return (np.stack([p.rotation for p in nodes]),
            np.stack([p.translation for p in nodes]))


def evaluate(graph):
    """The edge arrays of graph and the batched evaluation optimize runs at
    its nodes."""
    edges = pg._EdgeArrays(graph.edges, len(graph.nodes), graph.config)
    return edges, pg._evaluate(edges, *stacked(graph.nodes))


def noisy_chain_graph(rng, n_nodes, loop_pairs, rot_sigma=0.005, trans_sigma=0.02):
    """Chain of noisy odometry estimates plus exact-rel loop constraints."""
    true = [Pose(np.eye(3), np.zeros(3))]
    for k in range(1, n_nodes):
        step = Pose.from_rt(rng.normal(0.0, 0.1, 3), rng.normal(0.0, 1.0, 3))
        true.append(true[-1].compose(step))
    est = [true[0]]
    for k in range(1, n_nodes):
        rel = true[k - 1].inverse().compose(true[k])
        noise = Pose.from_rt(rng.normal(0.0, rot_sigma, 3), rng.normal(0.0, trans_sigma, 3))
        est.append(est[-1].compose(rel.compose(noise)))
    graph = PoseGraph(CFG)
    for p in est:
        add_odometry_node(graph, p)
    for newer, older in loop_pairs:
        rel = true[older].inverse().compose(true[newer])
        add_loop_edge(graph, older, newer, rel)
    return graph, true


class TestGraphConstruction:
    def test_first_node_no_edges(self):
        g = PoseGraph(CFG)
        add_odometry_node(g, tpose(0.0))
        assert len(g.nodes) == 1
        assert g.edges == []

    def test_second_node_adds_one_odometry_edge(self):
        g = PoseGraph(CFG)
        add_odometry_node(g, tpose(0.0))
        add_odometry_node(g, tpose(1.0))
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        assert not g.edges[0].robust
        assert (g.edges[0].from_node, g.edges[0].to_node) == (0, 1)

    def test_edge_measurement_is_relative_pose(self):
        g = PoseGraph(CFG)
        add_odometry_node(g, tpose(0.0))
        add_odometry_node(g, tpose(1.0))
        m = g.edges[0].measurement
        np.testing.assert_allclose(m.translation, [1.0, 0.0, 0.0], atol=1e-12)
        assert m.angle() < 1e-12

    def test_default_odometry_information(self):
        g = PoseGraph(CFG)
        add_odometry_node(g, tpose(0.0))
        add_odometry_node(g, tpose(1.0))
        edges, _ = evaluate(g)
        np.testing.assert_allclose(edges.whitener[0] ** 2, [1e4] * 3 + [400.0] * 3)

    def test_poses_are_read_only(self):
        # a node's pose cannot be changed in place
        g = PoseGraph(CFG)
        add_odometry_node(g, tpose(0.0))
        with pytest.raises(ValueError):
            g.nodes[0].translation[0] = 99.0
        with pytest.raises(ValueError):
            g.nodes[0].rotation[0, 0] = 2.0
        assert g.nodes[0].translation[0] == 0.0


class TestLoopEdges:
    def _three_node_graph(self):
        g = PoseGraph(CFG)
        for k in range(3):
            add_odometry_node(g, tpose(float(k)))
        return g

    def test_accepted_constraint_appends_robust_edge(self):
        g = self._three_node_graph()
        add_loop_edge(g, 0, 2, tpose(1.8))
        assert len(g.edges) == 3
        e = g.edges[-1]
        assert e.robust
        assert (e.from_node, e.to_node) == (0, 2)
        assert e.measurement.translation[0] == 1.8
        edges, _ = evaluate(g)
        np.testing.assert_allclose(edges.whitener[-1] ** 2, [400.0] * 3 + [25.0] * 3)

    def _assert_rejected(self, loop_node, node):
        # a loop edge joins an earlier node to a later one of the graph
        g = self._three_node_graph()
        edges = list(g.edges)
        with pytest.raises(ValueError, match=rf"^loop edge \({loop_node}, {node}\)"):
            add_loop_edge(g, loop_node, node, tpose(1.8))
        assert g.edges == edges

    def test_forward_edge_rejected(self):
        self._assert_rejected(2, 0)

    def test_self_edge_rejected(self):
        self._assert_rejected(1, 1)

    def test_missing_node_rejected(self):
        self._assert_rejected(0, 3)  # the graph has nodes 0-2
        self._assert_rejected(0, 7)
        self._assert_rejected(-1, 2)

    def test_config_validates_information(self):
        # each sigma's information 1/sigma^2 must be a finite, positive
        # float: 1e-200 squares to 0 and 1e200 overflows
        for name in SIGMAS:
            for sigma in (0.0, -0.2, 1e-200, 1e200, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"^{name} must be > 0"):
                    PoseGraphConfig(**{name: sigma})
            assert getattr(PoseGraphConfig(**{name: 1e-150}), name) == 1e-150


class TestEdgeWeights:
    @pytest.mark.parametrize("sigmas", [
        (0.01, 0.05, 0.05, 0.2),  # the defaults
        (1.0, 1.0, 1e-4, 2.0 ** -0.5),
        (0.07, 0.013, 0.3, 1.7),
        (3e-7, 123.4, 1e-150, 1e150),
    ])
    def test_whitener_is_cholesky_factor_of_diagonal_information(self, sigmas):
        # entry for entry the factor the batched Cholesky of diag(1/sigma^2)
        # gave, so solves are bit-identical to the information-matrix form
        cfg = PoseGraphConfig(**dict(zip(SIGMAS, sigmas)))
        g = PoseGraph(cfg)
        for k in range(3):
            add_odometry_node(g, tpose(float(k)))
        add_loop_edge(g, 0, 2, tpose(1.8))
        edges, _ = evaluate(g)
        for w, e in zip(edges.whitener, ref.information_edges(g.edges, cfg)):
            assert np.array_equal(w, np.diag(np.linalg.cholesky(e.information)))
        assert [e.robust for e in g.edges] == [False, False, True]


class TestOptimizeExamples:
    def test_consistent_chain_zero_cost_poses_unchanged(self):
        g = PoseGraph(CFG)
        poses = [tpose(0.0), tpose(1.0).compose(rotz(10)), tpose(2.0, 0.5)]
        for p in poses:
            add_odometry_node(g, p)
        before = [p.matrix() for p in g.nodes]
        report = optimize(g)
        assert report.converged
        assert report.final_cost < 1e-10
        for b, n in zip(before, g.nodes):
            np.testing.assert_allclose(n.matrix(), b, atol=1e-10)

    def test_three_node_chain_matches_grid_oracle(self):
        g = PoseGraph(PoseGraphConfig(**dict.fromkeys(SIGMAS, 1.0)))
        add_odometry_node(g, tpose(0.0))
        add_odometry_node(g, tpose(1.0))
        add_odometry_node(g, tpose(2.0))
        add_loop_edge(g, 0, 2, tpose(1.8))
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
        assert g.nodes[2].angle() < 1e-9

    def test_hundred_node_circle_loop_repairs_drift(self):
        rng = np.random.default_rng(42)
        n = 100
        radius = 20.0
        true = []
        for k in range(n):
            yaw = k * (2 * np.pi / n)
            pos = radius * np.array([np.sin(yaw), 1.0 - np.cos(yaw), 0.0])
            true.append(Pose.from_rt([0, 0, yaw], pos))

        bias = rotz(0.25)
        est = [true[0]]
        for k in range(1, n):
            rel = true[k - 1].inverse().compose(true[k])
            jitter = Pose(np.eye(3), rng.normal(0.0, 0.01, 3))
            est.append(est[-1].compose(bias.compose(rel).compose(jitter)))
        drift = np.linalg.norm(est[-1].translation - true[-1].translation)
        assert drift > 1.0  # the chain must actually drift for the test to mean anything

        # The synthetic loop measurement is exact, so weight it like odometry.
        odometry = PoseGraphConfig()
        g = PoseGraph(PoseGraphConfig(loop_rotation_sigma=odometry.odometry_rotation_sigma,
                                      loop_translation_sigma=odometry.odometry_translation_sigma))
        for p in est:
            add_odometry_node(g, p)
        loop_rel = true[0].inverse().compose(true[-1])
        add_loop_edge(g, 0, 99, loop_rel)
        report = optimize(g)
        err = np.linalg.norm(g.nodes[-1].translation - true[-1].translation)
        assert report.converged
        assert report.final_cost <= report.initial_cost
        assert err < 0.1 * drift

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            optimize(PoseGraph(CFG))

    def test_single_node_graph_trivially_converged(self):
        g = PoseGraph(CFG)
        add_odometry_node(g, tpose(0.0))
        report = optimize(g)
        assert report.converged
        assert report.final_cost == 0.0
        assert report.iterations == 0

    def test_no_finite_step_leaves_the_graph_unchanged(self, monkeypatch):
        # every damping value up to the cap gives a non-finite step
        monkeypatch.setattr(pg, "spsolve", lambda a, b: np.full(len(b), np.nan))
        g, _ = noisy_chain_graph(np.random.default_rng(5), 6, [(5, 0)])
        before = [p.matrix() for p in g.nodes]
        report = optimize(g)
        assert not report.converged
        assert report.iterations == 0
        assert report.final_cost == report.initial_cost > 0.0
        for b, n in zip(before, g.nodes, strict=True):
            np.testing.assert_array_equal(n.matrix(), b)

    def test_optimize_is_deterministic(self):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            g, _ = noisy_chain_graph(rng, 12, [(11, 0), (8, 2)])
            optimize(g)
            results.append(np.array([p.translation for p in g.nodes]))
        np.testing.assert_array_equal(results[0], results[1])


class TestInvariants:
    def test_gauge_invariance_of_final_residuals(self, monkeypatch):
        monkeypatch.setattr(pg, "_COST_REL_TOLERANCE", 1e-14)
        monkeypatch.setattr(pg, "_GRADIENT_TOLERANCE", 1e-11)
        rng = np.random.default_rng(3)
        g_a, _ = noisy_chain_graph(rng, 8, [(7, 0), (5, 1)])
        shift = Pose.from_rt([0.3, -0.2, 0.9], np.array([5.0, -2.0, 1.0]))
        g_b = PoseGraph(CFG)
        g_b.nodes = [shift.compose(p) for p in g_a.nodes]
        g_b.edges = [
            PoseGraphEdge(e.from_node, e.to_node, e.measurement, e.robust)
            for e in g_a.edges
        ]
        optimize(g_a)
        optimize(g_b)
        _, ev_a = evaluate(g_a)
        _, ev_b = evaluate(g_b)
        np.testing.assert_allclose(ev_a.residual, ev_b.residual, atol=1e-8)

    def test_final_cost_never_exceeds_initial(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            pairs = [(9, 0)] if trial % 2 == 0 else [(9, 0), (6, 2)]
            g, _ = noisy_chain_graph(rng, 10, pairs)
            report = optimize(g)
            assert report.final_cost <= report.initial_cost

    def test_edge_jacobians_match_finite_differences(self):
        # 20 independent edges (3i -> 3i+2) in one batch; perturbing every
        # from-node (or to-node) at once moves each edge by its own only.
        rng = np.random.default_rng(23)
        eps = 1e-6
        g = PoseGraph(CFG)
        g.nodes = [random_pose(rng) for _ in range(60)]
        g.edges = [PoseGraphEdge(3 * i, 3 * i + 2, random_pose(rng), True) for i in range(20)]
        edges, ev = evaluate(g)
        j_to = pg._jacobians(ev)
        rotation, translation = stacked(g.nodes)
        for ends, jac in ((edges.from_node, -j_to), (edges.to_node, j_to)):
            fd = np.zeros((20, 6, 6))
            for k in range(6):
                sides = []
                for sign in (1.0, -1.0):
                    step_r, step_t = exp_rt(sign * eps * np.eye(6)[k])
                    rot, trans = rotation.copy(), translation.copy()
                    rot[ends] = step_r @ rot[ends]
                    trans[ends] = trans[ends] @ step_r.T + step_t
                    sides.append(pg._evaluate(edges, rot, trans).residual)
                fd[:, :, k] = (sides[0] - sides[1]) / (2 * eps)
            rel = np.abs(jac - fd).max(axis=(1, 2)) / np.abs(fd).max(axis=(1, 2))
            assert rel.max() < 1e-4

    def test_translation_only_graph_matches_closed_form_gls(self):
        # Rotation weights pinned far above the translation weights keep the
        # full SE(3) optimum within 1e-6 of the pure-translation GLS answer.
        rng = np.random.default_rng(31)
        true_t = [np.zeros(3)] + [rng.uniform(-3.0, 3.0, 3) for _ in range(3)]
        odometry_spec = [(0, 1), (1, 2), (2, 3)]
        loop_spec = [(0, 3), (1, 3)]
        edges_spec = odometry_spec + loop_spec
        measurements = {}
        for i, j in edges_spec:
            measurements[(i, j)] = (true_t[j] - true_t[i]) + rng.normal(0.0, 0.01, 3)
        # one translation sigma per edge kind, weight 1/sigma^2 in [0.5, 2]
        odometry_sigma, loop_sigma = rng.uniform(0.71, 1.41, 2)
        weights = {key: 1.0 / odometry_sigma**2 for key in odometry_spec}
        weights.update({key: 1.0 / loop_sigma**2 for key in loop_spec})

        g = PoseGraph(PoseGraphConfig(
            odometry_rotation_sigma=1e-4, odometry_translation_sigma=odometry_sigma,
            loop_rotation_sigma=1e-4, loop_translation_sigma=loop_sigma))
        est = np.zeros(3)
        add_odometry_node(g, tpose(0.0))
        for k in range(1, 4):
            est = est + measurements[(k - 1, k)]
            add_odometry_node(g, Pose(np.eye(3), est))
        for i, j in loop_spec:
            rel = Pose(np.eye(3), measurements[(i, j)])
            add_loop_edge(g, i, j, rel)

        report = optimize(g)
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
            assert g.nodes[k].angle() < 1e-6


def seeded_graph(seed, n=12):
    """Random nodes joined by an odometry chain and six robust loop edges:
    two from node 0, a parallel pair between nodes 3 and 9, and errors
    inside and far beyond the Huber scale."""
    rng = np.random.default_rng(seed)
    g = PoseGraph(CFG)
    g.nodes = [random_pose(rng, rot_scale=0.5, trans_scale=5.0) for _ in range(n)]

    def measured(i, j, rot_noise, trans_noise):
        noise = Pose.from_rt(rng.normal(0.0, rot_noise, 3),
                     rng.normal(0.0, trans_noise, 3))
        return g.nodes[i].inverse().compose(g.nodes[j]).compose(noise)

    for k in range(1, n):
        g.edges.append(PoseGraphEdge(k - 1, k, measured(k - 1, k, 0.01, 0.05), False))
    for i, j, rot_noise, trans_noise in [(0, 7, 0.002, 0.01), (0, 11, 0.3, 2.0),
                                         (3, 9, 0.002, 0.01), (3, 9, 0.2, 1.5),
                                         (2, 10, 0.1, 1.0), (6, 1, 0.002, 0.01)]:
        g.edges.append(PoseGraphEdge(i, j, measured(i, j, rot_noise, trans_noise), True))
    return g


class TestEvaluationMatchesReference:
    """The batched evaluation and normal equations optimize runs against the
    per-edge quaternion oracle (tests/loop_reference.py)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cost_and_normal_equations(self, seed):
        g = seeded_graph(seed)
        huber = pg.HUBER_SCALE
        edges, ev = evaluate(g)
        h, grad = pg._normal_equations(edges, ev)
        ref_edges = ref.information_edges(g.edges, g.config)
        ref_cost = ref.graph_cost(g.nodes, ref_edges, huber)
        ref_h, ref_grad = ref.build_normal_equations(g.nodes, ref_edges, huber)

        # Error scale, fixed from float64 eps before measuring.  Both sides
        # compose the same three transforms and take a log, in a different
        # order (3x3 matrices here, quaternions there): some dozens of
        # roundings of terms no larger than T = 1 + the largest translation,
        # so each residual and Jacobian entry differs by <= 128 eps T in
        # absolute and relative terms respectively (Jl^-1 carries the
        # residual's error into J).  With u_e = ||W_e||_2 T the whitened
        # size of that error, and 2 for the products and sums after it:
        #   cost:  c sum_e (s_e + ||W_e r_e|| u_e)
        #   H:     c sum_e kappa_e |W_e J_e|^T |W_e J_e|   (assembled)
        #   g:     c sum_e kappa_e |W_e J_e|^T (|W_e r_e| + u_e)
        # with c = 256 eps T.
        t_max = max(np.abs(p.translation).max() for p in g.nodes)
        t_max = max([t_max] + [np.abs(e.measurement.translation).max() for e in ref_edges])
        c = 256 * np.finfo(float).eps * (1.0 + t_max)
        n = len(g.nodes)
        cost_scale = 0.0
        h_scale = np.zeros((n, n, 6, 6))
        g_scale = np.zeros((n, 6))
        inside = beyond = 0
        for e in ref_edges:
            r, _, j_to = ref.edge_jacobians(g.nodes, e)
            w = ref.whitener(e.information)
            rw, wj = w @ r, np.abs(w @ j_to)
            s = float(rw @ rw)
            kappa = ref.robust_terms(s, huber)[1] if e.robust else 1.0
            inside += e.robust and s <= huber * huber
            beyond += e.robust and s > huber * huber
            u = np.linalg.norm(w, 2) * (1.0 + t_max)
            cost_scale += s + np.sqrt(s) * u
            for a in (e.from_node, e.to_node):
                g_scale[a] += kappa * wj.T @ (np.abs(rw) + u)
                for b in (e.from_node, e.to_node):
                    h_scale[a, b] += kappa * wj.T @ wj
        assert inside >= 3 and beyond >= 2  # both sides of the Huber scale
        h_scale = h_scale[1:, 1:].transpose(0, 2, 1, 3).reshape(6 * (n - 1), -1)

        assert abs(ev.cost - ref_cost) <= c * cost_scale
        assert (np.abs(h.toarray() - ref_h.toarray()) <= c * h_scale).all()
        assert (np.abs(grad - ref_grad) <= c * g_scale[1:].ravel()).all()

    def test_each_state_evaluated_once(self, monkeypatch):
        # the accepted step's evaluation gives both its cost and the next
        # normal equations; no solve evaluates one node state twice
        states = []

        def counting(edges, rotation, translation):
            states.append(rotation.tobytes() + translation.tobytes())
            return unwrapped(edges, rotation, translation)

        unwrapped = pg._evaluate
        monkeypatch.setattr(pg, "_evaluate", counting)
        rng = np.random.default_rng(11)
        g, _ = noisy_chain_graph(rng, 30, [(29, 0), (20, 3), (25, 12)])
        report = optimize(g)
        assert report.iterations >= 3
        assert len(states) >= 1 + report.iterations
        assert len(set(states)) == len(states)


class TestScale:
    def test_thousand_node_multi_lap_chain_matches_reference(self):
        # Four laps of a 250-node circle with a yaw bias, so the chain
        # drifts by lap; every 30th node of laps 2-4 closes a loop to the
        # same place one lap earlier.
        rng = np.random.default_rng(5)
        per_lap, laps, radius = 250, 4, 40.0
        true = []
        for k in range(per_lap * laps):
            yaw = k * (2 * np.pi / per_lap)
            pos = radius * np.array([np.sin(yaw), 1.0 - np.cos(yaw), 0.01 * k / per_lap])
            true.append(Pose.from_rt([0, 0, yaw], pos))
        bias = rotz(0.04)
        g = PoseGraph(CFG)
        add_odometry_node(g, true[0])
        est = true[0]
        for k in range(1, len(true)):
            rel = true[k - 1].inverse().compose(true[k])
            jitter = Pose.from_rt(rng.normal(0.0, 1e-3, 3),
                          rng.normal(0.0, 0.01, 3))
            est = est.compose(bias.compose(rel).compose(jitter))
            add_odometry_node(g, est)
        loops = range(per_lap, len(true), 30)
        for k in loops:
            rel = true[k - per_lap].inverse().compose(true[k])
            add_loop_edge(g, k - per_lap, k, rel)
        assert len(g.nodes) == 1000 and len(loops) >= 20

        oracle = copy.deepcopy(g)
        oracle.edges = ref.information_edges(g.edges, g.config)
        report = optimize(g)
        ref_report = ref.optimize(oracle)
        assert report.iterations == ref_report.iterations
        assert report.converged == ref_report.converged
        assert report.final_cost < 0.5 * report.initial_cost
        assert abs(report.final_cost - ref_report.final_cost) <= 1e-9 * ref_report.final_cost
        gap = max(np.linalg.norm(a.translation - b.translation)
                  for a, b in zip(g.nodes, oracle.nodes))
        assert gap < 1e-6
