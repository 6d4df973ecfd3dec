"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure). Run with::

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import resource
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from tokenmorph import (
    BarycenterConfig,
    MorphConfig,
    TokenSet,
    endpoint_errors,
    gen_synthetic,
    morph_geometry,
    morph_texture,
    pairwise_barycenter,
    selective_texture_tokens,
    solve_exact_ot,
    write_tokens,
)
from tokenmorph.cli import main as cli_main

from conftest import (
    brute_force_permutation,
    multiset_max_distance,
    random_tokenset,
    scipy_assignment_permutation,
    sorted_1d_ot,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {name}")


def test_criterion_01_ot_oracle_equivalence():
    with criterion(1, "exact OT equals permutation brute force (200 instances, <30s)"):
        rng = np.random.default_rng(20240601)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 6))
            a = random_tokenset(rng, n, m)
            b = random_tokenset(rng, n, m)
            _, reference = brute_force_permutation(a.points, b.points)
            got = solve_exact_ot(a, b).total_cost
            assert got == pytest.approx(reference, rel=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_sorted_1d_closed_form():
    with criterion(2, "exact OT equals sorted matching in 1-D (100 instances)"):
        rng = np.random.default_rng(20240602)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            a = random_tokenset(rng, n, 1, scale=2.0)
            b = random_tokenset(rng, n, 1, scale=2.0)
            reference = sorted_1d_ot(a, b)
            got = solve_exact_ot(a, b).total_cost
            assert got == pytest.approx(reference, rel=1e-9)


def test_criterion_03_plan_feasibility():
    with criterion(3, "every transport plan satisfies both marginals within 1e-9"):
        rng = np.random.default_rng(20240603)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            n2 = int(rng.integers(1, 12))
            m = int(rng.integers(1, 6))
            if rng.random() < 0.5:
                a = random_tokenset(rng, n, m)
                b = random_tokenset(rng, n, m)
            else:
                wa = rng.random(n) + 0.05
                wb = rng.random(n2) + 0.05
                a = TokenSet(rng.normal(size=(n, m)), wa / wa.sum())
                b = TokenSet(rng.normal(size=(n2, m)), wb / wb.sum())
            plan = solve_exact_ot(a, b)
            rows = np.bincount(plan.rows, plan.mass, a.n)
            cols = np.bincount(plan.cols, plan.mass, b.n)
            assert float(np.max(np.abs(rows - a.weights))) <= 1e-9
            assert float(np.max(np.abs(cols - b.weights))) <= 1e-9
            assert plan.mass.min() > 0.0


def test_criterion_04_displacement_interpolation_equivalence():
    with criterion(4, "pairwise barycenter equals matched lerp (multiset, 1e-6)"):
        rng = np.random.default_rng(20240604)
        for n in (2, 3, 5, 7, 10, 13, 16):
            source = random_tokenset(rng, n, 3)
            target = random_tokenset(rng, n, 3)
            if n <= 7:
                sigma, _ = brute_force_permutation(source.points, target.points)
            else:
                sigma = scipy_assignment_permutation(source.points, target.points)
            for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                result = pairwise_barycenter(source, target, beta, source)
                expected = (1.0 - beta) * source.points + beta * target.points[sigma]
                assert result.converged
                assert result.iterations_used <= 100
                assert multiset_max_distance(result.support.points, expected) < 1e-6


def test_criterion_05_trajectory_endpoint_fidelity():
    with criterion(5, "J=6 sequential morph: 8 frames, exact beta grid, endpoints <1e-6"):
        rng = np.random.default_rng(20240605)
        for _ in range(5):
            source = random_tokenset(rng, 12, 4)
            target = random_tokenset(rng, 12, 4)
            trajectory = morph_geometry(source, target, MorphConfig(J=6))
            assert len(trajectory.frames) == 8
            assert trajectory.betas == tuple(alpha / 7 for alpha in range(8))
            err_source, err_target = endpoint_errors(trajectory, source, target)
            assert err_source < 1e-6
            assert err_target < 1e-6
            for diag in trajectory.frame_diagnostics:
                assert diag.converged and diag.iterations_used <= 100


def test_criterion_06_dirac_exactness():
    with criterion(6, "single-token morph lies on the segment with equal spacing (1e-9)"):
        source = TokenSet([[0.0, 0.0, 0.0]])
        target = TokenSet([[3.0, -4.0, 12.0]])
        trajectory = morph_geometry(source, target, MorphConfig(J=6))
        direction = target.points[0] - source.points[0]
        for beta, frame in zip(trajectory.betas, trajectory.frames):
            expected = source.points[0] + beta * direction
            assert float(np.max(np.abs(frame.points[0] - expected))) < 1e-9
        steps = np.asarray(trajectory.step_w2)
        assert float(np.max(np.abs(steps - steps[0]))) < 1e-9


def test_criterion_07_ablation_analogue_two_cluster_swap():
    with criterion(7, "two-cluster swap: sequential step ratio <= linear-init and <= 2.0"):
        source, target = gen_synthetic("two_cluster_swap_pair", 16, 2, seed=7)
        sequential = morph_geometry(source, target, MorphConfig(J=6, init_mode="sequential"))
        linear = morph_geometry(source, target, MorphConfig(J=6, init_mode="linear_init"))
        seq_steps = np.asarray(sequential.step_w2)
        lin_steps = np.asarray(linear.step_w2)
        seq_ratio = float(seq_steps.max() / seq_steps.mean())
        lin_ratio = float(lin_steps.max() / lin_steps.mean())
        print(
            f"  step ratios: sequential {seq_ratio:.3f}, linear-init {lin_ratio:.3f}"
            f" (linear-init exceeds 2x mean: {bool(lin_steps.max() > 2 * lin_steps.mean())})"
        )
        assert seq_ratio <= lin_ratio
        assert seq_ratio <= 2.0


def test_criterion_08_selective_interpolation_invariants():
    with criterion(8, "selective blending: closure, tau-monotone, boundaries, identity"):
        rng = np.random.default_rng(20240608)
        source = random_tokenset(rng, 10, 4)
        target = random_tokenset(rng, 10, 4)
        trajectory = morph_geometry(source, target, MorphConfig(J=4))

        for frame in trajectory.frames:
            report = selective_texture_tokens(frame, source, target, 0.3)
            for k, decision in enumerate(report.decisions):
                token = report.output.points[k]
                if decision.kept_barycenter:
                    assert np.array_equal(token, frame.points[k])
                else:
                    assert np.array_equal(
                        token, source.points[decision.nearest_source_index]
                    )

        frame = trajectory.frames[2]
        previous: set[int] = set()
        for tau in np.arange(0.0, 1.01, 0.1):
            report = selective_texture_tokens(frame, source, target, float(tau))
            copied = {k for k, d in enumerate(report.decisions) if not d.kept_barycenter}
            assert previous <= copied
            previous = copied

        report0 = selective_texture_tokens(frame, source, target, 0.0)
        for k, decision in enumerate(report0.decisions):
            if decision.sim < 1.0:
                assert decision.kept_barycenter
        report1 = selective_texture_tokens(frame, source, target, 1.0)
        for decision in report1.decisions:
            assert decision.kept_barycenter == (decision.sim < 0.0)

        identity = morph_geometry(source, source, MorphConfig(J=4))
        for report in morph_texture(identity, source, source, 0.3):
            np.testing.assert_array_equal(report.output.points, source.points)


def test_criterion_09_convergence_budget():
    with criterion(9, "barycenter runs stay within 100 iterations at threshold 1e-5"):
        config = BarycenterConfig()
        assert config.max_iterations == 100
        assert config.stop_threshold == 1e-5
        rng = np.random.default_rng(20240609)
        for n in (4, 9, 16):
            source = random_tokenset(rng, n, 3)
            target = random_tokenset(rng, n, 3)
            for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                result = pairwise_barycenter(source, target, beta, source, config)
                assert result.iterations_used <= 100
                assert result.converged
            trajectory = morph_geometry(source, target, MorphConfig(J=6))
            for diag in trajectory.frame_diagnostics:
                assert diag.iterations_used <= 100
                assert diag.converged


def test_criterion_10_performance_budget():
    with criterion(10, "n=256, m=64, J=6 sequential morph in <=120s and <1GB"):
        source = gen_synthetic("gaussian_blob", 256, 64, seed=101)
        target = gen_synthetic("gaussian_blob", 256, 64, seed=202)
        start = time.perf_counter()
        trajectory = morph_geometry(source, target, MorphConfig(J=6))
        elapsed = time.perf_counter() - start
        assert len(trajectory.frames) == 8
        assert all(d.converged for d in trajectory.frame_diagnostics)
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < 1024 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"
        print(f"  morph took {elapsed:.2f}s, peak RSS {peak_kb / 1024:.0f} MB")


def test_criterion_11_cli_reproducibility(tmp_path):
    with criterion(11, "re-running CLI commands with manifest settings is byte-identical"):
        rng = np.random.default_rng(20240611)
        source_path = tmp_path / "source.json"
        target_path = tmp_path / "target.json"
        write_tokens(TokenSet(rng.normal(size=(8, 3))), source_path)
        write_tokens(TokenSet(rng.normal(size=(8, 3))), target_path)

        def run_twice(argv_builder):
            out1, out2 = tmp_path / "a", tmp_path / "b"
            for out in (out1, out2):
                with redirect_stdout(io.StringIO()):
                    assert cli_main(argv_builder(out)) == 0
            bytes1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
            bytes2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
            assert bytes1 == bytes2
            for p in list(out1.iterdir()) + list(out2.iterdir()):
                p.unlink()

        run_twice(lambda out: [
            "morph", str(source_path), str(target_path),
            "--frames", "6", "--tau", "0.3", "--out-dir", str(out),
        ])
        run_twice(lambda out: [
            "morph", str(source_path), str(target_path),
            "--frames", "3", "--init", "linear-init",
            "--format", "binary", "--out-dir", str(out),
        ])
        run_twice(lambda out: [
            "gen-synthetic", "--kind", "two_cluster_swap_pair",
            "--n", "8", "--d", "2", "--seed", "4", "--out-dir", str(out),
        ])
        run_twice(lambda out: [
            "sweep-tau", str(source_path), str(target_path), "--out-dir", str(out),
        ])
        run_twice(lambda out: ["demo", "--frames", "2", "--out-dir", str(out)])

        # The manifest carries the full configuration used for the run.
        out = tmp_path / "manifest_check"
        with redirect_stdout(io.StringIO()):
            cli_main([
                "morph", str(source_path), str(target_path),
                "--frames", "2", "--out-dir", str(out),
            ])
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("frames", "init", "tau", "max_iter", "tol", "format"):
            assert key in manifest["parameters"]
        assert manifest["inputs"]["source"]["sha256"]
