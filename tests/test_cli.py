import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import tokenmorph.cli as cli_module
from tokenmorph import (
    MorphConfig,
    TokenSet,
    decode_tokens_to_shape,
    gen_synthetic,
    index_lerp,
    morph_geometry,
    morph_texture,
    pairwise_barycenter,
    read_tokens,
    render_trajectory_svg,
    selective_texture_tokens,
    write_tokens,
)
import tokenmorph.ot as ot_module
from tokenmorph.tokenio import tokens_to_binary_bytes, tokens_to_json_bytes
from tokenmorph.cli import (
    EXIT_DIMENSION,
    EXIT_FORMAT,
    EXIT_INVALID_VALUE,
    EXIT_MEMORY,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)


@pytest.fixture
def token_files(tmp_path):
    rng = np.random.default_rng(211)
    source = TokenSet(rng.normal(size=(6, 3)))
    target = TokenSet(rng.normal(size=(6, 3)))
    source_path = tmp_path / "source.json"
    target_path = tmp_path / "target.json"
    write_tokens(source, source_path)
    write_tokens(target, target_path)
    return source_path, target_path


@pytest.fixture
def weighted_files(tmp_path):
    """Dirichlet-weighted sets of unequal size: every solve is a simplex solve."""
    rng = np.random.default_rng(223)
    paths = []
    for name, n in (("wsource.json", 9), ("wtarget.json", 7)):
        path = tmp_path / name
        write_tokens(TokenSet(rng.normal(size=(n, 3)), rng.dirichlet(np.ones(n))), path)
        paths.append(path)
    return paths


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestDist:
    def test_identical_files_print_zero(self, token_files, capsys):
        source_path, _ = token_files
        assert main(["dist", str(source_path), str(source_path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.0"

    def test_distinct_files_print_positive(self, token_files, capsys):
        source_path, target_path = token_files
        assert main(["dist", str(source_path), str(target_path)]) == EXIT_OK
        assert float(capsys.readouterr().out.strip()) > 0.0


class TestMorph:
    def test_writes_frames_index_and_manifest(self, token_files, tmp_path, capsys):
        source_path, target_path = token_files
        out = tmp_path / "run"
        code = main([
            "morph", str(source_path), str(target_path),
            "--frames", "6", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert [f"frame_{k:03d}.json" for k in range(8)] == [
            n for n in names if n.startswith("frame_")
        ]
        assert "frames_index.json" in names and "manifest.json" in names

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "morph"
        assert manifest["parameters"]["frames"] == 6
        assert manifest["betas"] == [alpha / 7 for alpha in range(8)]
        assert len(manifest["frames"]) == 8
        assert all(entry["converged"] for entry in manifest["frames"])

    def test_tau_flag_adds_texture_frames(self, token_files, tmp_path):
        source_path, target_path = token_files
        out = tmp_path / "run"
        main([
            "morph", str(source_path), str(target_path),
            "--tau", "0.3", "--out-dir", str(out),
        ])
        texture = [p for p in out.iterdir() if p.name.startswith("texture_")]
        assert len(texture) == 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["texture_frames"]) == 8

    def test_binary_format_round_trips(self, token_files, tmp_path):
        source_path, target_path = token_files
        out = tmp_path / "run"
        main([
            "morph", str(source_path), str(target_path),
            "--frames", "1", "--format", "binary", "--out-dir", str(out),
        ])
        frame = read_tokens(out / "frame_000.bmt")
        np.testing.assert_array_equal(frame.points, read_tokens(source_path).points)

    def test_reruns_are_byte_identical(self, token_files, tmp_path):
        source_path, target_path = token_files
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv_tail = [str(source_path), str(target_path), "--tau", "0.4"]
        assert main(["morph", *argv_tail, "--out-dir", str(out1)]) == EXIT_OK
        assert main(["morph", *argv_tail, "--out-dir", str(out2)]) == EXIT_OK
        assert _dir_bytes(out1) == _dir_bytes(out2)

    def test_weighted_unequal_sizes(self, weighted_files, tmp_path, capsys):
        # The sequential morph takes any pair; its frames carry weights.
        source, target = map(read_tokens, weighted_files)
        out = tmp_path / "run"
        argv = ["morph", *map(str, weighted_files), "--frames", "2", "--tau", "0.9"]
        assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
        trajectory = morph_geometry(source, target, MorphConfig(J=2))
        for k, frame in enumerate(trajectory.frames):
            written = read_tokens(out / f"frame_{k:03d}.json")
            np.testing.assert_array_equal(written.points, frame.points)
            np.testing.assert_array_equal(written.weights, frame.weights)
        manifest = json.loads((out / "manifest.json").read_text())
        assert [t["copied_from_source"] + t["kept_barycenter"]
                for t in manifest["texture_frames"]] == [f.n for f in trajectory.frames]
        # The index-wise modes still need uniform weights and equal sizes.
        capsys.readouterr()
        assert main([*argv, "--init", "linear-init", "--out-dir", str(tmp_path / "l")]) \
            == EXIT_FORMAT
        assert "init mode linear_init requires uniform token weights" in capsys.readouterr().err

    def test_init_mode_flags(self, token_files, tmp_path):
        source_path, target_path = token_files
        for flag in ("sequential", "linear-init", "naive-lerp"):
            out = tmp_path / flag
            code = main([
                "morph", str(source_path), str(target_path),
                "--frames", "1", "--init", flag, "--out-dir", str(out),
            ])
            assert code == EXIT_OK


class TestTextureReuse:
    """``morph --tau`` encodes and hashes an unchanged frame's bytes once,
    not twice, and hashes no file that the manifest does not list."""

    def _morph(self, tmp_path, monkeypatch, tau):
        source, target = gen_synthetic("two_cluster_swap_pair", 16, 4, 0)
        paths = [tmp_path / "source.json", tmp_path / "target.json"]
        write_tokens(source, paths[0])
        write_tokens(target, paths[1])
        encodes = []
        writer = cli_module.tokens_to_json_bytes

        def counted(tokens):
            encodes.append(tokens)
            return writer(tokens)

        monkeypatch.setattr(cli_module, "tokens_to_json_bytes", counted)
        self.hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda data=b"": self.hashed.append(data) or sha256(data))
        out = tmp_path / f"run_{tau}"
        argv = ["morph", *map(str, paths), "--tau", str(tau), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        monkeypatch.undo()
        manifest = json.loads((out / "manifest.json").read_text())
        return out, manifest, len(encodes), source

    def test_nothing_copied_writes_frame_bytes(self, tmp_path, monkeypatch):
        out, manifest, encodes, _ = self._morph(tmp_path, monkeypatch, 0.0)
        assert all(t["copied_from_source"] == 0 for t in manifest["texture_frames"])
        for k in range(8):
            texture = (out / f"texture_{k:03d}.json").read_bytes()
            assert texture == (out / f"frame_{k:03d}.json").read_bytes()
            assert manifest["texture_frames"][k]["sha256"] == manifest["frames"][k]["sha256"]
            assert manifest["frames"][k]["sha256"] == hashlib.sha256(texture).hexdigest()
            # A frame that equals an input file is hashed for the manifest too.
            inputs = [(tmp_path / name).read_bytes() for name in ("source.json", "target.json")]
            assert self.hashed.count(texture) == 1 + inputs.count(texture)
        assert encodes == 8
        # The manifest and the frames index carry no digest, so neither is hashed.
        for name in ("manifest.json", "frames_index.json"):
            assert (out / name).read_bytes() not in self.hashed

    def test_copied_tokens_keep_the_per_token_invariants(self, tmp_path, monkeypatch):
        out, manifest, encodes, source = self._morph(tmp_path, monkeypatch, 0.01)
        copied = [t["copied_from_source"] for t in manifest["texture_frames"]]
        assert all(0 < c < 16 for c in copied[1:])
        source_rows = {row.tobytes() for row in source.points}
        for k in range(1, 8):
            frame = read_tokens(out / f"frame_{k:03d}.json").points
            texture = read_tokens(out / f"texture_{k:03d}.json").points
            changed = [i for i in range(16) if frame[i].tobytes() != texture[i].tobytes()]
            assert 0 < len(changed) <= copied[k]
            assert all(texture[i].tobytes() in source_rows for i in changed)
        # Every texture frame copies something, so each one is encoded and hashed.
        assert encodes == 16
        for k in range(1, 8):
            assert self.hashed.count((out / f"texture_{k:03d}.json").read_bytes()) == 1


class TestOtherCommands:
    def test_barycenter_writes_support(self, token_files, tmp_path):
        source_path, target_path = token_files
        out = tmp_path / "bc"
        code = main([
            "barycenter", str(source_path), str(target_path),
            "--beta", "0.5", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        support = read_tokens(out / "barycenter.json")
        assert support.n == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["converged"]

    @pytest.mark.parametrize("init", ["lerp", "target"])
    def test_barycenter_init_modes(self, init, token_files, tmp_path):
        source_path, target_path = token_files
        source, target = read_tokens(source_path), read_tokens(target_path)
        out = tmp_path / "bc"
        assert main([
            "barycenter", str(source_path), str(target_path),
            "--beta", "0.3", "--init", init, "--out-dir", str(out),
        ]) == EXIT_OK
        start = index_lerp(source, target, 0.3) if init == "lerp" else target
        expected = pairwise_barycenter(source, target, 0.3, start)
        assert (out / "barycenter.json").read_bytes() == tokens_to_json_bytes(expected.support)

    def test_texture_select(self, token_files, tmp_path):
        source_path, target_path = token_files
        out = tmp_path / "sel"
        code = main([
            "texture-select", str(source_path), str(source_path), str(target_path),
            "--tau", "0.3", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads((out / "selection_report.json").read_text())
        assert len(report["decisions"]) == 6

    @pytest.mark.parametrize("kind, n, tau", [
        *(pytest.param("two_cluster_swap_pair", 16, tau, id=str(tau))
          for tau in (0.0, 1e-05, 0.3, 0.9, 1.0)),
        pytest.param("gaussian_blob", 1024, 0.3, id="blob-1024"),
        pytest.param("overflowing_norms", 2, 0.0, id="overflowing-norms"),
    ])
    def test_selection_report_holds_the_decisions(self, kind, n, tau, tmp_path):
        # A swap-pair midpoint at tau 0.9 copies some tokens and keeps others;
        # 1 024 blob tokens are read by the numpy reader.
        if kind == "gaussian_blob":
            blended, source, target = (gen_synthetic(kind, n, 4, seed) for seed in (1, 2, 3))
        elif kind == "two_cluster_swap_pair":
            source, target = gen_synthetic(kind, n, 4, 0)
            blended = index_lerp(source, target, 0.5)
        else:  # squared distances finite, norms past 1.34e154
            blended, source, target = map(TokenSet, (
                [[1.5e154, 0.0], [1.5e154, 2e150]],
                [[1.5e154, 1e150], [1.5e154, 3e150]],
                [[1.5e154, 5e149], [1.5e154, 2.5e150]],
            ))
        paths = [tmp_path / f"{name}.json" for name in ("blended", "source", "target")]
        for tokens, path in zip((blended, source, target), paths):
            write_tokens(tokens, path)
        out = tmp_path / "sel"
        assert main(["texture-select", *map(str, paths), "--tau", str(tau),
                     "--out-dir", str(out)]) == EXIT_OK
        data = (out / "selection_report.json").read_bytes()
        text = data.decode()

        def reject(constant):
            raise ValueError(f"{constant} in the selection report")

        written = json.loads(text, parse_constant=reject)["decisions"]
        expected = selective_texture_tokens(blended, source, target, tau).decisions
        assert [d["token"] for d in written] == list(range(n))
        for name in ("nearest_source_index", "nearest_target_index"):
            assert all(type(d[name]) is int for d in written)
            assert [d[name] for d in written] == getattr(expected, name).tolist()
        assert [d["sim"] for d in written] == expected.sim.tolist()
        kept = [d["kept_barycenter"] for d in written]
        assert all(type(k) is bool for k in kept)
        assert kept == expected.kept_barycenter.tolist()
        assert text.count('"kept_barycenter": ') == n
        assert text.count('"kept_barycenter": true') == sum(kept)
        if tau == 0.9:
            assert 0 < sum(kept) < n
        # The bytes of json's indented encoder over the records.
        fields = expected.dtype.names
        records = [{"token": k, **dict(zip(fields, record))}
                   for k, record in enumerate(expected.tolist())]
        assert data == (json.dumps({"tau": tau, "decisions": records},
                                   sort_keys=True, indent=2) + "\n").encode()

    def test_sweep_tau_default_grid(self, token_files, tmp_path):
        source_path, target_path = token_files
        out = tmp_path / "sweep"
        code = main([
            "sweep-tau", str(source_path), str(target_path), "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        for tau in (0.2, 0.3, 0.4, 0.6, 0.8):
            report = json.loads((out / f"sweep_tau_{tau}.json").read_text())
            assert report["tau"] == tau
            assert len(report["per_frame"]) == 8

    def test_sweep_tau_counts_match_per_tau_passes(self, tmp_path):
        source, target = gen_synthetic("two_cluster_swap_pair", 16, 4, 0)
        paths = [tmp_path / "source.json", tmp_path / "target.json"]
        write_tokens(source, paths[0])
        write_tokens(target, paths[1])
        grid = [0.0, 0.01, 0.05, 0.5, 1.0]
        out = tmp_path / "sweep"
        argv = ["sweep-tau", *map(str, paths), "--frames", "4",
                "--grid", ",".join(map(str, grid)), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        trajectory = morph_geometry(source, target, MorphConfig(J=4))
        for tau in grid:
            report = json.loads((out / f"sweep_tau_{tau}.json").read_text())
            expected = [
                sum(not d.kept_barycenter for d in r.decisions)
                for r in morph_texture(trajectory, source, target, tau)
            ]
            assert [f["copied_from_source"] for f in report["per_frame"]] == expected
            assert [f["kept_barycenter"] for f in report["per_frame"]] == [
                16 - c for c in expected
            ]

    def test_sweep_tau_on_unequal_sizes(self, weighted_files, tmp_path):
        # Frames of a 9-token and a 7-token set carry up to 15 tokens each:
        # copied_fraction counts the tokens of every frame, not 8 x 9.
        source, target = map(read_tokens, weighted_files)
        grid = [0.3, 0.9]
        out = tmp_path / "sweep"
        argv = ["sweep-tau", *map(str, weighted_files), "--frames", "3",
                "--grid", ",".join(map(str, grid)), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        trajectory = morph_geometry(source, target, MorphConfig(J=3))
        sizes = [frame.n for frame in trajectory.frames]
        assert max(sizes) <= source.n + target.n - 1 and sizes != [source.n] * 5
        for tau in grid:
            report = json.loads((out / f"sweep_tau_{tau}.json").read_text())
            copied = [sum(~r.decisions.kept_barycenter)
                      for r in morph_texture(trajectory, source, target, tau)]
            assert [f["copied_from_source"] for f in report["per_frame"]] == copied
            assert [f["copied_from_source"] + f["kept_barycenter"]
                    for f in report["per_frame"]] == sizes
            assert report["copied_fraction"] == sum(copied) / sum(sizes)

    def test_sweep_tau_on_uniform_sets_of_unequal_size(self, tmp_path):
        # A uniform 15-token set morphed to 3 tokens: each frame has 15
        # tokens, none of them rounding dust, so copied_fraction divides
        # by 15 x 5 frames.
        rng = np.random.default_rng(1)
        paths = [tmp_path / "u15.json", tmp_path / "u3.json"]
        for path, n in zip(paths, (15, 3)):
            write_tokens(TokenSet(rng.normal(size=(n, 2))), path)
        out = tmp_path / "sweep"
        assert main(["sweep-tau", *map(str, paths), "--frames", "3", "--grid", "0.3,0.9",
                     "--out-dir", str(out)]) == EXIT_OK
        for tau in (0.3, 0.9):
            report = json.loads((out / f"sweep_tau_{tau}.json").read_text())
            assert [f["copied_from_source"] + f["kept_barycenter"]
                    for f in report["per_frame"]] == [15] * 5
            copied = sum(f["copied_from_source"] for f in report["per_frame"])
            assert report["copied_fraction"] == copied / (15 * 5)
            assert copied > 0

    def test_sweep_tau_checks_every_threshold_before_writing(self, token_files, tmp_path):
        # Wrote sweep_tau_0.3.json before the bad threshold's exit 6 before.
        source_path, target_path = token_files
        out = tmp_path / "sweep"
        code = main(["sweep-tau", str(source_path), str(target_path),
                     "--grid", "0.3,1.5", "--out-dir", str(out)])
        assert code == EXIT_INVALID_VALUE
        assert not out.exists()
        # The threshold is checked before the inputs are read.
        assert main(["sweep-tau", str(tmp_path / "nope.json"), str(target_path),
                     "--grid", "1.5", "--out-dir", str(out)]) == EXIT_INVALID_VALUE

    @pytest.mark.parametrize("grid, message", [
        ("0.3,0.30", "--grid repeats threshold 0.3: '0.3' and '0.30'"),
        ("0.2,-0.0,0.0", "--grid repeats threshold 0.0: '-0.0' and '0.0'"),
    ])
    @pytest.mark.parametrize("missing", [False, True], ids=["inputs", "missing input"])
    def test_sweep_tau_rejects_a_repeated_threshold(self, grid, message, missing, token_files,
                                                     tmp_path, capsys):
        # Exited 0 before, listing sweep_tau_0.3.json twice in the manifest
        # or writing both sweep_tau_-0.0.json and sweep_tau_0.0.json.
        source_path, target_path = token_files
        source = tmp_path / "nope.json" if missing else source_path
        out = tmp_path / "sweep"
        code = main(["sweep-tau", str(source), str(target_path), f"--grid={grid}",
                     "--out-dir", str(out)])
        assert code == EXIT_INVALID_VALUE
        assert capsys.readouterr().err == f"tokenmorph: error[invalid-value]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("morph", ["--frames", "1"]),
        ("barycenter", ["--beta", "0.5"]),
        ("texture-select", ["--tau", "0.3"]),
        ("sweep-tau", ["--frames", "1", "--grid", "0.3"]),
    ])
    def test_each_input_is_read_once(self, command, extra, token_files, tmp_path,
                                     monkeypatch):
        source_path, target_path = token_files
        inputs = [source_path, target_path]
        if command == "texture-select":
            inputs = [source_path, *inputs]
        reads = []

        def counted(path):
            reads.append(path)
            return read_tokens(path)

        monkeypatch.setattr(cli_module, "read_tokens", counted)
        out = tmp_path / "out"
        argv = [command, *map(str, inputs), *extra, "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert reads == [str(path) for path in inputs]
        manifest = json.loads((out / "manifest.json").read_text())
        for entry, path in zip(manifest["inputs"].values(), inputs):
            assert entry["file"] == path.name
            assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
            assert (entry["n"], entry["d"]) == (6, 3)

    @pytest.mark.parametrize("command, output, extra", [
        ("texture-select", "selected.json", ["--tau", "0.9"]),
        ("morph", "frame_000.json", ["--frames", "1"]),
    ])
    def test_an_input_that_an_output_replaces_keeps_its_digest(
        self, command, output, extra, token_files, tmp_path
    ):
        # Recorded the digest of the output that replaced the input before.
        source_path, target_path = token_files
        out = tmp_path / "out"
        out.mkdir()
        replaced = out / output
        if command == "texture-select":
            source, target = read_tokens(source_path), read_tokens(target_path)
            write_tokens(index_lerp(source, target, 0.5), replaced)
            inputs = {"blended": replaced, "source": source_path, "target": target_path}
        else:
            replaced.write_bytes(target_path.read_bytes())
            inputs = {"source": source_path, "target": replaced}
        read = replaced.read_bytes()
        argv = [command, *map(str, inputs.values()), *extra, "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert replaced.read_bytes() != read  # the output did replace it
        manifest = json.loads((out / "manifest.json").read_text())
        for name, path in inputs.items():
            data = read if path == replaced else path.read_bytes()
            assert manifest["inputs"][name]["sha256"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("argv, parameters, inputs", [
        (["barycenter", "S", "T", "--beta", "0.5"],
         {"beta": 0.5, "init": "source", "max_iter": 100, "tol": 1e-5, "format": "json"},
         ("source", "target")),
        (["morph", "S", "T", "--frames", "1"],
         {"frames": 1, "init": "sequential", "tau": None, "max_iter": 100, "tol": 1e-5,
          "format": "json"},
         ("source", "target")),
        (["texture-select", "S", "S", "T", "--tau", "0.3"],
         {"tau": 0.3, "format": "json"},
         ("blended", "source", "target")),
        (["sweep-tau", "S", "T", "--frames", "1", "--grid", "0.3,0.5"],
         {"grid": [0.3, 0.5], "frames": 1},
         ("source", "target")),
        (["gen-synthetic", "--kind", "ring", "--n", "4", "--d", "2"],
         {"kind": "ring", "n": 4, "d": 2, "seed": 0, "name": "ring", "format": "json"},
         ()),
        (["demo", "--frames", "1", "--points", "5"],
         {"frames": 1, "points": 5, "tau": None},
         ()),
    ])
    def test_manifest_shape(self, argv, parameters, inputs, token_files, tmp_path):
        paths = {"S": str(token_files[0]), "T": str(token_files[1])}
        out = tmp_path / "out"
        assert main([paths.get(a, a) for a in argv] + ["--out-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["manifest"] == "tokenmorph-run/1"
        assert manifest["command"] == argv[0]
        # Exact equality: no out_dir, func, command or input name leaks in.
        assert manifest["parameters"] == parameters
        assert list(manifest.get("inputs", {})) == sorted(inputs)
        for entry in manifest.get("inputs", {}).values():
            assert set(entry) == {"file", "sha256", "n", "d"}

    def test_gen_synthetic_single_and_pair(self, tmp_path):
        out = tmp_path / "gen"
        assert main([
            "gen-synthetic", "--kind", "gaussian_blob", "--n", "5", "--d", "2",
            "--seed", "9", "--out-dir", str(out),
        ]) == EXIT_OK
        assert (out / "gaussian_blob.json").exists()
        assert main([
            "gen-synthetic", "--kind", "two_cluster_swap_pair", "--n", "8", "--d", "2",
            "--seed", "9", "--name", "pair", "--out-dir", str(out),
        ]) == EXIT_OK
        assert (out / "pair_source.json").exists()
        assert (out / "pair_target.json").exists()

    def test_demo_writes_svg(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--frames", "2", "--points", "12", "--out-dir", str(out)]) == EXIT_OK
        svg = (out / "demo.svg").read_text()
        ET.fromstring(svg)
        assert svg.count("<polygon") == 4

    def test_demo_tau_renders_the_textured_frames(self, tmp_path):
        out, plain = tmp_path / "demo", tmp_path / "plain"
        assert main(["demo", "--tau", "0.3", "--out-dir", str(out)]) == EXIT_OK
        assert main(["demo", "--out-dir", str(plain)]) == EXIT_OK
        source, target = cli_module._demo_shapes(24)
        trajectory = morph_geometry(source, target, MorphConfig(J=6))
        frames = [r.output for r in morph_texture(trajectory, source, target, 0.3)]
        svg = render_trajectory_svg([decode_tokens_to_shape(frame) for frame in frames])
        assert (out / "demo.svg").read_bytes() == svg.encode("utf-8")
        assert (out / "demo.svg").read_bytes() != (plain / "demo.svg").read_bytes()

    def test_out_dir_env_default(self, token_files, tmp_path, monkeypatch):
        source_path, _ = token_files
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("TOKENMORPH_OUT_DIR", str(env_dir))
        assert main([
            "gen-synthetic", "--kind", "gaussian_blob", "--n", "3", "--d", "2",
        ]) == EXIT_OK
        assert (env_dir / "gaussian_blob.json").exists()


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["dist", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")]) \
            == EXIT_MISSING_FILE
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[missing-file]:")
        assert err.count("\n") == 1

    def test_input_path_through_a_file(self, token_files, capsys):
        # Ended in a NotADirectoryError traceback before.
        source_path, target_path = token_files
        assert main(["dist", str(source_path / "x"), str(target_path)]) == EXIT_MISSING_FILE
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[missing-file]:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "."])
    def test_gen_synthetic_name_outside_the_out_dir(self, name, tmp_path, capsys):
        # "../escaped" wrote escaped.json next to the out dir and "a/b"
        # exited 3 after making the out dir before.
        out = tmp_path / "sub"
        assert main(["gen-synthetic", "--kind", "ring", "--n", "4", "--d", "2",
                     "--name", name, "--out-dir", str(out)]) == EXIT_INVALID_VALUE
        assert capsys.readouterr().err == (
            "tokenmorph: error[invalid-value]: --name must be a file stem inside the "
            f"output directory, got {name!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag(self, token_files, capsys):
        source_path, target_path = token_files
        assert main(["dist", str(source_path), str(target_path), "--nope"]) == EXIT_USAGE
        assert "error[usage]" in capsys.readouterr().err

    def test_bad_format_file(self, tmp_path, token_files, capsys):
        source_path, _ = token_files
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["dist", str(bad), str(source_path)]) == EXIT_FORMAT
        assert "error[format]" in capsys.readouterr().err

    @pytest.mark.parametrize("tail", ["garbage", "zero flag"])
    def test_binary_file_longer_than_its_header(self, tmp_path, weighted_files, tail, capsys):
        data = bytearray(tokens_to_binary_bytes(read_tokens(weighted_files[0])))
        if tail == "garbage":
            data += b"\x00" * 8
        else:
            data[12] = 0  # the weights now trail a weights-absent header
        bad = tmp_path / "long.bin"
        bad.write_bytes(bytes(data))
        assert main(["dist", str(bad), str(weighted_files[1])]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[format]:")
        assert "trailing bytes" in err

    def test_ragged_json_points(self, tmp_path, capsys):
        bad = tmp_path / "ragged.json"
        bad.write_text('{"n": 2, "d": 1, "points": [[1.0], [1.0, 2.0]]}')
        assert main(["dist", str(bad), str(bad)]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[format]:")
        assert err.count("\n") == 1

    def test_boolean_json_coordinates(self, tmp_path, capsys):
        bad = tmp_path / "bool.json"
        bad.write_text('{"n":1,"d":2,"points":[[true,false]]}')
        assert main(["dist", str(bad), str(bad)]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[format]:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_json_coordinates(self, tmp_path, literal, capsys):
        # Exit 6 ("token coordinates must be finite") before.
        bad = tmp_path / "nonfinite.json"
        bad.write_text('{"n":1,"d":2,"points":[[0.5,%s]]}' % literal)
        assert main(["dist", str(bad), str(bad)]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[format]:")
        assert err.count("\n") == 1

    def test_deeply_nested_json(self, tmp_path, token_files, capsys):
        # json.loads raised RecursionError, a traceback, before.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["dist", str(deep), str(token_files[0])]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[format]:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_binary_coordinates(self, tmp_path, weighted_files, value, capsys):
        # Exit 6 ("token coordinates must be finite") before, as in JSON
        # until non-finite JSON literals became exit 4.
        tokens = read_tokens(weighted_files[0])
        data = bytearray(tokens_to_binary_bytes(tokens))
        data[13:21] = np.float64(value).tobytes()  # the first coordinate
        bad = tmp_path / "nonfinite.bmt"
        bad.write_bytes(bytes(data))
        assert main(["dist", str(bad), str(weighted_files[1])]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[format]:")
        assert "NaN, Infinity" in err

    def test_json_weights_of_the_wrong_length(self, tmp_path, capsys):
        bad = tmp_path / "short.json"
        bad.write_text('{"n":2,"d":1,"points":[[0.0],[1.0]],"weights":[1.0]}')
        assert main(["dist", str(bad), str(bad)]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[format]:")
        assert "weights payload has shape (1,), expected (2,)" in err

    @pytest.mark.parametrize("argv", [
        ["demo", "--points", "2"],
        ["gen-synthetic", "--kind", "gaussian_blob", "--n", "4", "--d", "0"],
    ], ids=["demo --points 2", "gen-synthetic --d 0"])
    def test_too_few_points_or_dimensions(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == EXIT_INVALID_VALUE
        assert capsys.readouterr().err.startswith("tokenmorph: error[invalid-value]:")
        assert not out.exists()

    def test_gen_synthetic_negative_seed(self, tmp_path, capsys):
        # Ended in a numpy ValueError traceback before.
        out = tmp_path / "out"
        assert main(["gen-synthetic", "--kind", "gaussian_blob", "--n", "4", "--d", "2",
                     "--seed", "-1", "--out-dir", str(out)]) == EXIT_INVALID_VALUE
        assert capsys.readouterr().err == (
            "tokenmorph: error[invalid-value]: seed must be an integer >= 0, got -1\n")
        assert not out.exists()

    def test_dimension_mismatch(self, tmp_path, token_files, capsys):
        source_path, _ = token_files
        other = tmp_path / "other.json"
        write_tokens(TokenSet(np.zeros((2, 5))), other)
        assert main(["dist", str(source_path), str(other)]) == EXIT_DIMENSION
        assert "error[dimension-mismatch]" in capsys.readouterr().err

    def test_demo_has_no_format_flag(self, tmp_path, capsys):
        # demo always writes JSON; a --format flag would be ignored.
        assert main(["demo", "--format", "json", "--out-dir", str(tmp_path)]) == EXIT_USAGE
        assert "error[usage]" in capsys.readouterr().err

    def test_invalid_beta(self, token_files, capsys):
        source_path, target_path = token_files
        code = main([
            "barycenter", str(source_path), str(target_path), "--beta", "1.5",
        ])
        assert code == EXIT_INVALID_VALUE
        assert "error[invalid-value]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["texture-select", "S", "S", "T", "--tau", "2"], "tau must be in [0, 1], got 2.0"),
        (["barycenter", "S", "T", "--beta", "2"], "beta must be in [0, 1], got 2.0"),
        (["barycenter", "S", "T", "--beta", "0.5", "--max-iter", "0"],
         "--max-iter must be an integer >= 1, got 0"),
        (["barycenter", "S", "T", "--beta", "0.5", "--tol", "0"],
         "--tol must be a number > 0, got 0.0"),
        (["morph", "S", "T", "--frames", "-1"], "--frames must be an integer >= 0, got -1"),
        (["morph", "S", "T", "--max-iter", "0"], "--max-iter must be an integer >= 1, got 0"),
        (["morph", "S", "T", "--tol", "0"], "--tol must be a number > 0, got 0.0"),
        (["sweep-tau", "S", "T", "--frames", "-1"], "--frames must be an integer >= 0, got -1"),
        (["demo", "--frames", "-1"], "--frames must be an integer >= 0, got -1"),
    ], ids=["texture-select --tau", "barycenter --beta", "barycenter --max-iter",
            "barycenter --tol", "morph --frames", "morph --max-iter", "morph --tol",
            "sweep-tau --frames", "demo --frames"])
    @pytest.mark.parametrize("missing", [False, True], ids=["inputs", "missing input"])
    def test_values_are_checked_before_inputs_are_read(self, argv, message, missing,
                                                       token_files, tmp_path, capsys):
        # Each of these exited 3 with a missing input before, and read
        # every input before checking its values.
        source = tmp_path / "nope.json" if missing else token_files[0]
        paths = {"S": str(source), "T": str(token_files[1])}
        out = tmp_path / "out"
        argv = [paths.get(a, a) for a in argv] + ["--out-dir", str(out)]
        assert main(argv) == EXIT_INVALID_VALUE
        err = capsys.readouterr().err
        assert err.startswith("tokenmorph: error[invalid-value]:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["barycenter", "S", "T", "--beta", "0.5"],
        ["morph", "S", "T", "--frames", "1"],
        ["texture-select", "S", "S", "T"],
        ["sweep-tau", "S", "T", "--frames", "1"],
        ["gen-synthetic", "--kind", "ring", "--n", "4", "--d", "2"],
        ["demo", "--frames", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under a file"])
    @pytest.mark.parametrize("missing", [False, True], ids=["inputs", "missing input"])
    def test_out_dir_that_is_a_file(self, argv, nested, missing, token_files, tmp_path,
                                    capsys):
        # Ran the whole command, then ended in a FileExistsError traceback
        # (NotADirectoryError under a file) before.
        blocker = tmp_path / "afile"
        blocker.write_bytes(b"keep")
        before = sorted(tmp_path.rglob("*"))
        source = tmp_path / "nope.json" if missing else token_files[0]
        paths = {"S": str(source), "T": str(token_files[1])}
        out = blocker / "sub" if nested else blocker
        assert main([paths.get(a, a) for a in argv] + ["--out-dir", str(out)]) \
            == EXIT_INVALID_VALUE
        err = capsys.readouterr().err
        assert err == (f"tokenmorph: error[invalid-value]: output directory {str(out)!r} "
                       f"cannot be made: {str(blocker)!r} exists and is not a directory\n")
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_bytes() == b"keep"

    def test_invalid_tau(self, token_files, tmp_path):
        # Wrote every frame and frames_index.json before exiting 6 before.
        source_path, target_path = token_files
        code = main([
            "morph", str(source_path), str(target_path),
            "--tau", "2.0", "--out-dir", str(tmp_path / "x"),
        ])
        assert code == EXIT_INVALID_VALUE
        assert not (tmp_path / "x").exists()
        assert main(["morph", str(tmp_path / "nope.json"), str(target_path),
                     "--tau", "2.0", "--out-dir", str(tmp_path / "x")]) == EXIT_INVALID_VALUE

    @pytest.mark.parametrize("flag", ["--max-iter", "--tol", "--format"])
    def test_sweep_tau_has_no_solver_flags(self, flag, token_files, capsys):
        # sweep-tau's morph is closed form; no fixed-point solver reads these.
        # It writes only JSON reports, so a --format flag would be ignored.
        source_path, target_path = token_files
        value = "json" if flag == "--format" else "5"
        assert main(["sweep-tau", str(source_path), str(target_path), flag, value]) \
            == EXIT_USAGE
        assert "error[usage]" in capsys.readouterr().err

    def test_bad_grid(self, token_files):
        source_path, target_path = token_files
        assert main([
            "sweep-tau", str(source_path), str(target_path), "--grid", "a,b",
        ]) == EXIT_INVALID_VALUE

    def test_empty_grid(self, token_files, tmp_path, capsys):
        source_path, target_path = token_files
        out = tmp_path / "sweep"
        assert main([
            "sweep-tau", str(source_path), str(target_path), "--grid", ",",
            "--out-dir", str(out),
        ]) == EXIT_INVALID_VALUE
        assert "error[invalid-value]" in capsys.readouterr().err
        assert not out.exists()

    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE
        assert capsys.readouterr().out.startswith("usage: tokenmorph")

    @pytest.mark.parametrize("text", [
        '[{"n": 1, "d": 1, "points": [[0.5]]}]',
        # Sums to 1, but a zero weight is not strictly positive.
        '{"n": 2, "d": 1, "points": [[0.0], [1.0]], "weights": [0.0, 1.0]}',
    ], ids=["top-level array", "zero weight"])
    def test_rejected_json_file(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["dist", str(bad), str(bad)]) == EXIT_FORMAT
        assert capsys.readouterr().err.startswith("tokenmorph: error[format]:")

    def test_failed_optimality_certificate(self, weighted_files, monkeypatch, capsys):
        # Potentials pushed far down after a pivot stop the pivoting early;
        # the final certificate catches the suboptimal basis.
        def pivot_then_drift(self, ei, ej, delta):
            real_pivot(self, ei, ej, delta)
            self.pot[:self.n] = -1e9

        real_pivot = ot_module._BasisTree.pivot
        monkeypatch.setattr(ot_module._BasisTree, "pivot", pivot_then_drift)
        assert main(["dist", *map(str, weighted_files)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tokenmorph: error[solver-failure]:")
        assert "not optimal" in captured.err


    def test_failed_assignment_certificate(self, token_files, monkeypatch, capsys):
        # Row duals raised by 1 price cells below zero: a dual that no
        # optimal assignment would leave.
        def raised_row_duals(values):
            perm, u, v = real_matching(values)
            return perm, u + 1.0, v

        real_matching = ot_module._min_cost_matching
        monkeypatch.setattr(ot_module, "_min_cost_matching", raised_row_duals)
        assert main(["dist", *map(str, token_files)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tokenmorph: error[solver-failure]:")
        assert "assignment is not optimal" in captured.err

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 72.8 TiB", "Unable to allocate 72.8 TiB"),
        ("", "not enough memory"),
    ], ids=["numpy message", "no message"])
    def test_out_of_memory(self, message, shown, tmp_path, monkeypatch, capsys):
        # An allocation that fails raises MemoryError, as numpy does for an
        # array larger than the host can give.
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli_module, "gen_synthetic", no_memory)
        monkeypatch.chdir(tmp_path)
        code = main(["gen-synthetic", "--kind", "gaussian_blob", "--n", "100000000",
                     "--d", "100000", "--out-dir", "out"])
        assert code == EXIT_MEMORY == 8
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tokenmorph: error[out-of-memory]: {shown}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_address_space_limit(self, tmp_path):
        # Two valid 20 000-token files, in a child whose address space is
        # limited to about 2 GB: their 20 000 x 20 000 cost matrix (3.0 GiB)
        # cannot be allocated, and numpy's message names the shape.
        paths = []
        for seed in (1, 2):
            paths.append(tmp_path / f"blob{seed}.json")
            write_tokens(gen_synthetic("gaussian_blob", 20_000, 2, seed), paths[-1])
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 2_000_000 * 1024 if hard == resource.RLIM_INFINITY else min(hard, 2_000_000 * 1024)

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        result = subprocess.run(
            [sys.executable, "-m", "tokenmorph.cli", "dist", *map(str, paths)],
            capture_output=True, text=True, timeout=60, env=_child_env(),
            preexec_fn=limit_address_space,
        )
        assert result.returncode == EXIT_MEMORY
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("tokenmorph: error[out-of-memory]: Unable to allocate ")
        assert "shape (20000, 20000)" in result.stderr


def test_repeated_main_calls_match_fresh_processes(token_files, weighted_files, tmp_path,
                                                   monkeypatch, capsys):
    """One parser serves every call: repeated in-process calls give the
    exit code, stdout and files of a fresh process."""
    uniform = [str(p) for p in token_files]
    weighted = [str(p) for p in weighted_files]
    cases = [
        ["dist", *weighted],
        ["morph", *uniform, "--no-such-flag"],
        ["barycenter", *weighted, "--beta", "0.3", "--out-dir", "out"],
        ["morph", *uniform, "--frames", "2", "--tau", "0.3", "--out-dir", "out"],
    ]
    fresh = []
    for k, argv in enumerate(cases):
        cwd = tmp_path / f"fresh{k}"
        cwd.mkdir()
        result = subprocess.run([sys.executable, "-m", "tokenmorph.cli", *argv], cwd=cwd,
                                capture_output=True, text=True, timeout=60, env=_child_env())
        files = _dir_bytes(cwd / "out") if (cwd / "out").exists() else {}
        fresh.append((result.returncode, result.stdout, files))
    assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert cli_module._build_parser() is cli_module._build_parser()

    for round_ in range(3):
        for k, argv in enumerate(cases):
            cwd = tmp_path / f"call{round_}_{k}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            code = main(argv)
            files = _dir_bytes(cwd / "out") if (cwd / "out").exists() else {}
            assert (code, capsys.readouterr().out, files) == fresh[k], (round_, argv)


def _child_env() -> dict[str, str]:
    """The environment of a child process that imports this tokenmorph."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child process; the timeout turns a hang into a failure."""
    return subprocess.run(
        [sys.executable, "-m", "tokenmorph.cli", *args],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )


class TestOverflowingCoordinates:
    """Squared distances beyond float64 end in exit 6, never nan or a hang."""

    @pytest.fixture
    def huge(self, tmp_path):
        files = {
            "plus": TokenSet([[1e200], [-1e200]]),
            "minus": TokenSet([[-1e200], [1e200]]),
            "weighted": TokenSet([[1e200], [-1e200]], [0.3, 0.7]),
            "weighted3": TokenSet([[-1e200], [0.0], [1e200]], [0.2, 0.5, 0.3]),
        }
        for name, tokens in files.items():
            write_tokens(tokens, tmp_path / f"{name}.json")
        return {name: str(tmp_path / f"{name}.json") for name in files}

    def _assert_invalid_value(self, result):
        assert result.returncode == EXIT_INVALID_VALUE, result.stdout
        assert result.stderr.startswith("tokenmorph: error[invalid-value]:")
        assert "overflow" in result.stderr
        assert "nan" not in result.stdout

    def test_dist_assignment_route(self, huge):
        self._assert_invalid_value(_run_cli("dist", huge["plus"], huge["minus"]))

    def test_barycenter_simplex_route(self, huge, tmp_path):
        self._assert_invalid_value(_run_cli(
            "barycenter", huge["weighted"], huge["weighted3"], "--beta", "0.5",
            "--out-dir", str(tmp_path / "bc"),
        ))

    def test_texture_select(self, huge, tmp_path):
        self._assert_invalid_value(_run_cli(
            "texture-select", huge["plus"], huge["minus"], huge["plus"],
            "--out-dir", str(tmp_path / "sel"),
        ))


def test_console_entry_point(token_files):
    source_path, _ = token_files
    result = subprocess.run(
        [sys.executable, "-m", "tokenmorph.cli", "dist", str(source_path), str(source_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0.0"


# Runs each argv given as JSON through cli.main, then prints the test-only
# packages that were imported.
_IMPORT_PROBE = """
import json, sys
from tokenmorph.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules
                        if name.partition(".")[0] in ("scipy", "hypothesis", "pytest"))))
"""


def test_the_runtime_imports_numpy_only(token_files, weighted_files, tmp_path):
    # The test extras are installed wherever the suite runs, so a stray
    # import of one of them would go unnoticed in-process.
    out = str(tmp_path / "out")
    cases = [
        ["demo", "--frames", "2", "--tau", "0.3", "--out-dir", out],
        ["morph", *map(str, token_files), "--frames", "2", "--tau", "0.3", "--out-dir", out],
        ["morph", *map(str, token_files), "--frames", "2", "--init", "linear-init",
         "--out-dir", out],
        ["morph", *map(str, weighted_files), "--frames", "2", "--out-dir", out],
    ]
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(cases)],
                            capture_output=True, text=True, timeout=60, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
