"""The benchmark's workloads: seeded inputs, one CLI op, output checks.

Each workload writes a pool of ``pool`` input instances as token files,
names the ``tokenmorph`` command line that runs on instance ``k``, and
checks the files such an op wrote.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tokenmorph.synth import gen_synthetic
from tokenmorph.tokenio import write_tokens
from tokenmorph.tokens import TokenSet

# File seeds are seed, seed + 101, seed + 202, so the default seed 101
# gives the 101/202 pair that acceptance criterion 10 morphs.
_SEED_STEP = 101


def _blob(n: int, m: int, seed: int) -> TokenSet:
    return gen_synthetic("gaussian_blob", n, m, seed)


def _points(data: bytes) -> np.ndarray:
    return np.asarray(json.loads(data)["points"], dtype=np.float64)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _matched_rms(a: np.ndarray, b: np.ndarray) -> float:
    """RMS distance of a nearest-neighbour bijection from a to b, or inf.

    Any bijection's mean squared cost bounds the uniform OT cost from
    above, so a small value proves a small W2 without the program's solver.
    """
    sq = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T
    nearest = np.argmin(sq, axis=1)
    if len(np.unique(nearest)) != len(a):
        return float("inf")
    return float(np.sqrt(np.mean(np.sum((a - b[nearest]) ** 2, axis=1))))


class MorphUniform:
    """``morph SRC TGT --frames 6 --tau 0.3`` on criterion 10's inputs."""

    name = "morph_uniform"
    pool = 1
    n, m, frames = 256, 64, 6

    def setup(self, seed: int, in_dir: Path) -> None:
        self.source = _blob(self.n, self.m, seed)
        self.target = _blob(self.n, self.m, seed + _SEED_STEP)
        self.paths = [in_dir / "source.json", in_dir / "target.json"]
        write_tokens(self.source, self.paths[0])
        write_tokens(self.target, self.paths[1])

    def argv(self, k: int, out_dir: Path) -> list[str]:
        return ["morph", str(self.paths[0]), str(self.paths[1]),
                "--frames", str(self.frames), "--tau", "0.3", "--out-dir", str(out_dir)]

    def check(self, k: int, files: dict[str, bytes]) -> str | None:
        count = self.frames + 2
        betas = [alpha / (self.frames + 1) for alpha in range(count)]
        index = json.loads(files["frames_index.json"])
        manifest = json.loads(files["manifest.json"])
        if len(index["files"]) != count or len(manifest["frames"]) != count:
            return f"expected {count} frames, got {len(index['files'])}"
        if len(manifest.get("texture_frames", ())) != count:
            return f"expected {count} texture frames"
        if index["betas"] != betas or manifest["betas"] != betas:
            return f"beta grid is not alpha/{self.frames + 1}: {index['betas']}"
        first = _points(files[index["files"][0]])
        last = _points(files[index["files"][-1]])
        for label, frame, end in (("source", first, self.source), ("target", last, self.target)):
            rms = _matched_rms(frame, end.points)
            if not rms < 1e-6:
                return f"endpoint W2 to the {label} is not below 1e-6 (bound {rms:.3e})"
        return None


class BarycenterWeighted:
    """``barycenter SRC TGT --beta 0.5`` on Dirichlet(1)-weighted sets.

    Unequal sizes and non-uniform weights send every OT solve to the
    transportation simplex. The sweep count, and with it the op time,
    depends strongly on the instance, so the run's median is taken over
    a pool of instances. A run cycles through the pool several times, so
    every instance repeats and the repeat checks can fail.
    """

    name = "barycenter_weighted"
    n_source, n_target, m = 20, 16, 8
    pool = 64

    def setup(self, seed: int, in_dir: Path) -> None:
        self.paths = []
        for k in range(self.pool):
            child = np.random.SeedSequence([seed, k])
            blob_seed = int(child.generate_state(1)[0])
            rng = np.random.default_rng(child)
            pair = []
            for role, size, offset in (("source", self.n_source, 0),
                                       ("target", self.n_target, _SEED_STEP)):
                points = _blob(size, self.m, blob_seed + offset).points
                path = in_dir / f"{role}_{k:03d}.json"
                write_tokens(TokenSet(points, rng.dirichlet(np.ones(size))), path)
                pair.append(path)
            self.paths.append(pair)
        self.first_objective: dict[int, float] = {}

    def argv(self, k: int, out_dir: Path) -> list[str]:
        source, target = self.paths[k]
        return ["barycenter", str(source), str(target), "--beta", "0.5",
                "--out-dir", str(out_dir)]

    def check(self, k: int, files: dict[str, bytes]) -> str | None:
        diagnostics = json.loads(files["manifest.json"])["diagnostics"]
        if diagnostics["converged"] is not True:
            return "barycenter did not converge"
        objective = diagnostics["objective"]
        first = self.first_objective.setdefault(k, objective)
        if not abs(objective - first) <= 1e-9 * abs(first):
            return f"objective {objective!r} differs from the first op's {first!r}"
        if _points(files["barycenter.json"]).shape != (self.n_source, self.m):
            return "barycenter support has the wrong shape"
        return None


class SelectIO:
    """``texture-select BLENDED SRC TGT --tau 0.3`` on three large files."""

    name = "select_io"
    pool = 1
    n, m = 512, 64

    def setup(self, seed: int, in_dir: Path) -> None:
        self.sets = [_blob(self.n, self.m, seed + k * _SEED_STEP) for k in range(3)]
        self.paths = [in_dir / f"{role}.json" for role in ("blended", "source", "target")]
        for tokens, path in zip(self.sets, self.paths):
            write_tokens(tokens, path)

    def argv(self, k: int, out_dir: Path) -> list[str]:
        return ["texture-select", *map(str, self.paths), "--tau", "0.3",
                "--out-dir", str(out_dir)]

    def check(self, k: int, files: dict[str, bytes]) -> str | None:
        out = _bits(_points(files["selected.json"]))
        decisions = json.loads(files["selection_report.json"])["decisions"]
        blended, source = _bits(self.sets[0].points), _bits(self.sets[1].points)
        if out.shape != blended.shape or len(decisions) != self.n:
            return f"expected {self.n} selected tokens"
        for t, d in enumerate(decisions):
            expected = blended[t] if d["kept_barycenter"] else source[d["nearest_source_index"]]
            if not np.array_equal(out[t], expected):
                return f"token {t} is neither its blended token nor its named source token"
        return None


WORKLOADS = {w.name: w for w in (MorphUniform, BarycenterWeighted, SelectIO)}
