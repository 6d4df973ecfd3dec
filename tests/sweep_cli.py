"""Run a fixed list of CLI commands and print a digest of everything each one leaves.

Usage:
    PYTHONPATH=src python tests/sweep_cli.py
    PYTHONPATH=src python tests/sweep_cli.py --against REV

Writes seeded input token files once, then runs each ``tokenmorph``
command of the list in-process, in its own fresh working directory. For each
command it prints one line per item: its exit code, the sha256 of its
stdout and of its stderr, and the sha256 of every file it wrote, by path.
The list covers every subcommand, all three ``morph --init`` modes,
sequential morphs and ``sweep-tau`` on weighted and unequal-size sets
(uniform 15 -> 3 too, where rounding dust would add tokens),
JSON and BMT1 files, JSON files of 1 024 values or more read by the numpy
reader (weighted ones too) and by ``json.loads`` (an indented copy),
copying (a swap pair at tau 0.9) and non-copying taus, tokens whose
norms overflow though their distances do not, uniform,
Dirichlet and tie-grid barycenters, ``demo`` at 24 and 60 points, empty
input paths, and every exit code from 2 to 8. Exits 7 and 8 have no safe natural
trigger, so one ``dist`` runs with the assignment's row duals raised by
1, and one ``gen-synthetic`` of 10^13 values runs with its generator
raising ``MemoryError`` as numpy does when the allocation fails. One
more ``dist`` runs with every file read raising ``PermissionError``.

With ``--against REV`` the same list, on the same input files, also runs
on a ``git archive`` export of revision REV's ``src/`` in a child
process, and only the items that differ are printed, as ``REV -> this
tree``.

Exits 1 if a command of this tree ends in a Python exception instead of
an exit code, else 0 (differences against REV are for review and do not
fail). Running it twice and comparing the outputs checks determinism.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from git_export import export_revision

IN = "../in"  # inputs, relative to each command's working directory


def _commands() -> list[tuple[list[str], str | None]]:
    """Each command's argv and the name of the fault it runs under, if any."""
    u24 = [f"{IN}/u24a.json", f"{IN}/u24b.json"]
    u24_bmt = [f"{IN}/u24a.bmt", f"{IN}/u24b.bmt"]
    u64 = [f"{IN}/u64a.json", f"{IN}/u64b.json"]
    swap = [f"{IN}/swap_source.json", f"{IN}/swap_target.json"]
    weighted = [f"{IN}/w20.json", f"{IN}/w16.json"]
    weighted_bmt = [f"{IN}/w20.bmt", f"{IN}/w16.bmt"]
    weighted_small = [f"{IN}/w9.json", f"{IN}/w7.json"]
    ties = [f"{IN}/tie16.json", f"{IN}/tie12.json"]
    ties_equal = [f"{IN}/tie16.json", f"{IN}/tie16b.json"]
    uniform_unequal = [f"{IN}/u15.json", f"{IN}/u3.json"]
    big = [f"{IN}/big12a.json", f"{IN}/big12b.json"]
    out = ["--out-dir", "out"]
    runs: list[list[str]] = []

    # dist
    for pair in (u24, u24_bmt, u64, swap, weighted, weighted_bmt, weighted_small, ties,
                 ties_equal, [f"{IN}/u24a.json", f"{IN}/w16.json"]):
        runs.append(["dist", *pair])
    runs += [
        ["dist", f"{IN}/u64a_indented.json", u64[1]],         # not the writer's layout
        ["dist", f"{IN}/nope.json", u24[1]],                    # 3
        ["dist", f"{IN}/u24a.json/x", u24[1]],                  # 3: a path through a file
        ["dist", f"{IN}/bad.json", u24[1]],                     # 4
        ["dist", f"{IN}/badmagic.bmt", u24[1]],                 # 4
        ["dist", f"{IN}/truncated.bmt", u24[1]],                # 4
        ["dist", u24[0], f"{IN}/d3.json"],                      # 5
        ["dist", f"{IN}/huge.json", f"{IN}/huge.json"],         # 6
        ["dist", u24[0]],                                       # 2
        ["dist", "", ""],                                       # 6: empty paths
    ]

    # barycenter
    for beta in ("0", "0.3", "1"):
        runs.append(["barycenter", *u24, "--beta", beta, *out])
    for init in ("source", "target", "lerp"):
        runs.append(["barycenter", *u24, "--beta", "0.5", "--init", init, *out])
    for beta in ("0.25", "0.5", "0.75"):
        runs.append(["barycenter", *weighted, "--beta", beta, *out])
    runs += [
        ["barycenter", *weighted, "--beta", "0.5", "--init", "target", *out],
        ["barycenter", *weighted, "--beta", "0.5", "--init", "lerp", *out],     # 5
        ["barycenter", *weighted_bmt, "--beta", "0.5", "--format", "binary", *out],
        ["barycenter", *weighted_small, "--beta", "0.4", *out],
        ["barycenter", *weighted_small, "--beta", "0.4", "--max-iter", "1", *out],
        ["barycenter", *weighted_small, "--beta", "0.4", "--tol", "1e-12", *out],
        ["barycenter", *ties, "--beta", "0.5", *out],
        ["barycenter", *ties, "--beta", "0.5", "--init", "target", *out],
        ["barycenter", *ties_equal, "--beta", "0.5", "--init", "lerp", *out],
        ["barycenter", *u24_bmt, "--beta", "0.5", "--format", "binary", *out],
        ["barycenter", *u24, "--beta", "0.5"],                   # default out dir
        ["barycenter", *u24, "--beta", "2", *out],               # 6
        ["barycenter", *u24, "--beta", "0.5", "--max-iter", "0", *out],  # 6
        ["barycenter", *u24, "--beta", "0.5", "--tol", "0", *out],       # 6
        ["barycenter", *weighted_small, "--beta", "0.4", "--tol", "inf", *out],  # 6
        ["barycenter", f"{IN}/nope.json", u24[1], "--beta", "0.5", *out],  # 3
        ["barycenter", *u24, *out],                              # 2
    ]

    # morph
    for init in ("sequential", "linear-init", "naive-lerp"):
        for fmt in ("json", "binary"):
            runs.append(["morph", *u24, "--frames", "3", "--init", init, "--format", fmt, *out])
    runs += [
        ["morph", *u24, "--tau", "0.3", *out],
        ["morph", *u24_bmt, "--tau", "0.3", "--format", "binary", *out],
        ["morph", *swap, "--tau", "0.9", *out],
        ["morph", *swap, "--tau", "0.9", "--format", "binary", *out],
        ["morph", *swap, "--tau", "0.3", *out],
        ["morph", *swap, "--init", "naive-lerp", "--frames", "2", "--tau", "0.9", *out],
        ["morph", *u24, "--frames", "0", *out],
        ["morph", *u64, "--tau", "0.3", *out],
        ["morph", *big, "--frames", "2", "--tau", "0", *out],
        ["morph", *ties_equal, "--frames", "4", *out],
        ["morph", *ties_equal, "--frames", "2", "--init", "linear-init", *out],
        ["morph", *u24, "--frames", "2", "--init", "linear-init", "--max-iter", "1", *out],
        ["morph", *u24, "--frames", "2"],                        # default out dir
        ["morph", u24[0], f"{IN}/w24.json", *out],               # weighted
        ["morph", *weighted, "--tau", "0.9", *out],              # weighted, 20 -> 16
        ["morph", *ties, "--frames", "3", *out],                 # 16 -> 12, ties
        ["morph", *uniform_unequal, "--tau", "0.3", *out],       # uniform 15 -> 3
        ["morph", u24[0], f"{IN}/w24.json", "--init", "linear-init", *out],  # 4
        ["morph", f"{IN}/u24a.json", f"{IN}/u64b.json", *out],   # 5: dimensions
        ["morph", f"{IN}/u24a.json", f"{IN}/u64b.json", "--init", "naive-lerp", *out],  # 5
        ["morph", *ties, "--init", "naive-lerp", *out],          # 5: sizes
        ["morph", *u24, "--tau", "2", *out],                     # 6
        ["morph", *u24, "--frames", "-1", *out],                 # 6
        ["morph", *u24, "--tol", "0", *out],                     # 6
        ["morph", *u24, "--init", "bogus", *out],                # 2
        ["morph", f"{IN}/nope.json", u24[1], *out],              # 3
        ["morph", "", u24[1], *out],                             # 6: an empty path
    ]

    # texture-select
    blended = f"{IN}/blend24.json"
    for tau in ("0", "0.3", "0.9", "1"):
        runs.append(["texture-select", blended, *u24, "--tau", tau, *out])
    runs += [
        ["texture-select", f"{IN}/blend24.bmt", *u24_bmt, "--format", "binary", *out],
        ["texture-select", f"{IN}/swap_blend.json", *swap, "--tau", "0.9", *out],
        ["texture-select", f"{IN}/w64blend.json", f"{IN}/w64a.json", f"{IN}/w64b.json", *out],
        ["texture-select", f"{IN}/big12blend.json", *big, "--tau", "0", *out],
        ["texture-select", blended, *u24, "--tau", "2", *out],               # 6
        ["texture-select", blended, u24[0], f"{IN}/d3.json", *out],          # 5
        ["texture-select", f"{IN}/nope.json", *u24, *out],                   # 3
        ["texture-select", "", "", "", *out],                                # 6: empty paths
    ]

    # sweep-tau
    runs += [
        ["sweep-tau", *u24, *out],
        ["sweep-tau", *u24, "--grid", "0.1,0.9", "--frames", "2", *out],
        ["sweep-tau", *swap, "--grid", "0.3,0.9", *out],
        ["sweep-tau", *weighted, "--grid", "0.3,0.9", "--frames", "3", *out],
        ["sweep-tau", *uniform_unequal, "--grid", "0.3,0.9", *out],
        ["sweep-tau", *u24, "--grid", "a,b", *out],              # 6
        ["sweep-tau", *u24, "--grid", "0.3,1.5", *out],          # 6
        ["sweep-tau", *u24, "--grid=0.3,0.30,-0.0,0.0", *out],   # 6
        ["sweep-tau", *u24, "--frames", "-1", *out],             # 6
        ["sweep-tau", *u24, "--format", "json", *out],           # 2
    ]

    # gen-synthetic
    for kind, n in (("gaussian_blob", "12"), ("ring", "16"), ("two_cluster_swap_pair", "10")):
        for fmt in ("json", "binary"):
            runs.append(["gen-synthetic", "--kind", kind, "--n", n, "--d", "3",
                         "--seed", "7", "--format", fmt, *out])
    runs += [
        ["gen-synthetic", "--kind", "gaussian_blob", "--n", "5", "--d", "2", "--name", "blob"],
        ["gen-synthetic", "--kind", "ring", "--n", "8", "--d", "1", *out],             # 6
        ["gen-synthetic", "--kind", "ring", "--n", "4", "--d", "2", "--name", "../escaped",
         *out],                                                                        # 6
        ["gen-synthetic", "--kind", "ring", "--n", "4", "--d", "2", "--name", "a/b", *out],  # 6
        ["gen-synthetic", "--kind", "ring", "--n", "4", "--d", "2", "--name=", *out],  # 6
        ["gen-synthetic", "--kind", "gaussian_blob", "--n", "2", "--d", "2", "--name",
         "manifest", *out],                                                            # 6
        ["gen-synthetic", "--kind", "gaussian_blob", "--n", "0", "--d", "2", *out],    # 6
        ["gen-synthetic", "--kind", "gaussian_blob", "--n", "4", "--d", "2", "--seed", "-1",
         *out],                                                                        # 6
        ["gen-synthetic", "--kind", "bogus", "--n", "4", "--d", "2", *out],            # 2
    ]

    # demo
    runs += [
        ["demo", *out],
        ["demo", "--points", "60", *out],
        ["demo", "--frames", "2", "--points", "12", *out],
        ["demo", "--tau", "0.3", *out],
        ["demo", "--tau", "0.9", "--points", "60", *out],
        ["demo"],                                                # default out dir
        ["demo", "--points", "2", *out],                         # 6
        ["demo", "--frames", "-1", *out],                        # 6
        ["demo", "--out-dir="],                                  # 6
        ["demo", "--format", "json", *out],                      # 2
    ]

    # usage
    runs += [[], ["bogus-command"]]

    commands = [(argv, None) for argv in runs]
    commands.append((["dist", *u24], "raised_row_duals"))       # 7
    commands.append((["gen-synthetic", "--kind", "gaussian_blob", "--n", "100000000",
                      "--d", "100000", *out], "out_of_memory"))  # 8
    commands.append((["dist", *u24], "denied_read"))            # 3
    return commands


def _raised_row_duals():
    """Row duals raised by 1 after every matching: the assignment's
    certificate must fail with exit 7."""
    import tokenmorph.ot as ot

    real = ot._min_cost_matching

    def raised(values):
        perm, u, v = real(values)
        return perm, u + 1.0, v

    return mock.patch.object(ot, "_min_cost_matching", raised)


def _out_of_memory():
    """A generator that fails as numpy's allocation of its n x d points
    does on a host without that much memory: exit 8."""
    import tokenmorph.cli as cli

    def no_memory(kind, n, d, seed):
        raise MemoryError(f"Unable to allocate {8 * n * d / 2**40:.1f} TiB for an array "
                          f"with shape ({n}, {d}) and data type float64")

    return mock.patch.object(cli, "gen_synthetic", no_memory)


def _denied_read():
    """Every file read denied, as on an input without read permission
    (which a run as root would ignore): exit 3 with an ``io`` error line."""
    def denied(self):
        raise PermissionError(13, "Permission denied", str(self))

    return mock.patch.object(Path, "read_bytes", denied)


def write_inputs(in_dir: Path) -> None:
    """The seeded token files that the commands read."""
    from tokenmorph import TokenSet, gen_synthetic, index_lerp, write_tokens

    def save(name, tokens, formats=("json",)):
        for fmt, ext in (("json", "json"), ("binary", "bmt")):
            if fmt in formats:
                write_tokens(tokens, in_dir / f"{name}.{ext}", fmt)

    rng = np.random.default_rng(2024)
    u24a = gen_synthetic("gaussian_blob", 24, 8, 11)
    u24b = TokenSet(gen_synthetic("gaussian_blob", 24, 8, 12).points + 0.5)
    save("u24a", u24a, ("json", "binary"))
    save("u24b", u24b, ("json", "binary"))
    save("blend24", index_lerp(u24a, u24b, 0.5), ("json", "binary"))
    save("u64a", gen_synthetic("gaussian_blob", 64, 16, 21))
    save("u64b", gen_synthetic("gaussian_blob", 64, 16, 22))
    swap_source, swap_target = gen_synthetic("two_cluster_swap_pair", 32, 8, 31)
    save("swap_source", swap_source)
    save("swap_target", swap_target)
    save("swap_blend", index_lerp(swap_source, swap_target, 0.5))
    save("w24", TokenSet(u24b.points, rng.dirichlet(np.ones(24))))
    for name, n, m in (("w20", 20, 8), ("w16", 16, 8), ("w9", 9, 3), ("w7", 7, 3)):
        tokens = TokenSet(rng.normal(size=(n, m)), rng.dirichlet(np.ones(n)))
        save(name, tokens, ("json", "binary") if n >= 16 else ("json",))
    # Integer grids with repeated points: ties in every cost matrix.
    for name, n in (("tie16", 16), ("tie16b", 16), ("tie12", 12)):
        save(name, TokenSet(rng.integers(-2, 3, size=(n, 2)).astype(float)))
    save("d3", gen_synthetic("gaussian_blob", 24, 3, 41))
    save("huge", TokenSet(np.array([[-1e200, 0.0], [1e200, 0.0]])))
    # Finite squared distances, but norms past 1.34e154 overflow.
    big12a, big12b = (TokenSet(1.5e154 + 1e150 * rng.normal(size=(12, 4))) for _ in range(2))
    save("big12a", big12a)
    save("big12b", big12b)
    save("big12blend", index_lerp(big12a, big12b, 0.5))
    # 1 024 values or more: the numpy reader, unless indented.
    doc = json.loads((in_dir / "u64a.json").read_bytes())
    (in_dir / "u64a_indented.json").write_text(json.dumps(doc, indent=2) + "\n")
    rng64 = np.random.default_rng(2064)
    for name in ("w64a", "w64b", "w64blend"):
        save(name, TokenSet(rng64.normal(size=(64, 16)), rng64.dirichlet(np.ones(64))))
    # Uniform sets of unequal size: 15 cells carry mass, and rounding dust
    # on other basis cells would add tokens to every frame.
    rng15 = np.random.default_rng(2015)
    for name, n in (("u15", 15), ("u3", 3)):
        save(name, TokenSet(rng15.normal(size=(n, 2))))
    (in_dir / "bad.json").write_bytes(b"not json\n")
    (in_dir / "badmagic.bmt").write_bytes(b"BMT2" + bytes(20))
    (in_dir / "truncated.bmt").write_bytes((in_dir / "u24a.bmt").read_bytes()[:100])


def run_all(root: Path) -> dict[str, dict[str, str]]:
    """Run every command under ``root``, whose ``in`` holds the inputs;
    returns each command's items by name."""
    import tokenmorph
    from tokenmorph.cli import main

    faults = {"raised_row_duals": _raised_row_duals, "out_of_memory": _out_of_memory,
              "denied_read": _denied_read}
    results = {}
    here = os.getcwd()
    os.environ.pop("TOKENMORPH_OUT_DIR", None)
    try:
        for k, (argv, fault) in enumerate(_commands()):
            work = root / f"run_{k:03d}"
            work.mkdir()
            os.chdir(work)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with faults[fault]() if fault else contextlib.nullcontext():
                    try:
                        code = str(main(argv))
                    except Exception as exc:  # a traceback, not an exit code
                        code = f"traceback {type(exc).__name__}: {exc}"
            items = {"exit": code,
                     "stdout": _sha(stdout.getvalue().encode()),
                     "stderr": _sha(stderr.getvalue().encode())}
            for path in sorted(p for p in work.rglob("*") if p.is_file()):
                items[path.relative_to(work).as_posix()] = _sha(path.read_bytes())
            key = (" ".join(argv) or "(no arguments)") + (f" [{fault}]" if fault else "")
            results[key] = items
    finally:
        os.chdir(here)
    results["#module"] = {"file": str(Path(tokenmorph.__file__).resolve())}
    return results


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tracebacks(results) -> list[str]:
    return [key for key, items in results.items()
            if items.get("exit", "").startswith("traceback")]


def _sweep(in_dir: Path | None = None) -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory(prefix="sweep_cli_") as tmp:
        root = Path(tmp)
        if in_dir is None:
            (root / "in").mkdir()
            write_inputs(root / "in")
        else:
            (root / "in").symlink_to(in_dir.resolve(), target_is_directory=True)
        return run_all(root)


def _against(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="sweep_cli_rev_") as tmp:
        tmp = Path(tmp)
        export_revision(rev, tmp / "rev")
        (tmp / "in").mkdir()
        write_inputs(tmp / "in")
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--inputs", str(tmp / "in")],
            env={**os.environ, "PYTHONPATH": str(tmp / "rev" / "src")},
            cwd=tmp, check=True, capture_output=True, text=True)
        theirs = json.loads(child.stdout)
        if not theirs["#module"]["file"].startswith(str((tmp / "rev").resolve())):
            raise SystemExit(f"{rev} run imported {theirs['#module']['file']}")
        ours = _sweep(tmp / "in")
    del theirs["#module"], ours["#module"]

    changed = 0
    for key in ours:
        mine, old = ours[key], theirs.get(key, {})
        for name in sorted(set(mine) | set(old)):
            if mine.get(name) != old.get(name):
                changed += 1
                print(f"{key}  {name}: {old.get(name, '-')} -> {mine.get(name, '-')}")
    print(f"{len(ours)} commands against {rev}: {changed} items differ")
    return 1 if _tracebacks(ours) else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--against"] and len(argv) == 2:
        return _against(argv[1])
    if argv[:1] == ["--inputs"] and len(argv) == 2:
        # The child of --against: the parent's inputs, results as JSON.
        print(json.dumps(_sweep(Path(argv[1]))))
        return 0
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    results = _sweep()
    del results["#module"]
    for key, items in results.items():
        for name, value in items.items():
            print(f"{key}  {name}  {value}")
    for key in _tracebacks(results):
        print(f"traceback: {key}", file=sys.stderr)
    return 1 if _tracebacks(results) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
