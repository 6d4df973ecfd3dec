"""Command-line surface: morph runs, sweeps, file generation, demos.

Every command that writes files also writes a ``manifest.json`` next to
them recording the full configuration (flags, input digests, per-frame
diagnostics), with no timestamps or absolute paths, so re-running a
command with the manifest's settings reproduces byte-identical outputs.
Every command checks its flag values, and ``_check_paths`` every path
argument, before any input is read. ``_write_outputs`` alone makes the
output directory and writes every file, after every solve and selection,
so a failed solve or selection leaves no output directory or files; it
writes the manifest last and renames it into place, so a write that
fails part way leaves no manifest. ``sweep-tau`` finds each frame's
nearest tokens and their similarities once and thresholds them for
every tau of its grid.

``morph``'s first and last frames are rows of its source and target, and
a ``texture-select`` output that copies no token is rows of its blended
input. ``morph`` reads its source and target, and ``texture-select`` its
blended input, with ``keep_text`` (one row table each), and passes them
as ``like`` to ``tokens_to_json_bytes``, which splices a file from the
one that holds its rows or encodes it, in the writer's bytes either way.

Exit codes: 0 success, 2 usage, 3 missing file or another failed read
or write, 4 bad file format, 5 dimension mismatch, 6 invalid value,
7 solver failure, 8 out of memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .barycenter import BarycenterConfig, pairwise_barycenter
from .errors import (
    DimensionMismatchError,
    FormatError,
    InvalidParameterError,
    InvalidWeightsError,
    SolverFailureError,
    TokenMorphError,
    require_count,
    require_fraction,
    require_threshold,
)
from .selective import (
    DEFAULT_TAU,
    _kept,
    _similarity_field,
    morph_texture,
    selective_texture_tokens,
)
from .synth import KINDS, gen_synthetic
from .tokenio import read_tokens, tokens_to_binary_bytes, tokens_to_json_bytes
from .tokens import TokenSet, index_lerp
from .toydemo import decode_tokens_to_shape, render_trajectory_svg
from .trajectory import INIT_MODES, MorphConfig, morph_geometry
from .ot import w2_distance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4
EXIT_DIMENSION = 5
EXIT_INVALID_VALUE = 6
EXIT_SOLVER = 7
EXIT_MEMORY = 8

OUT_DIR_ENV = "TOKENMORPH_OUT_DIR"
DEFAULT_OUT_DIR = "tokenmorph_out"
DEFAULT_TAU_GRID = (0.2, 0.3, 0.4, 0.6, 0.8)

_EXTENSIONS = {"json": "json", "binary": "bmt"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line, machine-parsable
        raise _UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args, _check_paths(args))
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        return _fail("missing-file", str(exc), EXIT_MISSING_FILE)
    except OSError as exc:  # a denied read or write, a full disk, ...
        return _fail("io", str(exc), EXIT_MISSING_FILE)
    except (FormatError, InvalidWeightsError) as exc:
        return _fail("format", str(exc), EXIT_FORMAT)
    except DimensionMismatchError as exc:
        return _fail("dimension-mismatch", str(exc), EXIT_DIMENSION)
    except InvalidParameterError as exc:
        return _fail("invalid-value", str(exc), EXIT_INVALID_VALUE)
    except SolverFailureError as exc:
        return _fail("solver-failure", str(exc), EXIT_SOLVER)
    except TokenMorphError as exc:
        return _fail("error", str(exc), EXIT_INVALID_VALUE)
    except MemoryError as exc:
        return _fail("out-of-memory", str(exc) or "not enough memory", EXIT_MEMORY)


def _fail(category: str, message: str, code: int) -> int:
    print(f"tokenmorph: error[{category}]: {message}", file=sys.stderr)
    return code


@functools.cache
def _build_parser() -> _Parser:
    """The parser for every command, built once per process.

    Parsing leaves the parser unchanged and every call returns a new
    namespace, so one parser serves every ``main`` call.
    """
    parser = _Parser(prog="tokenmorph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("dist", help="print the W2 distance between two token files")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("barycenter", help="blend two token sets at one beta")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--init", choices=("source", "target", "lerp"), default="source")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_barycenter)

    p = sub.add_parser("morph", help="full morphing trajectory between two token files")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--frames", type=int, default=MorphConfig.J, metavar="J",
                   help="number of intermediate frames (J+2 total)")
    p.add_argument("--init", choices=[mode.replace("_", "-") for mode in INIT_MODES],
                   default=MorphConfig.init_mode)
    p.add_argument("--tau", type=float, default=None,
                   help="also write selectively blended frames at this threshold")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_morph)

    p = sub.add_parser("texture-select", help="selective blending of one token file")
    p.add_argument("blended")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_texture_select)

    p = sub.add_parser("sweep-tau", help="selective blending across a threshold grid")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--grid", default=",".join(str(t) for t in DEFAULT_TAU_GRID),
                   help="comma-separated thresholds")
    p.add_argument("--frames", type=int, default=MorphConfig.J, metavar="J")
    _add_output_flags(p, with_format=False)
    p.set_defaults(func=_cmd_sweep_tau)

    p = sub.add_parser("gen-synthetic", help="write a seeded synthetic token file")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None, help="output stem (default: the kind)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("demo", help="2-D morph rendered as an SVG strip")
    p.add_argument("--frames", type=int, default=MorphConfig.J, metavar="J")
    p.add_argument("--points", type=int, default=24, help="tokens per shape")
    p.add_argument("--tau", type=float, default=None)
    _add_output_flags(p, with_format=False)
    p.set_defaults(func=_cmd_demo)

    return parser


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=BarycenterConfig.max_iterations,
                   help="fixed-point sweep cap (barycenter and --init linear-init only)")
    p.add_argument("--tol", type=float, default=BarycenterConfig.stop_threshold,
                   help="fixed-point stop threshold (barycenter and --init linear-init only)")


def _add_output_flags(p: argparse.ArgumentParser, with_format: bool = True) -> None:
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default ${OUT_DIR_ENV} or ./{DEFAULT_OUT_DIR})")
    if with_format:
        p.add_argument("--format", choices=tuple(_EXTENSIONS), default="json")


def _check_solver_flags(args) -> None:
    """Check ``--max-iter`` and ``--tol`` under their flag names."""
    require_count("--max-iter", args.max_iter, 1)
    require_threshold("--tol", args.tol)


def _check_paths(args) -> Path | None:
    """Check every path argument; return the output directory, or None for
    ``dist``: ``--out-dir``, else ``$TOKENMORPH_OUT_DIR`` unless empty, else
    ``./tokenmorph_out``.

    Rejects an empty input path or ``--out-dir``, an output directory at or
    under an existing file, a ``--name`` that is not a bare file stem (an
    empty one would write ``<kind>.json``), and one whose token file would
    be ``manifest.json``, which the run's manifest would replace.
    """
    for name in ("blended", "source", "target"):
        if getattr(args, name, None) == "":
            raise InvalidParameterError(f"{name} must name a file, got ''")
    if not hasattr(args, "out_dir"):
        return None
    if args.out_dir == "":
        raise InvalidParameterError("--out-dir must name a directory, got ''")
    out = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise InvalidParameterError(
                    f"output directory {str(out)!r} cannot be made: "
                    f"{str(path)!r} exists and is not a directory")
            break
    name = getattr(args, "name", None)
    if name is not None and (not name or Path(name).name != name):
        raise InvalidParameterError(
            f"--name must be a file stem inside the output directory, got {name!r}")
    # A pair's files are <name>_source and <name>_target.
    if (name == "manifest" and args.format == "json"
            and args.kind != "two_cluster_swap_pair"):
        raise InvalidParameterError(
            "--name 'manifest' would write manifest.json, the run's manifest")
    return out


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _entry(name: str, data: bytes) -> dict:
    """An output file's manifest entry: its name and digest."""
    return {"file": name, "sha256": hashlib.sha256(data).hexdigest()}


def _token_bytes(fmt: str, tokens: TokenSet, like: tuple[TokenSet, ...] = ()) -> bytes:
    """The token file of ``tokens`` in ``fmt``; ``like`` as for
    ``tokens_to_json_bytes``."""
    if fmt == "binary":
        return tokens_to_binary_bytes(tokens)
    return tokens_to_json_bytes(tokens, like)


def _read_inputs(args, *names: str, keep: tuple[str, ...] = ()
                 ) -> tuple[list[TokenSet], dict[str, dict]]:
    """Parse the token files named by the positional arguments ``names``.
    For JSON output, those named in ``keep``, whose rows the command may
    write back, keep their rows' text if it is the writer's
    (``read_tokens``'s ``keep_text``).

    Returns the token sets and each input's manifest entry: its file
    name, digest and shape. The entries are taken here, before the
    command writes anything, so an input that an output overwrites is
    recorded as it was read.
    """
    tokens, entries = [], {}
    for name in names:
        arg = getattr(args, name)
        tokens.append(read_tokens(arg, keep_text=name in keep and args.format == "json"))
        path = Path(arg)
        entries[name] = {
            "file": path.name,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "n": tokens[-1].n,
            "d": tokens[-1].m,
        }
    return tokens, entries


def _write_outputs(args, out_dir: Path, inputs: dict[str, dict], files: dict[str, bytes],
                   body: dict, shown: Path | None = None) -> int:
    """Make ``out_dir``, write ``files`` (name to bytes) into it in order and
    then the run's ``manifest.json``, and print ``shown`` (default ``out_dir``).

    The manifest holds the command's own ``body`` fields plus its name,
    every parsed flag except ``--out-dir`` as ``parameters``, and the
    ``_read_inputs`` entries in ``inputs``. An earlier run's manifest is
    removed before the first write, and the new one is written under a
    temporary name and renamed into place last, so a ``manifest.json``
    always describes the files beside it: a run that fails part way
    leaves none.
    """
    skip = {"command", "func", "out_dir", *inputs}
    manifest = {
        **body,
        "manifest": "tokenmorph-run/1",
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in skip},
    }
    if inputs:
        manifest["inputs"] = inputs
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    pending = out_dir / ".manifest.json.tmp"
    try:
        pending.write_bytes(_json_bytes(manifest))
        os.replace(pending, out_dir / "manifest.json")
    except OSError:
        pending.unlink(missing_ok=True)
        raise
    print(shown or out_dir)
    return EXIT_OK


def _cmd_dist(args, out_dir: None) -> int:
    # No outputs, so no digests: the inputs are only parsed.
    print(w2_distance(read_tokens(args.source), read_tokens(args.target)))
    return EXIT_OK


def _cmd_barycenter(args, out_dir: Path) -> int:
    require_fraction("beta", args.beta)
    _check_solver_flags(args)
    config = BarycenterConfig(max_iterations=args.max_iter, stop_threshold=args.tol)
    (source, target), inputs = _read_inputs(args, "source", "target")
    init = {"source": source, "target": target}.get(args.init)
    if init is None:
        init = index_lerp(source, target, args.beta)
    result = pairwise_barycenter(source, target, args.beta, init, config)

    name = f"barycenter.{_EXTENSIONS[args.format]}"
    data = _token_bytes(args.format, result.support)
    return _write_outputs(args, out_dir, inputs, {name: data}, {
        "outputs": [_entry(name, data)],
        "diagnostics": {
            "iterations_used": result.iterations_used,
            "converged": result.converged,
            "objective": result.objective,
        },
    })


def _cmd_morph(args, out_dir: Path) -> int:
    if args.tau is not None:
        require_fraction("tau", args.tau)
    require_count("--frames", args.frames, 0)
    _check_solver_flags(args)
    config = MorphConfig(
        J=args.frames,
        init_mode=args.init.replace("-", "_"),
        barycenter_config=BarycenterConfig(
            max_iterations=args.max_iter, stop_threshold=args.tol
        ),
    )
    (source, target), inputs = _read_inputs(args, "source", "target", keep=("source", "target"))
    trajectory = morph_geometry(source, target, config)
    if args.tau is not None:
        reports = morph_texture(trajectory, source, target, args.tau)

    ext = _EXTENSIONS[args.format]
    files, frames = {}, []
    for k, (frame, beta, diag) in enumerate(
        zip(trajectory.frames, trajectory.betas, trajectory.frame_diagnostics)
    ):
        name = f"frame_{k:03d}.{ext}"
        # The first frame's rows are the source's, the last's the target's.
        files[name] = _token_bytes(args.format, frame, (source, target))
        frames.append({
            **_entry(name, files[name]),
            "beta": beta,
            "iterations": diag.iterations_used,
            "converged": diag.converged,
            "objective": diag.objective,
        })
    files["frames_index.json"] = _json_bytes(
        {"files": [entry["file"] for entry in frames], "betas": list(trajectory.betas)})
    body = {"betas": list(trajectory.betas), "frames": frames,
            "step_w2": list(trajectory.step_w2)}

    if args.tau is not None:
        body["texture_frames"] = []
        for k, report in enumerate(reports):
            # A frame that kept every token is returned as is: reuse its
            # bytes and their digest.
            name = f"texture_{k:03d}.{ext}"
            if report.output is trajectory.frames[k]:
                files[name] = files[frames[k]["file"]]
                entry = {"file": name, "sha256": frames[k]["sha256"]}
            else:
                files[name] = _token_bytes(args.format, report.output)
                entry = _entry(name, files[name])
            copied = int(np.count_nonzero(~report.decisions.kept_barycenter))
            body["texture_frames"].append({
                **entry,
                "copied_from_source": copied,
                "kept_barycenter": report.output.n - copied,
            })
    return _write_outputs(args, out_dir, inputs, files, body)


def _cmd_texture_select(args, out_dir: Path) -> int:
    require_fraction("tau", args.tau)
    tokens, inputs = _read_inputs(args, "blended", "source", "target", keep=("blended",))
    report = selective_texture_tokens(*tokens, args.tau)

    # Spliced from the blended input when the selection copies no source token.
    selected = _token_bytes(args.format, report.output, (tokens[0],))
    files = {
        f"selected.{_EXTENSIONS[args.format]}": selected,
        "selection_report.json": _report_bytes(args.tau, report.decisions),
    }
    return _write_outputs(args, out_dir, inputs, files,
                          {"outputs": [_entry(*item) for item in files.items()]})


# One decision record, with its fields in sorted order, as json's indented
# encoder writes it in the report's list.
_DECISION_TEMPLATE = """    {
      "kept_barycenter": %s,
      "nearest_source_index": %d,
      "nearest_target_index": %d,
      "sim": %r,
      "token": %d
    }"""


def _report_bytes(tau: float, decisions: np.recarray) -> bytes:
    """``_json_bytes({"tau": tau, "decisions": records})``, where record k
    is ``{"token": k}`` plus decision k's fields, with one ``%`` format
    per record: json's indented encoder runs in pure Python, and took
    about five times as long on 512 records.

    ``tau`` and every ``sim`` must be finite: ``%r`` writes ``nan``
    where json writes ``NaN``. Each record's values come in the field
    order of ``selective._DECISION_DTYPE``.
    """
    records = ",\n".join(
        _DECISION_TEMPLATE % ("true" if kept else "false", source, target, sim, k)
        for k, (source, target, sim, kept) in enumerate(decisions.tolist()))
    return ('{\n  "decisions": [\n%s\n  ],\n  "tau": %r\n}\n' % (records, tau)).encode()


def _cmd_sweep_tau(args, out_dir: Path) -> int:
    parts = [part.strip() for part in args.grid.split(",") if part.strip()]
    try:
        args.grid = [float(part) for part in parts]
    except ValueError as exc:
        raise InvalidParameterError(f"bad --grid value: {exc}") from None
    if not args.grid:
        raise InvalidParameterError("--grid must name at least one threshold")
    # Equal thresholds, such as 0.3 and 0.30 or -0.0 and 0.0, would list
    # one report twice or write two reports of one threshold.
    spelled = {}
    for part, tau in zip(parts, args.grid):
        require_fraction("tau", tau)
        if tau in spelled:
            raise InvalidParameterError(
                f"--grid repeats threshold {tau!r}: {spelled[tau]!r} and {part!r}")
        spelled[tau] = part
    require_count("--frames", args.frames, 0)
    config = MorphConfig(J=args.frames)

    (source, target), inputs = _read_inputs(args, "source", "target")
    trajectory = morph_geometry(source, target, config)
    # Nearest tokens and their similarity do not depend on tau, so one
    # field per frame serves the whole grid.
    sims = [_similarity_field(frame, source, target)[2] for frame in trajectory.frames]
    # Frames of weighted or unequal-size sets carry up to n + n' - 1 tokens.
    tokens = sum(frame_sims.size for frame_sims in sims)
    files, outputs = {}, []
    for tau in args.grid:
        per_frame = []
        for k, frame_sims in enumerate(sims):
            kept = int(np.count_nonzero(_kept(frame_sims, tau)))
            per_frame.append({
                "frame": k,
                "beta": trajectory.betas[k],
                "copied_from_source": frame_sims.size - kept,
                "kept_barycenter": kept,
            })
        total_copied = sum(entry["copied_from_source"] for entry in per_frame)
        name = f"sweep_tau_{tau}.json"
        files[name] = _json_bytes({
            "tau": tau,
            "per_frame": per_frame,
            "copied_fraction": total_copied / tokens,
        })
        outputs.append({**_entry(name, files[name]), "tau": tau})
    return _write_outputs(args, out_dir, inputs, files, {"outputs": outputs})


def _cmd_gen_synthetic(args, out_dir: Path) -> int:
    generated = gen_synthetic(args.kind, args.n, args.d, args.seed)
    ext = _EXTENSIONS[args.format]
    args.name = args.name or args.kind

    if isinstance(generated, tuple):
        named = {f"{args.name}_{suffix}": tokens
                 for suffix, tokens in zip(("source", "target"), generated)}
    else:
        named = {args.name: generated}
    files = {f"{stem}.{ext}": _token_bytes(args.format, tokens) for stem, tokens in named.items()}
    return _write_outputs(args, out_dir, {}, files,
                          {"outputs": [_entry(*item) for item in files.items()]})


def _cmd_demo(args, out_dir: Path) -> int:
    if args.tau is not None:
        require_fraction("tau", args.tau)
    require_count("--frames", args.frames, 0)
    source, target = _demo_shapes(args.points)
    trajectory = morph_geometry(source, target, MorphConfig(J=args.frames))
    frames = trajectory.frames
    if args.tau is not None:
        frames = tuple(r.output for r in morph_texture(trajectory, source, target, args.tau))
    svg = render_trajectory_svg([decode_tokens_to_shape(frame) for frame in frames])

    files = {
        "demo.svg": svg.encode("utf-8"),
        "demo_source.json": tokens_to_json_bytes(source),
        "demo_target.json": tokens_to_json_bytes(target),
    }
    return _write_outputs(args, out_dir, {}, files, {
        "outputs": [_entry(*item) for item in files.items()],
        "betas": list(trajectory.betas),
        "step_w2": list(trajectory.step_w2),
    }, shown=out_dir / "demo.svg")


def _demo_shapes(n: int) -> tuple[TokenSet, TokenSet]:
    """Deterministic three-lobe and five-lobe polygons as 2-D tokens."""
    if n < 3:
        raise InvalidParameterError("demo needs at least 3 tokens per shape")
    theta = 2.0 * np.pi * np.arange(n) / n
    source = np.stack([0.35 * np.cos(3.0 * theta), np.zeros(n)], axis=1)
    target = np.stack(
        [0.35 * np.cos(5.0 * theta + 0.5), 0.15 * np.sin(2.0 * theta)], axis=1
    )
    return TokenSet(source), TokenSet(target)


if __name__ == "__main__":
    sys.exit(main())
