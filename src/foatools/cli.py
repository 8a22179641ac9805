"""Command-line surface for scripted pipelines and desk-scale experiments.

Every subcommand maps onto one library operation, prints a JSON result on
standard output (with a ``schema_version`` field) and is deterministic
given identical inputs and an explicit ``--seed`` wherever sampling is
involved. Exit codes: 0 success, 1 usage error, 2 data error (the
diagnostic names the offending file, with a byte offset when the parser
knows one). Output files are written atomically, so failures never leave
partial files behind. A manifest run writes one row per record, in input
order: a record that fails a data check gets an ``error`` row and the run
exits 2, but every good row is still written and the output file is complete.
``--jobs N`` maps records on min(N, records) forked processes (fork-with-threads
caveats apply); ``--jobs 1`` runs them on one worker thread of this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial

import numpy as np

from . import curation, guidance, patch_saliency, semantic_metrics, spatial_metrics
from .code_pattern import CodeMatrix, Pattern, ReorgMatrix, pack, pattern_steps, unpack
from .errors import FoaToolsError, InvalidRotationError
from .foa import (
    ENERGY_MODE_POWER,
    ENERGY_MODES,
    Direction,
    Rotation,
    SphereGrid,
    _decode,
    _encode,
    _rotate,
    energy_map,
)
from .tensor_io import (
    WAV_ENCODINGS,
    atomic_write,
    describe_file,
    read_code_matrix,
    read_foa_summary,
    read_foa_wav,
    read_tensor,
    read_wav_slabs,
    write_code_matrix,
    write_energy_map_csv,
    write_energy_map_pgm,
    write_pgm,
    write_tensor,
    write_wav_slabs,
)

SCHEMA_VERSION = 1

# The data errors: exit code 2, or an error row in a manifest run.
_DATA_ERRORS = (FoaToolsError, ValueError, OSError)

SPATIAL_CSV_COLUMNS = ("cc_all", "cc_1fps", "cc_5fps", "auc_all", "auc_1fps", "auc_5fps")


class UsageError(Exception):
    """Bad flags or flag combinations; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(parse, accept, requirement: str):
    """An argparse ``type``: ``parse`` the text, then refuse values ``accept`` rejects."""

    def check(text: str):
        value = parse(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    check.__name__ = parse.__name__
    return check


_positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda value: value >= 0, "a nonnegative integer")
_positive_float = _checked(float, lambda value: value > 0.0, "positive")
_top_p = _checked(float, lambda value: 0.0 < value <= 1.0, "in (0, 1]")
_percentile = _checked(float, lambda value: 0.0 < value < 100.0, "in (0, 100)")
_nonnegative_float = _checked(float, lambda value: value >= 0.0, "nonnegative")
_finite_float = _checked(float, math.isfinite, "finite")


def _print_json(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, sort_keys=True))


def _parse_angles(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"direction must be 'azimuth,elevation', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"direction components must be numbers, got {text!r}") from None


def _int_pair(text: str, sep: str, unparsed: str, not_a_pair: str) -> tuple:
    """The integers A and B of ``A<sep>B``: UsageError(unparsed) unless the first
    two parts are integers, UsageError(not_a_pair) if more parts follow."""
    parts = text.split(sep)
    try:
        pair = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
        raise UsageError(unparsed) from None
    if len(parts) != 2:
        raise UsageError(not_a_pair)
    return pair


def _parse_grid(text: str) -> SphereGrid:
    usage = f"grid must be 'BANDSxAZIMUTHS', e.g. 32x64, got {text!r}"
    counts = f"grid must be 'BANDSxAZIMUTHS' with positive counts, got {text!r}"
    bands, azimuths = _int_pair(text.lower(), "x", usage, counts)
    if bands < 1 or azimuths < 1:
        raise UsageError(counts)
    return SphereGrid(bands, azimuths)


def _parse_window(text: str) -> tuple:
    usage = f"window must be 'START:END' in samples, got {text!r}"
    return _int_pair(text, ":", usage, usage)


# ---------------------------------------------------------------------------
# Subcommand handlers


# Input channels, output channels and slab transform of each streamed command.
_SLAB_TRANSFORMS = {
    "encode": (1, 4, lambda slab, direction: _encode(slab[0], direction)),
    "decode": (4, 1, lambda slab, direction: _decode(slab, direction)[None]),
    "rotate": (4, 4, _rotate),
}


def _finite(path, slab: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(slab)):
        raise FoaToolsError(f"{path}: samples must be finite")
    return slab


def _transform_wav(args, flags):
    """The read, transform and write step of encode, decode and rotate: check
    the header of ``args.input``, then write the command's transform under
    ``flags`` (the Direction or Rotation built before any read) of each slab,
    checked for a non-finite sample (the only check: a finite slab transforms
    to finite samples), to ``args.output``. Returns the header."""
    channels, out_channels, transform = _SLAB_TRANSFORMS[args.command]
    with read_wav_slabs(args.input, channels) as (header, decoded):
        slabs = (transform(_finite(args.input, slab), flags) for slab in decoded)
        write_wav_slabs(slabs, out_channels, header.sample_rate, header.frames, args.output, args.encoding)
    return header


def cmd_pan(args) -> int:
    """``encode`` and ``decode``, which share their flags and stdout keys."""
    azimuth, elevation = args.dir
    if args.degrees:
        azimuth, elevation = math.radians(azimuth), math.radians(elevation)
    try:
        direction = Direction(azimuth, elevation)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    header = _transform_wav(args, direction)
    _print_json(
        {
            "direction": asdict(direction),
            "n_samples": header.frames,
            "output": args.output,
            "sample_rate": header.sample_rate,
        }
    )
    return 0


def _rotation_from_args(args) -> Rotation:
    if args.matrix is not None:
        entries = args.matrix.split(",")
        if len(entries) != 9:
            raise UsageError("matrix needs 9 comma-separated row-major entries")
        try:
            return Rotation(np.array([float(e) for e in entries]).reshape(3, 3))
        except InvalidRotationError as exc:
            raise UsageError(str(exc)) from None
        except ValueError:  # an entry that is not a number
            raise UsageError("matrix entries must be numbers") from None
    if args.z_quarters is not None:
        return Rotation(np.linalg.matrix_power(Rotation.quarter_turn_z().matrix, args.z_quarters % 4))
    return Rotation.about_z(math.radians(args.z_degrees))


def cmd_rotate(args) -> int:
    rotation = _rotation_from_args(args)
    header = _transform_wav(args, rotation)
    _print_json(
        {
            "matrix": [[float(v) for v in row] for row in rotation.matrix],
            "n_samples": header.frames,
            "output": args.output,
        }
    )
    return 0


def cmd_energy_map(args) -> int:
    clip = read_foa_wav(args.input)
    with _naming(args.input):  # a window past the clip's end
        emap = energy_map(clip, args.grid, args.window, args.mode)
    if args.csv:
        write_energy_map_csv(emap, args.csv)
    if args.pgm:
        write_energy_map_pgm(emap, args.pgm)
    argmax = args.grid.direction(emap.argmax_cell())
    _print_json(
        {
            "argmax": asdict(argmax),
            "mode": emap.mode,
            "n_cells": args.grid.n_cells,
            "value_max": float(emap.values.max()),
            "value_weighted_mean": float(args.grid.weights @ emap.values),
            "window": list(emap.window),
        }
    )
    return 0


def _check_record(record, where, required, optional=()) -> dict:
    """``record`` if it is an object with every ``required`` key and a path string
    under each path key present; else a data error whose message begins with ``where``."""
    if not isinstance(record, dict):
        raise FoaToolsError(f"{where}: record is not a JSON object")
    for key in (*required, *optional):
        if key in required and key not in record:
            raise FoaToolsError(f"{where}: record misses {key!r}")
        if key in record and not isinstance(record[key], str):
            raise FoaToolsError(f"{where}: {key!r} must be a path string")
    return record


def _load_manifest(path, required, optional=()) -> list:
    """Read NDJSON object records; the ``required`` and ``optional`` keys hold paths."""
    records = []
    # Undecodable bytes become lone surrogates, so they can be found per line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise FoaToolsError(f"{path}:{lineno}: not UTF-8 text") from exc
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise FoaToolsError(f"{path}:{lineno}: bad JSON record: {exc}") from exc
            records.append(_check_record(record, f"{path}:{lineno}", required, optional))
    if not records:
        raise FoaToolsError(f"{path}: manifest holds no records")
    return records


def _row_or_error(one, keys, record):
    """``(one(record), None)``, or for a data error the row ``{<keys>, "error"}`` and its message."""
    try:
        return one(record), None
    except _DATA_ERRORS as exc:
        where = {key: record[key] for key in keys if key in record}
        return {**where, "error": {"message": str(exc), "type": type(exc).__name__}}, str(exc)


def _run_manifest(args, one, summarize, required, optional=()) -> int:
    """Write ``one(record)`` for every record: on ``min(args.jobs, records)`` forked processes, or one thread.

    A record that raises a data error gets the row ``{<its path keys>, "error"}``.
    ``summarize(records, rows)`` may complete the rows or raise before the write,
    and returns the stdout summary. It first runs with no rows before any record,
    so an error in the manifest stops the run before a file is read. Returns 2
    if any record failed, else 0.
    """
    if not args.out:
        raise UsageError("--manifest mode needs --out for the NDJSON results")
    records = _load_manifest(args.manifest, required, optional)
    summarize(records, ())
    workers = min(args.jobs or 1, len(records))
    if workers > 1:
        # Imported here, as their ~23 ms import would slow every command's start.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))
    else:  # a thread, as glibc page-faults about 3x more on the main thread (README, Manifests)
        pool = ThreadPoolExecutor(max_workers=1)
    with pool:
        rows, messages = zip(*pool.map(partial(_row_or_error, one, (*required, *optional)), records))
    failed = [message for message in messages if message is not None]
    summary = summarize(records, rows)
    lines = [json.dumps({"schema_version": SCHEMA_VERSION, **row}, sort_keys=True) for row in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    for message in failed:
        print(f"error: {message}", file=sys.stderr)
    _print_json({**summary, "output": args.out})
    return 2 if failed else 0


@contextmanager
def _naming(where: str):
    """Re-raise a data error of the block as its own type, its message led by ``where``."""
    try:
        yield
    except (FoaToolsError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _spatial_one(record, grid, fixation_percentile) -> dict:
    gen, gt = record["gen"], record["gt"]
    gen_moments, gt_moments = (read_foa_summary(path, spatial_metrics.window_moments) for path in (gen, gt))
    with _naming(f"{gen} vs {gt}"):
        report = spatial_metrics.evaluate_windows(gen_moments, gt_moments, grid, fixation_percentile)
    return {"gen": gen, "gt": gt, **report.to_dict()}


def cmd_eval_spatial(args) -> int:
    one = partial(_spatial_one, grid=args.grid, fixation_percentile=args.fixation_percentile)
    if args.manifest:
        if args.gen or args.gt:
            raise UsageError("give either a gen/gt pair or --manifest, not both")
        if args.csv:
            raise UsageError("--csv goes with a gen/gt pair, not --manifest")
        return _run_manifest(args, one, lambda _, rows: {"n_pairs": len(rows)}, ("gen", "gt"))
    if not (args.gen and args.gt):
        raise UsageError("need generated and reference WAV paths (or --manifest)")
    for flag in ("out", "jobs"):
        if getattr(args, flag) is not None:
            raise UsageError(f"--{flag} goes with --manifest only")
    report = one({"gen": args.gen, "gt": args.gt})
    del report["gen"], report["gt"]
    if args.csv:
        row = ",".join(f"{report[c]:.17g}" for c in SPATIAL_CSV_COLUMNS)
        _write_text(args.csv, row + "\n")
    _print_json(report)
    return 0


def _feature_stats(path) -> semantic_metrics.GaussianStats:
    tensor = read_tensor(path)
    if tensor.ndim != 2:
        raise FoaToolsError(f"{path}: feature tensors must be 2-D, got shape {tensor.shape}")
    with _naming(path):
        return semantic_metrics.gaussian_stats(tensor)


def _fad(gen_path, gt_path) -> float:
    stats = _feature_stats(gen_path), _feature_stats(gt_path)
    with _naming(f"{gen_path} vs {gt_path}"):
        return semantic_metrics.frechet_distance(*stats)


def _mean_kld(gen_path, gt_path, epsilon) -> float:
    gen, gt = read_tensor(gen_path), read_tensor(gt_path)
    if gen.shape != gt.shape:
        raise FoaToolsError(
            f"{gen_path} and {gt_path} hold mismatched shapes {gen.shape} vs {gt.shape}"
        )
    if gen.ndim > 2:
        raise FoaToolsError(f"{gen_path}: probability tensors must be 1-D or 2-D")
    pairs = zip(np.atleast_2d(gen), np.atleast_2d(gt))
    with _naming(f"{gen_path} vs {gt_path}"):
        return float(np.mean([semantic_metrics.kld(g, t, epsilon) for g, t in pairs]))


_SEMANTIC_KEYS = ("gen_features", "gt_features", "gen_probs", "gt_probs")


def _semantic_one(record, args) -> dict:
    for kind in ("features", "probs"):
        gen, gt = record.get(f"gen_{kind}"), record.get(f"gt_{kind}")
        if (gen is None) != (gt is None):
            raise FoaToolsError(f"{gen or gt}: gen_{kind} and gt_{kind} go together")
    if "gen_features" not in record and "gen_probs" not in record:
        raise FoaToolsError(f"{args.manifest}: record carries neither features nor probabilities")
    row = dict(record)
    if "gen_features" in record:
        row["fad"] = _fad(record["gen_features"], record["gt_features"])
    if "gen_probs" in record:
        row["kld"] = _mean_kld(record["gen_probs"], record["gt_probs"], args.epsilon)
    return row


def cmd_eval_semantic(args) -> int:
    one = partial(_semantic_one, args=args)
    if args.manifest:
        if args.channels or any(getattr(args, key) for key in _SEMANTIC_KEYS):
            raise UsageError("give either feature, probability or channel inputs or --manifest, not both")
        return _run_manifest(args, one, lambda _, rows: {"n_records": len(rows)}, (), _SEMANTIC_KEYS)
    for flag in ("out", "jobs"):
        if getattr(args, flag) is not None:
            raise UsageError(f"--{flag} goes with --manifest only")
    record = {key: getattr(args, key) for key in _SEMANTIC_KEYS if getattr(args, key)}
    for kind in ("features", "probs"):
        if (f"gen_{kind}" in record) != (f"gt_{kind}" in record):
            raise UsageError(f"--gen-{kind} and --gt-{kind} go together")
    if not (record or args.channels):
        raise UsageError("nothing to evaluate; pass feature, probability or channel inputs")
    result = {}
    if record:
        result = {key: value for key, value in one(record).items() if key not in record}
    if args.channels:
        with open(args.channels, "r", encoding="utf-8") as handle:
            try:
                mapping = json.load(handle)
            except (ValueError, RecursionError) as exc:
                raise FoaToolsError(f"{args.channels}: bad JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise FoaToolsError(f"{args.channels}: expected an object of channel entries")
        for name, entry in mapping.items():
            _check_record(entry, f"{args.channels}: channel {name!r}", ("gen", "gt"))
        channels = semantic_metrics.CHANNEL_NAMES
        missing = [name for name in channels if name not in mapping]
        if missing:
            raise FoaToolsError(f"{args.channels}: missing channel feature pairs: {', '.join(missing)}")
        # semantic_metrics.fad_avg's mean, taken here so that each data error names its file.
        distances = [_fad(mapping[name]["gen"], mapping[name]["gt"]) for name in channels]
        result["fad_avg"] = float(np.mean(distances))
    _print_json(result)
    return 0


def cmd_patch_energy(args) -> int:
    embeddings = read_tensor(args.input)
    if embeddings.ndim != 4:
        raise FoaToolsError(
            f"{args.input}: patch embeddings must be 4-D, got shape {embeddings.shape}"
        )
    with _naming(args.input):  # a non-finite value or an all-zero embedding vector
        spatial, temporal = patch_saliency.patch_scores(embeddings, args.spatial_window, args.temporal_window)
    energy = patch_saliency.energy_from_scores(spatial, temporal, args.temperature, args.top_p)
    write_tensor(energy.astype(np.float32), args.output)
    if args.pgm_dir:
        os.makedirs(args.pgm_dir, exist_ok=True)
        for i in range(energy.shape[0]):
            write_pgm(energy[i], os.path.join(args.pgm_dir, f"frame_{i:04d}.pgm"))
    _print_json(
        {
            "frames": int(energy.shape[0]),
            "output": args.output,
            "patch_cols": int(energy.shape[2]),
            "patch_rows": int(energy.shape[1]),
        }
    )
    return 0


def cmd_pattern(args) -> int:
    matrix = read_code_matrix(args.input)
    if args.action == "pack":
        if not isinstance(matrix, CodeMatrix):
            raise FoaToolsError(f"{args.input}: already pattern-scheduled; unpack it first")
        raw, reorg = matrix, pack(matrix, Pattern(args.pattern))
        write_code_matrix(reorg, args.output)
    else:
        if not isinstance(matrix, ReorgMatrix):
            raise FoaToolsError(f"{args.input}: not pattern-scheduled; nothing to unpack")
        with _naming(args.input):
            raw, reorg = unpack(matrix), matrix
        write_code_matrix(raw, args.output)
    _print_json(
        {
            "n_frames": raw.n_frames,
            "n_steps": reorg.n_steps,
            "output": args.output,
            "pattern": reorg.pattern.value,
        }
    )
    return 0


def cmd_generate(args) -> int:
    table = read_code_matrix(args.table)
    if not isinstance(table, CodeMatrix):
        raise FoaToolsError(f"{args.table}: table predictor needs a raw code matrix")
    pattern = Pattern(args.pattern)
    predictor = guidance.TablePredictor(table, pattern)
    config = guidance.GuidanceConfig(args.guidance, args.omega, args.omega2)
    generated = guidance.generate(
        predictor,
        table.n_codebooks_per_channel,
        table.n_frames,
        pattern,
        config,
        temperature=args.temperature,
        top_p=args.top_p,
        seed=args.seed,
        argmax=args.argmax,
    )
    write_code_matrix(generated, args.output)
    _print_json(
        {
            "guidance": config.mode,
            "n_frames": generated.n_frames,
            "n_steps": pattern_steps(pattern, table.n_codebooks_per_channel, table.n_frames),
            "output": args.output,
            "pattern": pattern.value,
            "predictor_queries": predictor.n_queries,
        }
    )
    return 0


def _curate_one(record, args) -> dict:
    stats = read_foa_summary(record["path"], curation.clip_stats)
    # A clip with no whole second has no second that passed the gate.
    amplitude_ok = stats.w_squares.size > 0 and curation.amplitude_gate(stats, args.amplitude_threshold)
    mask = curation.segment_mask(stats, args.rms_threshold)
    windows = (
        [[w.start_second, w.end_second] for w in curation.select_windows(mask)]
        if mask.size >= curation.WINDOW_SECONDS
        else []
    )
    try:
        center = asdict(curation.fov_center(stats, args.grid))
    except FoaToolsError:
        center = None
    return {
        "amplitude_ok": bool(amplitude_ok),
        "fov_center": center,
        "path": record["path"],
        "valid_seconds": int(mask.sum()),
        "windows": windows,
    }


def _score(manifest, record) -> float:
    try:
        return float(record["score"])
    except (TypeError, ValueError, OverflowError) as exc:
        got = json.dumps(record["score"])
        raise FoaToolsError(f"{manifest}: {record['path']}: score must be a number, got {got}") from exc


def _curate_decide(manifest, records, rows) -> dict:
    n_scored = sum("score" in record for record in records)
    if n_scored not in (0, len(records)):
        raise FoaToolsError(f"{manifest}: either every record carries a score or none")
    scores = keep_scores = [None] * len(records)
    if n_scored:
        scores = [_score(manifest, record) for record in records]
        keep_scores = curation.relevance_filter(scores)
    for row, score, score_keep in zip(rows, scores, keep_scores):
        if "error" in row:
            continue
        row["keep"] = bool(row["amplitude_ok"]) and bool(row["windows"])
        if score_keep is not None:
            row.update(score=score, score_keep=bool(score_keep))
            row["keep"] = row["keep"] and row["score_keep"]
    return {"n_clips": len(records), "n_kept": sum(row.get("keep", False) for row in rows)}


def cmd_curate(args) -> int:
    one = partial(_curate_one, args=args)
    return _run_manifest(args, one, partial(_curate_decide, args.manifest), ("path",))


def cmd_info(args) -> int:
    _print_json({"files": [describe_file(path) for path in args.paths]})
    return 0


def _write_text(path, text: str) -> None:
    with atomic_write(path) as handle:
        handle.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Parser


def _add_encoding_flag(parser) -> None:
    parser.add_argument(
        "--encoding",
        choices=WAV_ENCODINGS,
        default="float32",
        help="output WAV sample encoding (default float32)",
    )


def _add_grid_flag(parser) -> None:
    parser.add_argument(
        "--grid",
        type=_parse_grid,
        default="32x64",
        help="sphere grid as 'BANDSxAZIMUTHS' (elevation bands x max azimuth samples)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="foatools", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, source, target in (
        ("encode", "pan a mono WAV to 4-channel ambisonics", "mono input WAV",
         "4-channel output WAV (W, X, Y, Z)"),
        ("decode", "decode an ambisonic WAV to mono at a heading", "4-channel input WAV",
         "mono output WAV"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--dir", type=_parse_angles, required=True,
                       help="direction as 'azimuth,elevation' in radians")
        p.add_argument(
            "--degrees", action="store_true", help="interpret --dir in degrees instead of radians"
        )
        _add_encoding_flag(p)
        p.add_argument("input", help=source)
        p.add_argument("output", help=target)
        p.set_defaults(func=cmd_pan)

    p = sub.add_parser("rotate", help="rotate the sound field of an ambisonic WAV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--z-degrees", type=_finite_float, help="turn about the vertical axis, degrees")
    group.add_argument(
        "--z-quarters",
        type=int,
        help="exact number of 90-degree turns about the vertical axis",
    )
    group.add_argument("--matrix", help="9 comma-separated row-major rotation matrix entries")
    _add_encoding_flag(p)
    p.add_argument("input", help="4-channel input WAV")
    p.add_argument("output", help="4-channel output WAV")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("energy-map", help="per-direction energy of an ambisonic WAV")
    _add_grid_flag(p)
    p.add_argument(
        "--mode", choices=ENERGY_MODES, default=ENERGY_MODE_POWER,
        help="power = mean squared decoded signal; literal-linear = mean decoded signal",
    )
    p.add_argument("--window", type=_parse_window,
                   help="analysis window 'START:END' in samples (default full clip)")
    p.add_argument("--csv", help="write per-cell CSV (azimuth, elevation, weight, value)")
    p.add_argument("--pgm", help="write a PGM heatmap (one row per elevation band)")
    p.add_argument("input", help="4-channel input WAV")
    p.set_defaults(func=cmd_energy_map)

    p = sub.add_parser("eval-spatial", help="windowed correlation/AUC between two clips")
    _add_grid_flag(p)
    p.add_argument("gen", nargs="?", help="generated 4-channel WAV")
    p.add_argument("gt", nargs="?", help="reference 4-channel WAV")
    p.add_argument(
        "--fixation-percentile", type=_percentile, default=spatial_metrics.DEFAULT_FIXATION_PERCENTILE,
        help="weighted percentile of the reference map that defines fixations (percent)",
    )
    p.add_argument("--csv", help="also write the six scores as one CSV line")
    p.add_argument("--manifest", help="NDJSON manifest of {'gen':..., 'gt':...} records")
    p.add_argument("--out", help="output NDJSON path (manifest mode)")
    p.add_argument("--jobs", type=_positive_int, help="parallel clip pairs (manifest mode; default 1)")
    p.set_defaults(func=cmd_eval_spatial)

    p = sub.add_parser(
        "eval-semantic", help="Frechet distance / KL divergence over feature tensors"
    )
    p.add_argument("--gen-features", help="generated feature tensor (rows x dims, f32)")
    p.add_argument("--gt-features", help="reference feature tensor (rows x dims, f32)")
    p.add_argument("--gen-probs", help="generated class probabilities (1-D, or clips x classes)")
    p.add_argument("--gt-probs", help="reference class probabilities, same shape")
    p.add_argument(
        "--channels",
        help="JSON file mapping W/X/Y/Z to {'gen': tensor, 'gt': tensor} for the channel-mean distance",
    )
    p.add_argument("--epsilon", type=_positive_float, default=1e-6, help="probability floor for the KLD")
    p.add_argument(
        "--manifest",
        help="NDJSON manifest of {'gen_features':..., 'gt_features':...} and/or *_probs records",
    )
    p.add_argument("--out", help="output NDJSON path (manifest mode)")
    p.add_argument("--jobs", type=_positive_int, help="parallel records (manifest mode; default 1)")
    p.set_defaults(func=cmd_eval_semantic)

    p = sub.add_parser("patch-energy", help="patchwise energy map from an embedding tensor")
    p.add_argument("--spatial-window", type=_nonnegative_int, default=patch_saliency.DEFAULT_WINDOW,
                   help="spatial half-window N (patches)")
    p.add_argument("--temporal-window", type=_nonnegative_int, default=patch_saliency.DEFAULT_WINDOW,
                   help="temporal half-window T (frames)")
    p.add_argument("--temperature", type=_positive_float, default=patch_saliency.DEFAULT_TEMPERATURE,
                   help="softmax temperature")
    p.add_argument("--top-p", type=_top_p, default=patch_saliency.DEFAULT_TOP_P,
                   help="nucleus mass kept after averaging")
    p.add_argument("--pgm-dir", help="directory for per-frame PGM heatmaps")
    p.add_argument("input", help="patch embedding tensor (time x rows x cols x dims, f32)")
    p.add_argument("output", help="energy tensor output path (time x rows x cols, f32)")
    p.set_defaults(func=cmd_patch_energy)

    p = sub.add_parser("pattern", help="reorganize code matrices onto step schedules")
    p.add_argument("action", choices=("pack", "unpack"))
    p.add_argument(
        "--pattern",
        choices=[pat.value for pat in Pattern],
        default=Pattern.PROPOSED.value,
        help="step schedule (pack only; unpack reads it from the file header)",
    )
    p.add_argument("input", help="input code matrix file")
    p.add_argument("output", help="output code matrix file")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser(
        "generate", help="autoregressive generation demo driven by a table predictor"
    )
    p.add_argument("--table", required=True, help="raw code matrix file the predictor replays")
    p.add_argument(
        "--pattern",
        choices=[pat.value for pat in Pattern],
        default=Pattern.PROPOSED.value,
        help="step schedule to generate along",
    )
    p.add_argument(
        "--guidance", choices=guidance.MODES, default="none", help="logit guidance mode"
    )
    p.add_argument("--omega", type=_finite_float, default=guidance.DEFAULT_OMEGA, help="guidance scale")
    p.add_argument("--omega2", type=_finite_float, default=0.0, help="second scale (dual mode)")
    p.add_argument("--temperature", type=_positive_float, default=1.0, help="sampling temperature")
    p.add_argument("--top-p", type=_top_p, default=1.0, help="nucleus sampling mass")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="sampling seed")
    p.add_argument("--argmax", action="store_true", help="take the most likely code each step")
    p.add_argument("output", help="generated code matrix file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("curate", help="run the corpus filters over a clip manifest")
    _add_grid_flag(p)
    p.add_argument("--manifest", required=True, help="NDJSON manifest of {'path':..., 'score':...}")
    p.add_argument("--out", required=True, help="output NDJSON with decisions")
    p.add_argument(
        "--rms-threshold", type=_nonnegative_float, required=True,
        help="per-second RMS floor on the W channel (amplitude units)",
    )
    p.add_argument(
        "--amplitude-threshold", type=_nonnegative_float, default=curation.DEFAULT_AMPLITUDE_FLOOR,
        help="per-second mean |amplitude| floor on every channel",
    )
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel clips")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("info", help="describe WAV / tensor / code matrix files")
    p.add_argument("paths", nargs="+", help="files to inspect")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
