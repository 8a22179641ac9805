"""Command-line surface for scripted pipelines and desk-scale experiments.

Every subcommand maps onto one library operation and returns its result, which
``main`` alone prints as one JSON object on standard output (with a
``schema_version`` field); it is deterministic given identical inputs and an
explicit ``--seed`` wherever sampling is involved. Exit codes: 0 success, 1
usage error, 2 data error (the diagnostic names the offending file, with a byte
offset when the parser knows one). Output files are written atomically, so
failures never leave partial files behind. A manifest run writes one row per
record, in input order, the good rows too: a record that fails a data check gets
an ``error`` row, counted in ``n_failed``; the run exits 2 exactly when that is above 0.
``--jobs N`` maps records on min(N, records) forked processes (fork-with-threads
caveats apply); ``--jobs 1`` runs them in order in the calling thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
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
    window_sums,
)
from .tensor_io import (
    WAV_ENCODINGS,
    _write_bytes,
    describe_file,
    read_code_matrix,
    read_foa_summary,
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

# The largest BANDS x AZIMUTHS that --grid takes: 1024x1024 makes about 670,000 cells, at about 233 bytes each.
_MAX_GRID_PRODUCT = 1 << 20


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
    if bands * azimuths > _MAX_GRID_PRODUCT:
        raise UsageError(f"grid must have BANDS x AZIMUTHS at most {_MAX_GRID_PRODUCT}, got {text!r}")
    return SphereGrid(bands, azimuths)


def _parse_window(text: str) -> tuple:
    usage = f"window must be 'START:END' in samples, got {text!r}"
    return _int_pair(text, ":", usage, usage)


# ---------------------------------------------------------------------------
# Subcommand handlers


# Input channels, output channels and slab transform of each streamed command.
_SLAB_TRANSFORMS = {
    "encode": (1, 4, _encode),
    "decode": (4, 1, _decode),
    "rotate": (4, 4, _rotate),
}


def _transform_wav(args, flags):
    """The read, transform and write step of encode, decode and rotate: check
    the header of ``args.input``, then write the command's transform under
    ``flags`` (the Direction or Rotation built before any read) of each slab
    to ``args.output``. The decoder refuses a non-finite sample, and a finite
    slab transforms to finite samples, so nothing more is checked. Returns the header."""
    channels, out_channels, transform = _SLAB_TRANSFORMS[args.command]
    with read_wav_slabs(args.input, channels) as (header, decoded):
        slabs = (transform(slab, flags) for slab in decoded)
        write_wav_slabs(slabs, out_channels, header.sample_rate, header.frames, args.output, args.encoding)
    return header


def cmd_pan(args) -> dict:
    """``encode`` and ``decode``, which share their flags and stdout keys."""
    azimuth, elevation = args.dir
    if args.degrees:
        azimuth, elevation = math.radians(azimuth), math.radians(elevation)
    try:
        direction = Direction(azimuth, elevation)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    header = _transform_wav(args, direction)
    return {
        "direction": asdict(direction),
        "n_samples": header.frames,
        "output": args.output,
        "sample_rate": header.sample_rate,
    }


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


def cmd_rotate(args) -> dict:
    rotation = _rotation_from_args(args)
    header = _transform_wav(args, rotation)
    return {
        "matrix": [[float(v) for v in row] for row in rotation.matrix],
        "n_samples": header.frames,
        "output": args.output,
    }


def cmd_energy_map(args) -> dict:
    sums = read_foa_summary(args.input, partial(window_sums, window=args.window))
    emap = energy_map(sums, args.grid, mode=args.mode)
    if args.csv:
        write_energy_map_csv(emap, args.csv)
    if args.pgm:
        write_energy_map_pgm(emap, args.pgm)
    argmax = args.grid.direction(emap.argmax_cell())
    return {
        "argmax": asdict(argmax),
        "mode": emap.mode,
        "n_cells": args.grid.n_cells,
        "value_max": float(emap.values.max()),
        "value_weighted_mean": float(args.grid.weights @ emap.values),
        "window": list(emap.window),
    }


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


def _row_or_error(one, args, keys, record) -> dict:
    """The manifest row of ``record``: its path keys among ``keys``, then the results of
    ``one(record, args=args)``, or for a data error ``"error"``. No other code writes either."""
    row = {key: record[key] for key in keys if key in record}
    try:
        return {**one(record, args=args), **row}
    except _DATA_ERRORS as exc:
        return {**row, "error": {"message": str(exc), "type": type(exc).__name__}}


def _run_manifest(args, one, summarize, required, optional=()) -> dict:
    """Write ``_row_or_error``'s row of each record: on ``min(args.jobs, records)`` forked processes, or inline.

    ``summarize(records, rows)`` may complete the rows or raise before the write,
    and returns the stdout summary. It first runs with no rows before any record,
    so an error in the manifest stops the run before a file is read. The message
    of each row that holds ``error`` goes to stderr, and those rows are counted in
    ``n_failed``; returns the summary with ``n_failed`` and ``output``.
    """
    if not args.out:
        raise UsageError("--manifest mode needs --out for the NDJSON results")
    records = _load_manifest(args.manifest, required, optional)
    summarize(records, ())
    workers = min(args.jobs or 1, len(records))
    row_of = partial(_row_or_error, one, args, (*required, *optional))
    if workers == 1:  # in the calling thread, as a worker thread would only add its start and hand-off
        rows = list(map(row_of, records))
    else:  # imported here, as their ~23 ms import would slow every command's start
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
            rows = list(pool.map(row_of, records))
    summary = summarize(records, rows)
    lines = [json.dumps({"schema_version": SCHEMA_VERSION, **row}, sort_keys=True) for row in rows]
    _write_bytes(args.out, ("\n".join(lines) + "\n").encode())
    failed = [row["error"]["message"] for row in rows if "error" in row]
    for message in failed:
        print(f"error: {message}", file=sys.stderr)
    return {**summary, "n_failed": len(failed), "output": args.out}


def _manifest_mode(args, single_inputs, both: str) -> bool:
    """Whether eval-spatial or eval-semantic ``args`` ask for a manifest run: UsageError(``both``)
    for ``single_inputs`` given with --manifest, and a UsageError for --out or --jobs given without it."""
    if args.manifest and single_inputs:
        raise UsageError(both)
    unpaired = [flag for flag in ("out", "jobs") if getattr(args, flag) is not None]
    if unpaired and not args.manifest:
        raise UsageError(f"--{unpaired[0]} goes with --manifest only")
    return bool(args.manifest)


@contextmanager
def _naming(where: str):
    """Re-raise a data error of the block as its own type, its message led by ``where``."""
    try:
        yield
    except (FoaToolsError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _spatial_one(record, args) -> dict:
    gen, gt = record["gen"], record["gt"]
    gen_moments, gt_moments = (read_foa_summary(path, spatial_metrics.window_moments) for path in (gen, gt))
    with _naming(f"{gen} vs {gt}"):
        report = spatial_metrics.evaluate_windows(gen_moments, gt_moments, args.grid, args.fixation_percentile)
    return asdict(report)


def cmd_eval_spatial(args) -> dict:
    if not (args.manifest or (args.gen and args.gt)):
        raise UsageError("need generated and reference WAV paths (or --manifest)")
    if _manifest_mode(args, args.gen or args.gt, "give either a gen/gt pair or --manifest, not both"):
        if args.csv:
            raise UsageError("--csv goes with a gen/gt pair, not --manifest")
        return _run_manifest(args, _spatial_one, lambda _, rows: {"n_pairs": len(rows)}, ("gen", "gt"))
    report = _spatial_one({"gen": args.gen, "gt": args.gt}, args)
    if args.csv:
        row = ",".join(f"{report[c]:.17g}" for c in SPATIAL_CSV_COLUMNS)
        _write_bytes(args.csv, (row + "\n").encode())
    return report


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
    result = {}
    if "gen_features" in record:
        result["fad"] = _fad(record["gen_features"], record["gt_features"])
    if "gen_probs" in record:
        result["kld"] = _mean_kld(record["gen_probs"], record["gt_probs"], args.epsilon)
    return result


def cmd_eval_semantic(args) -> dict:
    inputs = args.channels or any(getattr(args, key) for key in _SEMANTIC_KEYS)
    if _manifest_mode(args, inputs, "give either feature, probability or channel inputs or --manifest, not both"):
        return _run_manifest(args, _semantic_one, lambda _, rows: {"n_records": len(rows)}, (), _SEMANTIC_KEYS)
    record = {key: getattr(args, key) for key in _SEMANTIC_KEYS if getattr(args, key)}
    for kind in ("features", "probs"):
        if (f"gen_{kind}" in record) != (f"gt_{kind}" in record):
            raise UsageError(f"--gen-{kind} and --gt-{kind} go together")
    if not (record or args.channels):
        raise UsageError("nothing to evaluate; pass feature, probability or channel inputs")
    result = _semantic_one(record, args) if record else {}
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
        missing = ", ".join(name for name in semantic_metrics.CHANNEL_NAMES if name not in mapping)
        if missing:
            raise FoaToolsError(f"{args.channels}: missing channel feature pairs: {missing}")
        # semantic_metrics.fad_avg's mean, taken here so that each data error names its file.
        distances = [_fad(mapping[c]["gen"], mapping[c]["gt"]) for c in semantic_metrics.CHANNEL_NAMES]
        result["fad_avg"] = float(np.mean(distances))
    return result


def cmd_patch_energy(args) -> dict:
    embeddings = read_tensor(args.input)
    if embeddings.ndim != 4:
        raise FoaToolsError(
            f"{args.input}: patch embeddings must be 4-D, got shape {embeddings.shape}"
        )
    with _naming(args.input):  # a non-finite value, an all-zero embedding vector or a too small temperature
        spatial, temporal = patch_saliency.patch_scores(embeddings, args.spatial_window, args.temporal_window)
        energy = patch_saliency.energy_from_scores(spatial, temporal, args.temperature, args.top_p)
    write_tensor(energy, args.output)
    if args.pgm_dir:
        os.makedirs(args.pgm_dir, exist_ok=True)
        for i in range(energy.shape[0]):
            write_pgm(energy[i], os.path.join(args.pgm_dir, f"frame_{i:04d}.pgm"))
    return {
        "frames": int(energy.shape[0]),
        "output": args.output,
        "patch_cols": int(energy.shape[2]),
        "patch_rows": int(energy.shape[1]),
    }


def cmd_pattern(args) -> dict:
    if args.action == "unpack" and args.pattern is not None:
        raise UsageError("--pattern goes with pack only; unpack reads it from the file header")
    matrix = read_code_matrix(args.input)
    if args.action == "pack":
        if not isinstance(matrix, CodeMatrix):
            raise FoaToolsError(f"{args.input}: already pattern-scheduled; unpack it first")
        raw, reorg = matrix, pack(matrix, Pattern(args.pattern or Pattern.PROPOSED))
        write_code_matrix(reorg, args.output)
    else:
        if not isinstance(matrix, ReorgMatrix):
            raise FoaToolsError(f"{args.input}: not pattern-scheduled; nothing to unpack")
        with _naming(args.input):
            raw, reorg = unpack(matrix), matrix
        write_code_matrix(raw, args.output)
    return {
        "n_frames": raw.n_frames,
        "n_steps": reorg.n_steps,
        "output": args.output,
        "pattern": reorg.pattern.value,
    }


def cmd_generate(args) -> dict:
    table = read_code_matrix(args.table)
    if not isinstance(table, CodeMatrix):
        raise FoaToolsError(f"{args.table}: table predictor needs a raw code matrix")
    pattern = Pattern(args.pattern)
    predictor = guidance.TablePredictor(table, pattern)
    config = guidance.GuidanceConfig(args.guidance, args.omega, args.omega2)
    with _naming(args.table):  # a temperature too small for the table's logits
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
    return {
        "guidance": config.mode,
        "n_frames": generated.n_frames,
        "n_steps": pattern_steps(pattern, table.n_codebooks_per_channel, table.n_frames),
        "output": args.output,
        "pattern": pattern.value,
        "predictor_queries": predictor.n_queries,
    }


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
        "valid_seconds": int(mask.sum()),
        "windows": windows,
    }


def _score(manifest, record) -> float:
    score = record["score"]
    with suppress(TypeError, ValueError, OverflowError):  # a value float() refuses
        if not isinstance(score, bool) and math.isfinite(float(score)):
            return float(score)
    raise FoaToolsError(f"{manifest}: {record['path']}: score must be a number, got {json.dumps(score)}")


def _curate_decide(manifest, records, rows) -> dict:
    n_scored = sum("score" in record for record in records)
    if n_scored not in (0, len(records)):
        raise FoaToolsError(f"{manifest}: either every record carries a score or none")
    scores = keep_scores = [None] * len(records)
    if n_scored:
        scores = [_score(manifest, record) for record in records]
        with _naming(manifest):
            keep_scores = curation.relevance_filter(scores)
    for row, score, score_keep in zip(rows, scores, keep_scores):
        if "error" in row:
            continue
        row["keep"] = bool(row["amplitude_ok"]) and bool(row["windows"])
        if score_keep is not None:
            row.update(score=score, score_keep=bool(score_keep))
            row["keep"] = row["keep"] and row["score_keep"]
    return {"n_clips": len(records), "n_kept": sum(row.get("keep", False) for row in rows)}


def cmd_curate(args) -> dict:
    return _run_manifest(args, _curate_one, partial(_curate_decide, args.manifest), ("path",))


def cmd_info(args) -> dict:
    return {"files": [describe_file(path) for path in args.paths]}


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
        help="step schedule (pack only, default proposed; unpack reads it from the file header)",
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
        result = args.func(args)
        print(json.dumps({"schema_version": SCHEMA_VERSION, **result}, sort_keys=True))
        return 2 if result.get("n_failed", 0) > 0 else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
