"""The four workloads: the CLI calls that make one op, and the output checks.

Checks read the outputs with the benchmark's own readers (``oracle.py``)
and compare them with what ``gen.py`` planted. Each record (one manifest
row or one single-file call) ends as ok or wrong: the CLI crashed, exited
non-zero, or gave an output that fails a check. Only the real-corpus probes
of ``corpus_prep``, which foatools is expected to refuse, may end as
rejected: the CLI exited non-zero and said why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import traceback
from collections import namedtuple

import foatools.cli
import numpy as np

import gen
import oracle

OK, REJECTED, WRONG = "ok", "rejected", "wrong"


# One record's outcome; ``work`` is its audio seconds or frames.
Record = namedtuple("Record", "status work message", defaults=("",))


def _judge(problems, work, what) -> Record:
    if problems:
        return Record(WRONG, work, f"{what}: " + "; ".join(problems))
    return Record(OK, work)


def _failed(result, work, what, probe=False) -> Record:
    """The record of a call that did not exit 0: wrong, unless a probe was refused."""
    code, _, stderr = result
    status = REJECTED if probe and code is not None else WRONG
    return Record(status, work, f"{what}: exit {code}: {stderr.strip()[-300:]}")


def _read_rows(path, *keys):
    """Rows of an NDJSON output, by the values of ``keys``."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return {tuple(row.get(k) for k in keys): row for row in rows}


def _close(got, want, tol) -> bool:
    return isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol


class Workload:
    """One workload over the inputs ``gen.py`` wrote for it."""

    uses_pool = False  # whether its subcommands take --jobs
    work_name = "frames_per_s"  # what work_per_s measures here: frames or audio seconds

    def __init__(self, inputs: dict, out_dir: str, jobs: int):
        self.inputs = inputs
        self.out_dir = out_dir
        self.jobs = jobs if self.uses_pool else 1

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def calls(self, index: int) -> list:
        """argv lists of the CLI calls that make op ``index``."""
        raise NotImplementedError

    def outputs(self) -> list:
        """Files the op writes; removed before each op so checks see fresh ones."""
        raise NotImplementedError

    def check(self, index: int, results: list) -> list:
        """Records of op ``index`` given its (exit code, stdout, stderr) per call."""
        raise NotImplementedError

    def probes(self) -> list:
        """Records of the untimed calls that follow each op (none by default)."""
        return []


class SpatialEval(Workload):
    uses_pool = True
    work_name = "audio_s_per_s"

    def calls(self, index):
        return [[
            "eval-spatial", "--manifest", self.inputs["manifest"], "--out", self.path("spatial.ndjson"),
            "--jobs", str(self.jobs), "--grid", self.inputs["grid"],
        ]]

    def outputs(self):
        return [self.path("spatial.ndjson")]

    def check(self, index, results):
        pairs = self.inputs["pairs"]
        if results[0][0] != 0:
            return [_failed(results[0], gen.PAIR_SECONDS, p["gen"]) for p in pairs]
        rows = _read_rows(self.path("spatial.ndjson"), "gen", "gt")
        return [
            _judge(self._problems(pair, rows.get((pair["gen"], pair["gt"]))), gen.PAIR_SECONDS, pair["gen"])
            for pair in pairs
        ]

    @staticmethod
    def _problems(pair, row):
        if row is None:
            return ["no output row"]
        problems = []
        for key in ("windows_used", "windows_skipped"):
            if row.get(key) != pair[key]:
                problems.append(f"{key} {row.get(key)} != {pair[key]}")
        for name in ("cc_all", "cc_1fps", "cc_5fps", "auc_all", "auc_1fps", "auc_5fps"):
            low = -1.0 if name.startswith("cc") else 0.0
            value = row.get(name)
            if not (isinstance(value, float) and low <= value <= 1.0):
                problems.append(f"{name} {value!r} outside [{low}, 1]")
            elif pair["self_pair"] and not _close(value, 1.0, 1e-9):
                problems.append(f"{name} {value!r} != 1 on a clip against itself")
        # AUC ranks cells, so rounding can swap two near-equal scores; CC cannot.
        if not _close(row.get("cc_all"), pair["cc_all"], 1e-9):
            problems.append(f"cc_all {row.get('cc_all')!r} != reference {pair['cc_all']!r}")
        if not _close(row.get("auc_all"), pair["auc_all"], 1e-6):
            problems.append(f"auc_all {row.get('auc_all')!r} != reference {pair['auc_all']!r}")
        return problems


class GenerateGuided(Workload):
    def calls(self, index):
        return [[
            "generate", "--table", self.inputs["table"], "--pattern", "proposed",
            "--guidance", "dual", "--omega", "2.5", "--omega2", "1.5",
            "--temperature", "1", "--top-p", "0.9", "--seed", str(index), self.path("generated.cmx"),
        ]]

    def outputs(self):
        return [self.path("generated.cmx")]

    def check(self, index, results):
        if results[0][0] != 0:
            return [_failed(results[0], gen.N_FRAMES, "generate")]
        n_steps = 2 * gen.N_FRAMES + 1
        report = json.loads(results[0][1].strip().splitlines()[-1])
        problems = []
        if report.get("n_steps") != n_steps or report.get("predictor_queries") != 4 * n_steps:
            problems.append(f"steps/queries {report.get('n_steps')}/{report.get('predictor_queries')}")
        table = oracle.read_code_matrix(self.inputs["table"])
        codes, *header = oracle.read_code_matrix(self.path("generated.cmx"))
        if header != [gen.N_CODEBOOKS, gen.N_FRAMES, gen.VOCAB, 0]:
            problems.append(f"header {header}")
        elif not np.array_equal(codes, table[0]):
            problems.append(f"{int(np.sum(codes != table[0]))} codes differ from the table")
        return [_judge(problems, gen.N_FRAMES, "generate")]


class CorpusPrep(Workload):
    uses_pool = True
    work_name = "audio_s_per_s"

    def _curate(self, manifest, out):
        return [
            "curate", "--manifest", manifest, "--out", out, "--jobs", str(self.jobs),
            "--grid", self.inputs["grid"], "--rms-threshold", str(self.inputs["rms_threshold"]),
        ]

    def calls(self, index):
        return [
            ["rotate", "--z-degrees", str(self.inputs["rotate_degrees"]), self.inputs["rotate_in"],
             self.path("rotated.wav")],
            self._curate(self.inputs["manifest"], self.path("curated.ndjson")),
        ]

    def outputs(self):
        return [self.path("rotated.wav"), self.path("curated.ndjson")]

    def check(self, index, results):
        rotate, curate = results
        clips = self.inputs["clips"]
        if rotate[0] != 0:
            records = [_failed(rotate, gen.ROTATE_SECONDS, "rotate")]
        else:
            records = [_judge(self._rotation_problems(), gen.ROTATE_SECONDS, "rotate")]
        if curate[0] != 0:
            return records + [_failed(curate, c["seconds"], c["path"]) for c in clips]
        rows = _read_rows(self.path("curated.ndjson"), "path")
        return records + [
            _judge(self._clip_problems(c, rows.get((c["path"],))), c["seconds"], c["path"]) for c in clips
        ]

    def _rotation_problems(self):
        (w, x, y, z), _ = oracle.read_wav_f32(self.inputs["rotate_in"])
        (w2, x2, y2, z2), _ = oracle.read_wav_f32(self.path("rotated.wav"))
        problems = []
        if w2.shape != w.shape or w2.tobytes() != w.tobytes():
            return ["W channel changed"]
        x, y, x2, y2 = (a.astype(np.float64) for a in (x, y, x2, y2))
        angle = math.radians(self.inputs["rotate_degrees"])
        c, s = math.cos(angle), math.sin(angle)
        if not np.allclose(x2 * x2 + y2 * y2, x * x + y * y, rtol=1e-5, atol=1e-9):
            problems.append("X^2 + Y^2 not kept")
        if not (np.allclose(x2, c * x - s * y, atol=1e-6) and np.allclose(y2, s * x + c * y, atol=1e-6)):
            problems.append(f"X, Y not turned by {self.inputs['rotate_degrees']} degrees")
        if not np.allclose(z2, z, atol=1e-7):
            problems.append("Z channel changed")
        return problems

    @staticmethod
    def _clip_problems(clip, row):
        if row is None:
            return ["no output row"]
        problems = [
            f"{key} {row.get(key)!r} != {clip[key]!r}"
            for key in ("amplitude_ok", "valid_seconds", "windows", "score_keep", "keep")
            if key in clip and clip[key] is not None and row.get(key) != clip[key]
        ]
        center, want = row.get("fov_center") or {}, clip["fov_center"]
        if not all(_close(center.get(k), want[k], 1e-12) for k in ("azimuth", "elevation")):
            problems.append(f"fov_center {center} != {want}")
        return problems

    def probes(self):
        records = []
        for probe in self.inputs["probes"]:
            out = self.path("probe.ndjson")
            if os.path.exists(out):
                os.remove(out)
            result = run_cli(self._curate(probe["manifest"], out))
            if result[0] != 0:
                records.append(_failed(result, probe["seconds"], probe["path"], probe=True))
            else:
                row = _read_rows(out, "path").get((probe["path"],))
                records.append(_judge(self._clip_problems(probe, row), probe["seconds"], probe["path"]))
        return records


class PatchEnergy(Workload):
    def calls(self, index):
        return [[
            "patch-energy", "--spatial-window", "1", "--temporal-window", "1",
            "--temperature", "0.1", "--top-p", "0.7", self.inputs["embeddings"], self.path("energy.tensor"),
        ]]

    def outputs(self):
        return [self.path("energy.tensor")]

    def check(self, index, results):
        frames = len(self.inputs["outliers"])
        if results[0][0] != 0:
            return [_failed(results[0], frames, "patch-energy")]
        energy = oracle.read_tensor_f32(self.path("energy.tensor")).astype(np.float64)
        want = tuple(gen.PATCH_SHAPE[:3])
        if energy.shape != want:
            return [_judge([f"shape {energy.shape} != {want}"], frames, "patch-energy")]
        problems = []
        for frame, (row, col) in enumerate(self.inputs["outliers"]):
            e = energy[frame]
            peak = tuple(int(i) for i in np.unravel_index(int(np.argmax(e)), e.shape))
            if np.any(e < 0) or not _close(float(e.sum()), 1.0, 1e-4) or peak != (row, col):
                problems.append(f"frame {frame}: sum {e.sum():.6f}, argmax {peak} != outlier {(row, col)}")
        return [_judge(problems, frames, "patch-energy")]


WORKLOADS = {
    "spatial_eval": SpatialEval,
    "generate_guided": GenerateGuided,
    "corpus_prep": CorpusPrep,
    "patch_energy": PatchEnergy,
}


def run_cli(argv):
    """Run ``foatools.cli.main`` in-process; returns (exit code, stdout, stderr).

    The exit code is None when main raised: a crash, with its traceback.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = foatools.cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    return code, stdout.getvalue(), stderr.getvalue()
