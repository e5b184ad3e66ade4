"""File formats: signal CSV, mask/model/report JSON.

Signal CSV: header `j,channel,re,im`, one row per (sample, channel),
j 1-based, channel 1-based, rows ordered channel-major within sample.
Mask JSON: array of 1-based sample indices plus the covered length.
Model JSON: freqs (K), amps (K x L), phases (K x L), is_ca.
Report JSON is strict: a non-finite float is written as null.
All writers are deterministic: fixed float repr, no timestamps.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .descent import SolverReport
from .signals import MultichannelSignal, ProblemDims, SamplingMask, SpectralModel

__all__ = [
    "write_signal_csv",
    "read_signal_csv",
    "write_mask_json",
    "read_mask_json",
    "write_model_json",
    "read_model_json",
    "write_report_json",
    "write_freqs_json",
]


def write_signal_csv(path, data: np.ndarray) -> Path:
    """Persist an (N, L) complex array; accepts a MultichannelSignal too."""
    data = np.asarray(getattr(data, "data", data), dtype=complex)
    if data.ndim != 2:
        raise ValueError(f"expected an (N, L) array, got shape {data.shape}")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "channel", "re", "im"])
        for j in range(data.shape[0]):
            for l in range(data.shape[1]):
                z = data[j, l]
                writer.writerow([j + 1, l + 1, repr(float(z.real)), repr(float(z.imag))])
    return path


def read_signal_csv(path) -> np.ndarray:
    """Read back an (N, L) complex array written by ``write_signal_csv``.

    A malformed, out-of-range or repeated (sample, channel) row raises
    ``ValueError`` naming ``path`` and the row's line.
    """
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["j", "channel", "re", "im"]:
            raise ValueError(f"{path}: expected header j,channel,re,im, got {header}")
        for line in reader:
            if not line:
                continue
            try:
                j, l, re, im = line
                rows.append((reader.line_num, int(j), int(l), float(re), float(im)))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    N = max(r[1] for r in rows)
    L = max(r[2] for r in rows)
    data = np.zeros((N, L), dtype=complex)
    present = np.zeros((N, L), dtype=bool)  # NaN is a value here, not a hole
    for num, j, l, re, im in rows:
        if not (1 <= j <= N and 1 <= l <= L):
            raise ValueError(f"{path}:{num}: index ({j}, {l}) out of range")
        if present[j - 1, l - 1]:
            raise ValueError(f"{path}:{num}: repeated (sample, channel) row ({j}, {l})")
        data[j - 1, l - 1] = complex(re, im)
        present[j - 1, l - 1] = True
    if not present.all():
        raise ValueError(f"{path}: missing (sample, channel) rows")
    return data


def write_mask_json(path, mask: SamplingMask) -> Path:
    path = Path(path)
    payload = {"N": int(mask.N), "indices": [int(i) for i in mask.indices]}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def read_mask_json(path) -> SamplingMask:
    """Read a mask written by ``write_mask_json``, or a bare array of indices;
    a file that holds no valid mask raises ``ValueError`` naming ``path``.

    The indices and N must be JSON integers: 1.7 or true is an error, never
    truncated to an index.
    """
    try:
        payload = json.loads(Path(path).read_text())
        if isinstance(payload, list):  # bare array form
            payload = {"indices": payload}
        indices = payload["indices"]
        if not (isinstance(indices, list) and all(type(i) is int for i in indices)):
            raise ValueError("indices must be an array of integers")
        N = payload.get("N", max(indices, default=0))
        if type(N) is not int:
            raise ValueError("N must be an integer")
        return SamplingMask(indices=np.asarray(indices, dtype=int), N=N)
    except KeyError as exc:
        raise ValueError(f"{path}: missing mask field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed mask: {exc}") from exc


def write_model_json(path, model: SpectralModel, meta: dict | None = None) -> Path:
    path = Path(path)
    payload = {
        "freqs": [float(f) for f in model.freqs],
        "amps": np.asarray(model.amps, dtype=float).tolist(),
        "phases": np.asarray(model.phases, dtype=float).tolist(),
        "is_ca": bool(model.is_ca),
    }
    if meta:
        payload["meta"] = meta
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def read_model_json(path) -> SpectralModel:
    """Read a model written by ``write_model_json``; a file that holds no valid
    model raises ``ValueError`` naming ``path``."""
    try:
        payload = json.loads(Path(path).read_text())
        return SpectralModel(
            freqs=np.asarray(payload["freqs"], dtype=float),
            amps=np.asarray(payload["amps"], dtype=float),
            phases=np.asarray(payload["phases"], dtype=float),
            is_ca=bool(payload.get("is_ca", False)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing model field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model: {exc}") from exc


def _json_float(v):
    """``v`` as a float, or None (JSON null) when it is not finite."""
    v = float(v)
    return v if np.isfinite(v) else None


def write_report_json(path, report: SolverReport, method: str | None = None) -> Path:
    """Strict JSON: a non-finite value (an objective past the float range) is null."""
    path = Path(path)
    payload = {
        "iterations": int(report.iterations),
        "stop_reason": report.stop_reason,
        "converged": bool(report.converged),
        "objective_trace": [_json_float(v) for v in report.objective_trace],
        "total_seconds": _json_float(report.total_seconds),
        "iter_seconds": [_json_float(v) for v in report.iter_seconds],
    }
    if method is not None:
        payload["method"] = method
    if report.nmse is not None:
        payload["nmse"] = _json_float(report.nmse)
    path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    return path


def write_freqs_json(path, freqs) -> Path:
    """Bare JSON array of frequencies in [0, 1)."""
    path = Path(path)
    payload = [float(f) for f in np.asarray(freqs, dtype=float)]
    path.write_text(json.dumps(payload) + "\n")
    return path
