"""Every file format of the package, and the one read/write pair for paths.

json_text and csv_text write every JSON and CSV output, floats by repr;
they, finite_output and the binary encoders refuse a NaN or an infinity
with NumericalFailure (exit code 4). json_object parses every JSON input
(model, bundle, the latents' JSON twin, --config and manifest), so each
reads the same with or without a UTF-8 BOM. A reader given malformed input
raises InputFormatError (exit code 3) and nothing else.

* .lat: 16-byte header (magic "LATV", version u32, rows u32, dim u32, all
  little-endian), then rows*dim little-endian float64, row-major. Rows are
  a W+ stack's scales or a batch of single styles. A path named *.json
  holds the JSON twin {"rows", "dim", "values"}.
* .f64: raw little-endian float64 image, no header.
* .ppm: P6 8-bit preview, mapped affinely from the image's [min, max].

gaussian and generator build and check the model and bundle documents.
This module imports nothing of the package but errors, so any may import it.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields

import numpy as np

from .errors import InputFormatError, NumericalFailure


def read(path) -> bytes:
    """The bytes of a file; every input is read here."""
    with open(path, "rb") as fh:
        return fh.read()


def write(path, data: str | bytes) -> None:
    """Write a file's text (as UTF-8) or bytes; every output is written here."""
    with open(path, "wb") as fh:
        fh.write(data.encode() if isinstance(data, str) else data)


# --- JSON and CSV ------------------------------------------------------------


def record_fields(record, skip=()) -> dict:
    """A dataclass's fields by name, in declaration order, values as held."""
    return {f.name: getattr(record, f.name) for f in fields(record)
            if f.name not in skip}


def _plain(obj):
    """json.dumps's hook: an ndarray or a numpy scalar as .tolist() gives it,
    a dataclass as its fields; anything else raises TypeError."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return record_fields(obj)


def json_text(doc) -> str:
    """doc as JSON, indented by 2 with sorted keys and a final newline;
    dataclasses and numpy values may nest anywhere in it."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                          default=_plain) + "\n"
    except ValueError as exc:  # "Out of range float values ...: nan"
        raise NumericalFailure("non-finite number in an output: "
                               + str(exc).rpartition(" ")[2]) from None


def json_object(data: str | bytes, what: str) -> dict:
    """The JSON object data holds; bytes may open with a UTF-8 BOM.

    Anything else raises InputFormatError, its message naming ``what``.
    """
    try:
        doc = json.loads(data)
    # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an
    # integer too long to convert; deep nesting raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"{what} JSON must hold an object")
    return doc


def json_array(values, shape, name: str) -> np.ndarray:
    """A flat JSON list of numbers as a float64 array of the given shape.

    Only JSON numbers count: a bool or a string raises ValueError, where
    np.array would convert it.
    """
    if not (isinstance(values, list)
            and all(type(v) in (int, float) for v in values)):
        raise ValueError(f"{name} must be a flat list of JSON numbers")
    return np.array(values, dtype=np.float64).reshape(shape)


def finite_output(arr: np.ndarray) -> np.ndarray:
    """arr, for a binary output; a NaN or an infinity in it raises
    NumericalFailure, as json_text and csv_text do."""
    if not np.all(np.isfinite(arr)):
        raise NumericalFailure("non-finite number in an output")
    return arr


def _finite_input(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"{what} holds non-finite values")
    return arr


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.bool_, np.integer)):
        return str(int(value))  # a bool as 0/1
    number = float(value)
    if not math.isfinite(number):
        raise NumericalFailure(f"non-finite number in an output: {number}")
    return repr(number)


def csv_text(header, rows) -> str:
    """A header line and one line per row, comma-separated; strings are
    written as given."""
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


# --- latent container --------------------------------------------------------

_MAGIC = b"LATV"
_VERSION = 1


def _as_rows(latents) -> np.ndarray:
    arr = np.asarray(latents, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"latents must be (d,) or (rows, d), got {arr.shape}")
    return arr


def latents_to_bytes(latents) -> bytes:
    arr = finite_output(_as_rows(latents))
    rows, dim = arr.shape
    header = _MAGIC + struct.pack("<III", _VERSION, rows, dim)
    return header + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def latents_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 16 or data[:4] != _MAGIC:
        raise InputFormatError("not a latent container (bad magic)")
    version, rows, dim = struct.unpack("<III", data[4:16])
    if version != _VERSION:
        raise InputFormatError(f"unsupported latent container version {version}")
    expected = 16 + rows * dim * 8
    if len(data) != expected:
        raise InputFormatError(
            f"latent container size {len(data)} != expected {expected}"
        )
    flat = np.frombuffer(data, dtype="<f8", offset=16)
    return _finite_input(flat.astype(np.float64).reshape(rows, dim), "latent container")


def latents_to_json(latents) -> str:
    arr = _as_rows(latents)
    rows, dim = arr.shape
    return json_text({"rows": rows, "dim": dim, "values": arr.ravel()})


def latents_from_json(data: str | bytes) -> np.ndarray:
    doc = json_object(data, "latent")
    try:
        rows, dim = doc["rows"], doc["dim"]
        if not all(type(n) is int and n >= 0 for n in (rows, dim)):
            raise ValueError("rows and dim must be non-negative integers")
        arr = json_array(doc["values"], (rows, dim), "values")
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(f"invalid latent JSON: {exc}") from exc
    return _finite_input(arr, "latent container")


def write_latents(path, latents) -> None:
    """Write a latent container; '.json' paths get the JSON twin."""
    encode = latents_to_json if str(path).endswith(".json") else latents_to_bytes
    write(path, encode(latents))


def read_latents(path) -> np.ndarray:
    """Read a latent container, sniffing binary vs JSON. Returns (rows, d)."""
    data = read(path)
    if data[:4] == _MAGIC:
        return latents_from_bytes(data)
    return latents_from_json(data)


# --- images ------------------------------------------------------------------


def image_to_f64_bytes(image) -> bytes:
    flat = finite_output(np.asarray(image, dtype=np.float64).ravel())
    return np.ascontiguousarray(flat, dtype="<f8").tobytes()


def image_from_f64_bytes(data: bytes, pixels: int) -> np.ndarray:
    if len(data) % 8 != 0:
        raise InputFormatError("raw image length is not a multiple of 8")
    flat = np.frombuffer(data, dtype="<f8").astype(np.float64)
    if flat.size != pixels:
        raise InputFormatError(
            f"raw image has {flat.size} values, expected {pixels}"
        )
    return _finite_input(flat, "raw image")


def write_image_f64(path, image) -> None:
    write(path, image_to_f64_bytes(image))


def ppm_bytes(image, shape: tuple[int, int, int]) -> bytes:
    img = finite_output(np.asarray(image, dtype=np.float64)).reshape(shape)
    lo, hi = float(img.min()), float(img.max())
    if hi == lo:
        scaled = np.zeros_like(img)
    elif math.isfinite(hi - lo):
        scaled = (img - lo) / (hi - lo) * 255.0
    else:  # a range past the float maximum: scale by halves
        scaled = (img / 2 - lo / 2) / (hi / 2 - lo / 2) * 255.0
    data = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    header = f"P6\n{shape[1]} {shape[0]}\n255\n".encode("ascii")
    return header + data.tobytes()
