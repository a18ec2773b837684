"""Binary checkpoint format.

Layout (all integers little-endian):

    magic      7 bytes   b"2MNER1\\n"
    version    uint32    2 (1 is still read)
    records    repeated  name_len uint32 | name utf-8 | rank uint32
                         | dims uint32 x rank | payload float32 x prod(dims)
    checksum   uint64    over every record byte: BLAKE2b with an 8-byte
                         digest read as a little-endian integer (version 2),
                         or FNV-1a 64 (version 1)

The two versions differ only in the checksum; a version-1 file loads to
the same arrays. Saving always writes version 2. Reading version 1 stays
on purpose: run directories saved before the switch to BLAKE2b hold
version-1 files, and perfbench's tracing wraps `fnv1a_64` by name.

Parameters are stored at float32 precision; saving canonicalizes the live
tensors to the same precision (`canonicalize`) so that a save -> load round
trip (and any later re-save) reproduces forward outputs bit for bit. Loading
returns each record's stored float32 payload as a read-only view of the
file's bytes, which any held array keeps alive; `load_parameters` widens
each as it assigns it. The checksum is verified on load and any mismatch,
truncation, or bad header is an error, as is a record that repeats a name,
runs past the end of the file, has a shape numpy cannot hold or holds a NaN
or an infinity. The file is written through `write_atomic`, so a failed
save leaves the previous checkpoint as it was.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from mmner.autodiff import Tensor

MAGIC = b"2MNER1\n"
VERSION = 2
# numpy's limit on array dimensions; it also bounds math.prod(dims), which
# the 65,536 dims of a forged record would keep busy for seconds
MAX_RANK = 64

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class CheckpointError(ValueError):
    """Unreadable, corrupt, or mismatched checkpoint file."""


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def blake2b_64(*chunks: bytes) -> int:
    h = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest(), "little")


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Write `chunks` in order to a temp file beside `path`, then `os.replace`
    it over `path`: `path` holds its old bytes or all of the chunks, and a
    failed write removes the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def canonicalize(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Round each tensor's data to float32 precision, the values a checkpoint
    stores, and return those float32 arrays: a save -> load reproduces them."""
    stored = {name: tensor.data.astype("<f4", order="C") for name, tensor in params.items()}
    for name, tensor in params.items():
        tensor.data = stored[name].astype(np.float64)
    return stored


def save_checkpoint(params: dict[str, Tensor], path: str | Path) -> dict[str, np.ndarray]:
    """Write named parameters; see module docstring for the format.

    Side effect: `canonicalize(params)` runs first, so the live tensors hold
    exactly the values written. Returns the float32 arrays it wrote.
    """
    stored = canonicalize(params)
    records = []
    for name in sorted(stored):
        name_bytes = name.encode("utf-8")
        shape = stored[name].shape
        records += [struct.pack(f"<I{len(name_bytes)}s{1 + len(shape)}I",
                                len(name_bytes), name_bytes, len(shape), *shape), stored[name]]
    write_atomic(path, MAGIC + struct.pack("<I", VERSION), *records,
                 struct.pack("<Q", blake2b_64(*records)))
    return stored


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read and check a checkpoint; its arrays are read-only float32 views of the file."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4 + 8:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version not in (1, VERSION):
        raise CheckpointError(f"{path}: unsupported version {version}")
    checksum = fnv1a_64 if version == 1 else blake2b_64
    records = memoryview(blob)[len(MAGIC) + 4:-8]  # a view: no copy of the payload
    (stored_sum,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    if checksum(records) != stored_sum:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt checkpoint)")

    params: dict[str, np.ndarray] = {}
    pos = 0
    while pos < len(records):
        try:
            (name_len,) = struct.unpack_from("<I", records, pos)
            name = str(records[pos + 4:pos + 4 + name_len], "utf-8")
            pos += 4 + name_len
            (rank,) = struct.unpack_from("<I", records, pos)
            if rank > MAX_RANK:
                raise CheckpointError(f"{path}: record {name!r} has rank {rank} > {MAX_RANK}")
            dims = struct.unpack_from(f"<{rank}I", records, pos + 4)
            pos += 4 + 4 * rank
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: truncated record ({exc})") from None
        count = math.prod(dims)
        if 4 * count > len(records) - pos:
            raise CheckpointError(f"{path}: record {name!r} of shape {dims} overruns the file")
        if name in params:
            raise CheckpointError(f"{path}: record {name!r} appears twice")
        payload = np.frombuffer(records, dtype="<f4", count=count, offset=pos)
        pos += 4 * count
        if not np.isfinite(payload).all():
            raise CheckpointError(f"{path}: record {name!r} holds a non-finite value")
        try:
            params[name] = payload.reshape(dims)
        except ValueError as exc:  # numpy's own limits, e.g. an empty shape too big to index
            raise CheckpointError(f"{path}: record {name!r}: {exc}") from None
    return params
