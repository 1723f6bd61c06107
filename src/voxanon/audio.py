"""Waveform container and RIFF/PCM16 mono WAV I/O.

The reader is a small chunk walker rather than ``wave`` from the standard
library because parse failures must report byte offsets. Only 16-bit PCM
mono is accepted; there is no implicit resampling or channel mixdown.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

PCM16_SCALE = 32768.0
# The pipeline's one sample rate; ``features`` re-exports it.
SAMPLE_RATE = 16000


@dataclass(frozen=True, eq=False)
class Waveform:
    """Mono audio samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("waveform must be a nonempty 1-d sample array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if np.max(np.abs(samples)) > 1.0:
            raise ValueError("waveform samples must lie in [-1, 1]")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def read_wav(path, expected_rate: int | None = None) -> Waveform:
    """Read a RIFF PCM16 mono WAV file, scaling samples by 1/32768.

    ``expected_rate`` rejects files at any other sample rate; resampling is
    the caller's job. Parse errors name the offending byte offset.
    """
    path = Path(path)
    raw = path.read_bytes()
    n = len(raw)

    def fail(offset: int, message: str):
        raise DataError(f"{path}: {message} (byte offset {offset})")

    if n < 12:
        fail(n, "truncated RIFF header")
    if raw[0:4] != b"RIFF":
        fail(0, "missing RIFF tag")
    if raw[8:12] != b"WAVE":
        fail(8, "missing WAVE tag")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= n:
        chunk_id = raw[pos : pos + 4]
        size = int.from_bytes(raw[pos + 4 : pos + 8], "little")
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            fail(pos, f"chunk {chunk_id!r} declares {size} bytes but file ends early")
        if chunk_id == b"fmt ":
            if size < 16:
                fail(pos, f"fmt chunk too small ({size} bytes)")
            audio_format, channels = struct.unpack_from("<HH", body, 0)
            rate = struct.unpack_from("<I", body, 4)[0]
            bits = struct.unpack_from("<H", body, 14)[0]
            if rate == 0:
                fail(pos, "fmt chunk declares a sample rate of 0 Hz")
            fmt = (audio_format, channels, rate, bits)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word aligned
    if pos < n:
        fail(pos, f"{n - pos} dangling bytes after the last complete chunk")
    if fmt is None:
        fail(n, "no fmt chunk found")
    if payload is None:
        fail(n, "no data chunk found")

    audio_format, channels, rate, bits = fmt
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, file has {channels} channels")
    if audio_format != 1 or bits != 16:
        raise DataError(
            f"{path}: only PCM16 is supported (format code {audio_format}, {bits}-bit)"
        )
    if expected_rate is not None and rate != expected_rate:
        raise DataError(
            f"{path}: sample rate is {rate} Hz, expected {expected_rate} Hz; "
            "resample the file externally, no implicit resampling is performed"
        )
    if len(payload) % 2 != 0:
        fail(n, "data chunk length is not a whole number of 16-bit samples")
    ints = np.frombuffer(payload, dtype="<i2")
    if ints.size == 0:
        raise DataError(f"{path}: data chunk is empty")
    return Waveform(ints.astype(np.float64) / PCM16_SCALE, int(rate))


def write_wav(path, waveform: Waveform) -> None:
    """Write a waveform as RIFF PCM16 mono; round-trips within 1 LSB."""
    path = Path(path)
    quantized = np.clip(
        np.rint(waveform.samples * PCM16_SCALE), -32768, 32767
    ).astype("<i2")
    data = quantized.tobytes()
    rate = waveform.sample_rate
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(data))
    path.write_bytes(header + data)
