"""Tiny PGM (P5/P2) reader/writer for the filter demo."""

from __future__ import annotations

import numpy as np


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit PGM into floats in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(blob):
        if blob[i:i + 1] == b"#":
            while i < len(blob) and blob[i] != 0x0A:
                i += 1
        elif blob[i:i + 1].isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace():
                j += 1
            tokens.append(blob[i:j])
            i = j
    if len(tokens) < 4 or tokens[0] not in (b"P5", b"P2"):
        raise ValueError(f"{path}: not an 8-bit PGM")
    header = {}
    for name, token in zip(("width", "height", "maxval"), tokens[1:]):
        try:
            header[name] = int(token)
        except ValueError:
            raise ValueError(f"{path}: {name} must be an integer, "
                             f"got {token.decode('latin-1')!r}") from None
    width, height, maxval = header.values()
    if width < 1 or height < 1:
        raise ValueError(f"{path}: width and height must be >= 1, "
                         f"got {width}x{height}")
    if maxval < 1:
        raise ValueError(f"{path}: maxval must be >= 1, got {maxval}")
    if maxval > 255:
        raise ValueError(f"{path}: only 8-bit PGM supported")
    count = width * height
    if tokens[0] == b"P5":
        data = np.frombuffer(blob[i + 1:i + 1 + count], dtype=np.uint8)
    else:
        fields = blob[i:].split()[:count]
        try:
            data = np.array([int(f) for f in fields], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path}: P2 samples must be integers") from None
        except OverflowError:
            raise ValueError(f"{path}: P2 sample outside 0..{maxval}") from None
    if data.size < count:
        raise ValueError(f"{path}: {data.size} samples for a {width}x{height} "
                         f"image of {count}")
    if not 0 <= data.min() <= data.max() <= maxval:
        bad = data[(data < 0) | (data > maxval)][0]
        raise ValueError(f"{path}: sample {bad} outside 0..{maxval}")
    return data.reshape(height, width).astype(np.float64) / maxval


def write_pgm(path, image):
    """Write floats (clipped to [0, 1]) as binary 8-bit PGM."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    if img.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    data = np.round(img * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())
