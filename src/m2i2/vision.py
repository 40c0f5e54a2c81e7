"""Image loading, augmentation, patch extraction, and patch masking.

Images are binary PGM (P5) / PPM (P6) with maxval 255, held in memory as
float arrays in [0,1] with shape [H, W, C]. Patches are 16x16 by default,
flattened channel-last in row-major grid order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError


@dataclass
class Image:
    pixels: np.ndarray  # [H, W, C] float64 in [0,1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass
class MaskedPatches:
    patches: np.ndarray  # [N, patch_size^2 * C]; masked rows zeroed
    grid: tuple[int, int]  # (rows, cols), N == rows * cols
    patch_size: int
    channels: int
    mask_positions: np.ndarray  # sorted patch indices, may be empty
    mask_targets: np.ndarray  # original pixel rows of masked patches

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]

    @property
    def visible_positions(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n_patches), self.mask_positions)


def _read_header(f, path) -> list[bytes]:
    fields: list[bytes] = []
    while len(fields) < 4:
        line = f.readline()
        if not line:
            raise DataError(f"truncated header in {path}")
        line = line.split(b"#", 1)[0]
        fields.extend(line.split())
    return fields[:4]


def load_image(path, channels: int | None = None) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file; pixels scaled to [0,1]. A
    header that is not one of these formats, is cut short, or whose width,
    height or maxval is not a positive integer (maxval 255), pixel data cut
    short, and a P6 file read with channels=1 raise DataError; a file that
    cannot be opened, OSError. A P5 file read with channels=3 is repeated
    into three channels."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise IOError(f"cannot read image {path}: {e}") from e
    with f:
        magic = f.readline().split(b"#", 1)[0].strip()
        if magic not in (b"P5", b"P6"):
            raise DataError(f"unsupported image format {magic!r} in {path}")
        c = 1 if magic == b"P5" else 3
        f.seek(0)
        _, *fields = _read_header(f, path)
        for name, value in zip(("width", "height", "maxval"), fields):
            if not value.isdigit() or int(value) == 0:
                raise DataError(f"{name} must be a positive integer, got {value.decode('latin-1')!r} in {path}")
        w, h, maxval = map(int, fields)
        if maxval != 255:
            raise DataError(f"maxval must be 255, got {maxval} in {path}")
        raw = f.read(w * h * c)
        if len(raw) != w * h * c:
            raise DataError(f"truncated pixel data in {path}")
    px = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, c).astype(np.float64) / 255.0
    if channels == 3 and c == 1:
        px = np.repeat(px, 3, axis=2)
    elif channels is not None and channels != c:
        raise DataError(f"{path} holds {c} channels, but {channels} are expected")
    return Image(px)


def write_image(path, img: Image) -> None:
    px = np.clip(np.round(img.pixels * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if img.channels == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
        f.write(px.tobytes())


def resize_bilinear(px: np.ndarray, h: int, w: int) -> np.ndarray:
    """Bilinear resize with align-corners sampling."""
    H, W = px.shape[:2]
    ys = np.linspace(0, H - 1, h) if h > 1 else np.array([(H - 1) / 2.0])
    xs = np.linspace(0, W - 1, w) if w > 1 else np.array([(W - 1) / 2.0])
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = px[y0][:, x0] * (1 - fx) + px[y0][:, x1] * fx
    bot = px[y1][:, x0] * (1 - fx) + px[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def augment(
    img: Image,
    target: int,
    rng: np.random.Generator | None = None,
) -> Image:
    """Random crop to target x target, flip, brightness jitter (train mode).

    Eval mode (no rng) center-crops only. Images smaller than the target are
    bilinearly resized up first.
    """
    px = img.pixels
    if px.shape[0] < target or px.shape[1] < target:
        scale = target / min(px.shape[0], px.shape[1])
        px = resize_bilinear(
            px,
            max(target, int(round(px.shape[0] * scale))),
            max(target, int(round(px.shape[1] * scale))),
        )
    if rng is not None:
        y = int(rng.integers(0, px.shape[0] - target + 1))
        x = int(rng.integers(0, px.shape[1] - target + 1))
        out = px[y : y + target, x : x + target]
        if rng.random() < 0.5:
            out = out[:, ::-1]
        out = np.clip(out * rng.uniform(0.8, 1.2), 0.0, 1.0)
    else:
        y = (px.shape[0] - target) // 2
        x = (px.shape[1] - target) // 2
        out = px[y : y + target, x : x + target]
    return Image(np.ascontiguousarray(out))


def patchify(img: Image, patch_size: int = 16) -> MaskedPatches:
    """Split into row-major patches, each flattened channel-last; no masking."""
    h, w, c = img.pixels.shape
    if h % patch_size or w % patch_size:
        raise ContractError(f"image {h}x{w} not divisible by patch size {patch_size}")
    rows, cols = h // patch_size, w // patch_size
    p = img.pixels.reshape(rows, patch_size, cols, patch_size, c)
    patches = p.transpose(0, 2, 1, 3, 4).reshape(rows * cols, patch_size * patch_size * c)
    empty = np.array([], dtype=np.int64)
    return MaskedPatches(
        np.ascontiguousarray(patches), (rows, cols), patch_size, c, empty, patches[:0].copy()
    )


def unpatchify(mp: MaskedPatches) -> Image:
    rows, cols = mp.grid
    ps, c = mp.patch_size, mp.channels
    full = mp.patches.copy()
    if mp.mask_positions.size:
        full[mp.mask_positions] = mp.mask_targets
    px = full.reshape(rows, cols, ps, ps, c).transpose(0, 2, 1, 3, 4)
    return Image(np.ascontiguousarray(px.reshape(rows * ps, cols * ps, c)))


def mask_patches(mp: MaskedPatches, rate: float, rng: np.random.Generator) -> MaskedPatches:
    """Mask k = max(1, round(rate*N)) patches uniformly without replacement.

    Masked rows are zeroed in the patch tensor; their original pixel vectors
    become the reconstruction targets. The encoder sees only visible rows
    and the decoder substitutes a learnable mask embedding at encode time.
    """
    if not 0.0 < rate < 1.0:
        raise ConfigError(f"mask rate must be in (0,1), got {rate}")
    n = mp.n_patches
    k = max(1, int(round(rate * n)))
    picked = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    patches = mp.patches.copy()
    targets = patches[picked].copy()
    patches[picked] = 0.0
    return MaskedPatches(patches, mp.grid, mp.patch_size, mp.channels, picked, targets)
