"""Self-contained model bundles.

A bundle is a directory (or zip archive) holding the COLLADA model, the
segmentation, the EMA layout sidecar, optional audio copied verbatim, and
a manifest listing format metadata plus the SHA-256 of every file, so any
corruption is detectable.
"""

from __future__ import annotations

import hashlib
import math
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Sequence

from .anim_db import AnimationClip, SegmentTier, parse_segmentation
from .collada_io import read_collada
from .ema_io import PosLayout, format_rate, parse_layout
from .errors import BundleError
from .rig import Armature, SkinnedMesh

FORMAT_VERSION = 1

MODEL_NAME = "model.dae"
SEGMENTATION_NAME = "segmentation.txt"
LAYOUT_NAME = "layout.cfg"
MANIFEST_NAME = "manifest.txt"
AUDIO_DIR = "audio"

# Fixed zip timestamp so archived bundles are byte-reproducible.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


@dataclass(frozen=True)
class Bundle:
    path: Path
    format_version: int
    channels: tuple[str, ...]
    rate_hz: float
    entries: dict[str, str]  # relative path -> sha256 hex


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Characters of a text encoded and written at a time.
SLICE_CHARS = 1 << 20


def _new_file(path: Path):
    """`path` opened for writing as a newly created file.

    An existing file is unlinked first, not truncated and rewritten: a
    reader that has the old file open keeps reading its complete old
    bytes, and the write does not wait for the old file's writeback
    (ext4's replace-on-truncate heuristic, ``auto_da_alloc``, makes each
    truncation of a rewritten file wait for it). The one behaviour change
    from an in-place write: a symlink at `path` is replaced by a regular
    file, not written through.
    """
    path.unlink(missing_ok=True)
    return open(path, "xb")


def _write_slices(f, data: bytes | str, digest=None) -> None:
    """Write `data` to the binary file `f`; a str as UTF-8, SLICE_CHARS
    characters at a time, so no bytes copy of the whole text is built.
    `digest`, a hashlib object, is updated with every byte written."""
    if isinstance(data, str):
        chunks = (
            data[lo : lo + SLICE_CHARS].encode("utf-8")
            for lo in range(0, len(data), SLICE_CHARS)
        )
    else:
        chunks = (data,)
    for chunk in chunks:
        if digest is not None:
            digest.update(chunk)
        f.write(chunk)


def write_new_file(path: str | Path, data: bytes | str) -> None:
    """Write `data` to `path` as a new file in slices, see _new_file and _write_slices."""
    with _new_file(Path(path)) as f:
        _write_slices(f, data)


def _format_manifest(
    channels: Sequence[str], rate_hz: float, entries: dict[str, str]
) -> str:
    lines = [
        f"format_version = {FORMAT_VERSION}",
        f"channels = {','.join(channels)}",
        f"rate_hz = {format_rate(rate_hz)}",
    ]
    lines += [f"{name}\t{digest}" for name, digest in sorted(entries.items())]
    return "\n".join(lines) + "\n"


def _parse_manifest(text: str) -> tuple[int, tuple[str, ...], float, dict[str, str]]:
    version = None
    channels: tuple[str, ...] = ()
    rate_hz = None
    entries: dict[str, str] = {}
    keys: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" in line:
            name, digest = line.split("\t", 1)
            entry = PurePosixPath(name)
            if entry.is_absolute() or ".." in entry.parts:
                raise BundleError(
                    f"manifest line {lineno}: entry {name!r} points outside the bundle"
                )
            if name in entries:
                raise BundleError(f"manifest line {lineno}: entry {name!r} is listed twice")
            entries[name] = digest.strip()
        elif "=" in line:
            key, value = (p.strip() for p in line.split("=", 1))
            if key in keys:
                raise BundleError(f"manifest line {lineno}: key {key!r} is set twice")
            keys.add(key)
            try:
                if key == "format_version":
                    version = int(value)
                elif key == "channels":
                    channels = tuple(c.strip() for c in value.split(",") if c.strip())
                elif key == "rate_hz":
                    rate_hz = float(value)
            except ValueError:
                raise BundleError(f"manifest line {lineno}: bad number in {raw!r}") from None
        else:
            raise BundleError(f"manifest line {lineno}: unparsable entry {raw!r}")
    if version is None:
        raise BundleError("manifest is missing format_version")
    if rate_hz is None:
        raise BundleError("manifest is missing rate_hz")
    if not (math.isfinite(rate_hz) and rate_hz > 0):
        raise BundleError(f"manifest rate_hz {rate_hz!r} is not a positive finite rate")
    return version, channels, rate_hz, entries


def write_bundle(
    path: str | Path,
    model_text: str,
    *,
    channels: Sequence[str],
    rate_hz: float,
    segmentation_text: str | None = None,
    layout_text: str | None = None,
    audio: dict[str, bytes] | None = None,
) -> Bundle:
    """Write a bundle directory (or ``.zip`` when the path ends in .zip).

    Layout is fixed: model.dae, optional segmentation.txt / layout.cfg,
    audio copied byte-for-byte under audio/, and manifest.txt with content
    hashes. Writing is deterministic for identical inputs. Each file (or
    the archive, whose entries are stored uncompressed) is written as a new
    file in slices, see _new_file and _write_slices.
    """
    path = Path(path)
    files: dict[str, bytes | str] = {MODEL_NAME: model_text}
    if segmentation_text is not None:
        files[SEGMENTATION_NAME] = segmentation_text
    if layout_text is not None:
        files[LAYOUT_NAME] = layout_text
    for name, data in (audio or {}).items():
        files[f"{AUDIO_DIR}/{Path(name).name}"] = data

    entries: dict[str, str] = {}

    def write_files(new_entry) -> None:
        """Each file, then the manifest, through `new_entry(name)`."""
        for name in sorted(files):
            digest = hashlib.sha256()
            with new_entry(name) as out:
                _write_slices(out, files[name], digest)
            entries[name] = digest.hexdigest()
        with new_entry(MANIFEST_NAME) as out:
            _write_slices(out, _format_manifest(channels, rate_hz, entries))

    if path.suffix == ".zip":
        path.parent.mkdir(parents=True, exist_ok=True)
        with _new_file(path) as f, zipfile.ZipFile(f, "w") as zf:
            write_files(lambda name: zf.open(zipfile.ZipInfo(name, date_time=_ZIP_EPOCH), "w"))
    else:
        for name in files:
            (path / name).parent.mkdir(parents=True, exist_ok=True)
        write_files(lambda name: _new_file(path / name))

    return Bundle(
        path=path,
        format_version=FORMAT_VERSION,
        channels=tuple(channels),
        rate_hz=rate_hz,
        entries=entries,
    )


def _read_file(path: Path, name: str) -> bytes:
    if path.suffix == ".zip":
        with zipfile.ZipFile(path) as zf:
            try:
                return zf.read(name)
            except KeyError:
                raise BundleError(f"bundle is missing {name!r}") from None
    target = path / name
    if not target.exists():
        raise BundleError(f"bundle is missing {name!r}")
    return target.read_bytes()


def _decode(data: bytes, name: str) -> str:
    """The bundle file `name`'s bytes decoded as UTF-8; other bytes are a BundleError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BundleError(f"{name} is not UTF-8 text: {exc}") from None


def _read_text(path: Path, name: str) -> str:
    return _decode(_read_file(path, name), name)


def open_bundle(path: str | Path) -> Bundle:
    path = Path(path)
    if not path.exists():
        raise BundleError(f"no bundle at {path}")
    version, channels, rate_hz, entries = _parse_manifest(
        _read_text(path, MANIFEST_NAME)
    )
    if version > FORMAT_VERSION:
        raise BundleError(f"bundle format {version} is newer than supported")
    if version < 1:
        raise BundleError(f"bundle format {version} is not a format version")
    return Bundle(
        path=path,
        format_version=version,
        channels=channels,
        rate_hz=rate_hz,
        entries=entries,
    )


def verify_bundle(path: str | Path, hashed: dict[str, str] | None = None) -> list[str]:
    """Re-hash every manifest entry; returns the mismatched paths (none = OK).
    `hashed` holds the SHA-256 hex digests of entries already read, which
    are not read again."""
    bundle = open_bundle(path)
    hashed = hashed or {}
    bad = []
    for name, digest in bundle.entries.items():
        actual = hashed.get(name)
        if actual is None:
            try:
                actual = _sha256(_read_file(bundle.path, name))
            except BundleError:
                actual = "<missing>"
        if actual != digest:
            bad.append(name)
    return bad


def _check_verified(bad: list[str]) -> None:
    if bad:
        raise BundleError(f"bundle fails verification: {', '.join(bad)}")


@dataclass(frozen=True)
class LoadedBundle:
    bundle: Bundle
    mesh: SkinnedMesh
    armature: Armature
    clip: AnimationClip
    tier: SegmentTier | None
    layout: PosLayout | None


def read_bundle(path: str | Path) -> LoadedBundle:
    """Open, verify and parse a bundle's model and companions.

    The model is read once: a second thread hashes its bytes (hashlib
    releases the interpreter lock on large buffers) while this one decodes
    and parses them. The bundle is verified before any parse error is
    raised, so a tampered model fails as tampered even when it is also
    malformed."""
    bundle = open_bundle(path)
    try:
        data = _read_file(bundle.path, MODEL_NAME)
    except BundleError:
        _check_verified(verify_bundle(path))  # a missing model.dae that is listed fails it
        raise
    hashed: dict[str, str] = {}

    def hash_model(data: bytes) -> None:
        hashed[MODEL_NAME] = _sha256(data)

    hasher = threading.Thread(target=hash_model, args=(data,), name="emarig-hash")
    hasher.start()
    try:
        text = _decode(data, MODEL_NAME)
        del data  # the hasher holds the bytes until it is done with them
        mesh, armature, clip = read_collada(text)
    except Exception:  # raised only once the bundle has verified
        hasher.join()
        _check_verified(verify_bundle(path, hashed))
        raise
    hasher.join()
    _check_verified(verify_bundle(path, hashed))
    tier = None
    if SEGMENTATION_NAME in bundle.entries:
        tier = parse_segmentation(_read_text(bundle.path, SEGMENTATION_NAME))
    layout = None
    if LAYOUT_NAME in bundle.entries:
        layout = parse_layout(_read_text(bundle.path, LAYOUT_NAME))
        if (bundle.channels, bundle.rate_hz) != (layout.channels, layout.rate_hz):
            raise BundleError(
                f"manifest channels {','.join(bundle.channels)} at {bundle.rate_hz!r} Hz "
                f"differ from {LAYOUT_NAME}'s {','.join(layout.channels)} at {layout.rate_hz!r} Hz"
            )
    return LoadedBundle(
        bundle=bundle, mesh=mesh, armature=armature, clip=clip, tier=tier, layout=layout
    )

