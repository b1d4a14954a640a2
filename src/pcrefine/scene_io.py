"""Scene file I/O: PLY read/write, JSON scene manifests, label arrays.

Supported PLY vertex layout: x, y, z as float32 (required), red/green/blue
as uint8 (optional, all three or none), label as int32 (optional; missing
labels load as -1 with a MissingLabelWarning). Reads ASCII and binary
little-endian PLY into one vertex record; writes binary little-endian.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
from .scene import ClassSchema, PointCloudScene


class MissingLabelWarning(UserWarning):
    """Raised as a warning when a PLY file carries no 'label' property."""


# Vertex property name -> (the PLY type names it may be declared as, the
# little-endian numpy type it is stored as).
_PROPERTIES = {
    **dict.fromkeys(("x", "y", "z"), ({"float", "float32"}, "<f4")),
    **dict.fromkeys(("red", "green", "blue"), ({"uchar", "uint8"}, "u1")),
    "label": ({"int", "int32"}, "<i4"),
}


def save_scene(scene: PointCloudScene, path: str | Path) -> None:
    """Write a scene as binary little-endian PLY; positions stored as float32,
    labels as int32."""
    path = Path(path)
    has_color = scene.colors is not None
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {scene.point_count}"]
    header += ["property float x", "property float y", "property float z"]
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if has_color:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    header += ["property int label", "end_header"]
    fields += [("label", "<i4")]

    rec = np.empty(scene.point_count, dtype=np.dtype(fields))
    pos = scene.positions.astype("<f4")
    rec["x"], rec["y"], rec["z"] = pos[:, 0], pos[:, 1], pos[:, 2]
    if has_color:
        rgb = np.clip(np.rint(scene.colors * 255.0), 0, 255).astype(np.uint8)
        rec["red"], rec["green"], rec["blue"] = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    rec["label"] = scene.labels.astype("<i4")

    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(rec.tobytes())


def load_scene(path: str | Path) -> PointCloudScene:
    """Read a PLY scene.

    Every malformed header or body is a FormatError naming the file, and
    the line number or byte offset. A missing 'label' property yields
    all-(-1) labels and a MissingLabelWarning.
    """
    path = Path(path)
    with open(path, "rb") as f:
        data = f.read()

    fmt, count, dtype, body_offset = _parse_header(path, data)
    if fmt == "ascii":
        rec = _read_ascii(path, data[body_offset:], count, dtype)
    else:
        need = count * dtype.itemsize
        avail = len(data) - body_offset
        if avail < need:
            raise FormatError(
                f"{path}: truncated payload at byte offset {body_offset + avail}: "
                f"need {need} bytes for {count} vertices, have {avail}"
            )
        rec = np.frombuffer(data, dtype=dtype, count=count, offset=body_offset)

    positions = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
    colors = None
    if "red" in dtype.names:
        colors = np.stack([rec["red"], rec["green"], rec["blue"]], axis=1) / 255.0
    # Cast in one pass over the packed record; the scene checks the int64 copy.
    labels = rec["label"].astype(np.int64) if "label" in dtype.names else None
    if labels is None:
        warnings.warn(
            f"{path}: no 'label' property; labels default to -1", MissingLabelWarning
        )
        labels = np.full(count, -1, dtype=np.int64)

    return PointCloudScene(
        positions=positions, labels=labels, colors=colors, source_path=str(path)
    )


def _parse_header(path: Path, data: bytes) -> tuple[str, int, np.dtype, int]:
    """The format, vertex count, record dtype (the declared properties in file
    order, typed by _PROPERTIES) and body offset of a PLY file."""
    end = data.find(b"end_header\n")
    if end < 0:
        raise FormatError(f"{path}: missing 'end_header' line")
    body_offset = end + len(b"end_header\n")
    # A non-ASCII byte decodes to U+FFFD, which matches no keyword, name or type.
    lines = data[:body_offset].decode("ascii", "replace").splitlines()
    if lines[0].strip() != "ply":
        raise FormatError(f"{path}: line 1: expected 'ply' magic")
    fmt = None
    count = None
    fields: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}: line {lineno}"
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) != 3 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise FormatError(f"{where}: unsupported format '{line.strip()}'")
            fmt = tokens[1]
        elif tokens[0] == "element":
            # An ASCII string of digits: a vertex count of 0 or more.
            if len(tokens) != 3 or tokens[1] != "vertex" or not tokens[2].isdigit():
                raise FormatError(f"{where}: expected 'element vertex <count>': '{line.strip()}'")
            count = int(tokens[2])
        elif tokens[0] == "property":
            if count is None:
                raise FormatError(f"{where}: property outside vertex element")
            if len(tokens) != 3:
                raise FormatError(f"{where}: malformed property '{line.strip()}'")
            typ, name = tokens[1], tokens[2]
            if name not in _PROPERTIES:
                raise FormatError(f"{where}: unknown property '{name}'")
            if name in fields:
                raise FormatError(f"{where}: property '{name}' declared twice")
            ply_types, np_type = _PROPERTIES[name]
            if typ not in ply_types:
                raise FormatError(f"{where}: '{name}' must be {np.dtype(np_type).name}, got {typ}")
            fields[name] = np_type
        elif tokens[0] == "end_header":
            break
        else:
            raise FormatError(f"{where}: unexpected keyword '{tokens[0]}'")
    if fmt is None:
        raise FormatError(f"{path}: header missing 'format' line")
    if count is None:
        raise FormatError(f"{path}: header missing 'element vertex' line")
    for group, required in ((("x", "y", "z"), True), (("red", "green", "blue"), False)):
        missing = [name for name in group if name not in fields]
        if missing and (required or len(missing) < len(group)):
            raise FormatError(f"{path}: missing vertex property '{missing[0]}' ({'/'.join(group)})")
    return fmt, count, np.dtype(list(fields.items())), body_offset


def _read_ascii(path: Path, body: bytes, count: int, dtype: np.dtype) -> np.ndarray:
    """The first count non-blank lines of an ASCII body as a record of dtype.
    A value that is not a number, or that an integer column's type cannot
    hold exactly (a fraction, NaN, a colour of 300), is a FormatError."""
    # A non-ASCII byte decodes to U+FFFD, which no number parses.
    rows = [ln.split() for ln in body.decode("ascii", "replace").splitlines() if ln.strip()]
    if len(rows) < count:
        raise FormatError(
            f"{path}: truncated payload: header declares {count} vertices, "
            f"found {len(rows)} data lines"
        )
    n_props = len(dtype.names)
    values = np.empty((count, n_props), dtype=np.float64)
    for i, parts in enumerate(rows[:count]):
        if len(parts) != n_props:
            raise FormatError(
                f"{path}: vertex line {i + 1} has {len(parts)} values, expected {n_props}"
            )
        try:
            values[i] = [float(p) for p in parts]
        except ValueError as e:
            raise FormatError(f"{path}: vertex line {i + 1}: {e}") from None
    rec = np.empty(count, dtype=dtype)
    for j, name in enumerate(dtype.names):
        # NaN, infinities and out-of-range values cast to garbage in an
        # integer column, so the column must round-trip exactly.
        with np.errstate(invalid="ignore", over="ignore"):
            rec[name] = values[:, j]
        if dtype[name].kind in "iu" and not (rec[name] == values[:, j]).all():
            i = int(np.argmax(rec[name] != values[:, j]))
            raise FormatError(f"{path}: vertex line {i + 1}: '{name}' value "
                              f"{values[i, j].item()!r} does not fit {dtype[name].name}")
    return rec


def save_labels(labels: np.ndarray, path: str | Path) -> None:
    np.save(path, np.asarray(labels, dtype=np.int64))


def load_labels(path: str | Path) -> np.ndarray:
    """A 1-D integer label array as int64; any other array is a FormatError."""
    labels = load_npy(path)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise FormatError(
            f"{path}: expected a 1-D integer label array, got {labels.ndim}-D {labels.dtype}"
        )
    return labels.astype(np.int64, copy=False)


def load_mask(path: str | Path) -> np.ndarray:
    """A 1-D support mask as bool, stored as bools or as integers that are all
    0 or 1; any other array is a FormatError."""
    mask = load_npy(path)
    binary = mask.dtype == bool or (mask.dtype.kind in "iu" and np.isin(mask, (0, 1)).all())
    if mask.ndim != 1 or not binary:
        raise FormatError(f"{path}: expected a 1-D mask of bools or 0/1 integers, "
                          f"got {mask.ndim}-D {mask.dtype}")
    return mask.astype(bool, copy=False)


def load_npy(path: str | Path) -> np.ndarray:
    """The array in an .npy file; a file numpy cannot parse is a FormatError."""
    try:
        return np.load(path)
    except (ValueError, EOFError) as exc:
        raise FormatError(f"{path}: malformed .npy file: {exc}") from exc


ROLES = ("train", "test", "support")


@dataclass
class SceneEntry:
    scene_id: str
    path: str
    role: str  # one of ROLES
    embedding: str | None = None
    raw_predictions: str | None = None
    base_labels: str | None = None

    def to_dict(self) -> dict:
        d = {"id": self.scene_id, "path": self.path, "role": self.role}
        if self.embedding:
            d["embedding"] = self.embedding
        if self.raw_predictions:
            d["raw_predictions"] = self.raw_predictions
        if self.base_labels:
            d["base_labels"] = self.base_labels
        return d


@dataclass
class Manifest:
    schema: ClassSchema
    scenes: list[SceneEntry] = field(default_factory=list)
    support: str | None = None
    root: Path = Path(".")

    def entries(self, role: str) -> list[SceneEntry]:
        return [e for e in self.scenes if e.role == role]

    def resolve(self, rel: str) -> Path:
        return self.root / rel


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    doc = {
        "version": 1,
        "schema": manifest.schema.to_dict(),
        "scenes": [e.to_dict() for e in manifest.scenes],
    }
    if manifest.support:
        doc["support"] = manifest.support
    Path(path).write_text(json.dumps(doc, indent=2))


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON at line {e.lineno}") from e
    try:
        if doc.get("version") != 1:
            raise FormatError(f"{path}: unsupported manifest version {doc.get('version')}")
        schema = ClassSchema.from_dict(doc["schema"])
        scenes = []
        for e in doc.get("scenes", []):
            scenes.append(SceneEntry(
                scene_id=e["id"],
                path=_path_field(path, e, "path", required=True),
                role=_role_field(path, e),
                embedding=_path_field(path, e, "embedding"),
                raw_predictions=_path_field(path, e, "raw_predictions"),
                base_labels=_path_field(path, e, "base_labels"),
            ))
        support = _path_field(path, doc, "support")
    except (KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed manifest: {type(exc).__name__}: {exc}") from exc
    return Manifest(schema=schema, scenes=scenes, support=support, root=path.parent)


def _role_field(manifest: Path, entry: dict) -> str:
    role = entry.get("role")
    if role not in ROLES:
        raise FormatError(
            f"{manifest}: scene {entry['id']!r}: manifest field 'role' must be "
            f"one of {', '.join(ROLES)}, got {role!r}"
        )
    return role


def _path_field(manifest: Path, obj: dict, name: str, required: bool = False) -> str | None:
    """A relative-path field of a manifest object: a string, or absent/null
    unless required."""
    value = obj[name] if required else obj.get(name)
    if not (isinstance(value, str) or (value is None and not required)):
        raise FormatError(
            f"{manifest}: manifest field '{name}' must be a string path, "
            f"got {type(value).__name__}"
        )
    return value
