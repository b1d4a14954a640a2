"""Scene file I/O: PLY read/write, JSON scene manifests, label arrays.

Supported PLY vertex layout: x, y, z as float32 (required), red/green/blue
as uint8 (optional), label as int32 (optional; missing labels load as -1
with a MissingLabelWarning). ASCII and binary little-endian formats.
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


_XYZ_TYPES = {"float", "float32"}
_COLOR_TYPES = {"uchar", "uint8"}
_LABEL_TYPES = {"int", "int32"}


def save_scene(scene: PointCloudScene, path: str | Path, *, binary: bool = True) -> None:
    """Write a scene as PLY; positions stored as float32, labels as int32."""
    path = Path(path)
    has_color = scene.colors is not None
    fmt = "binary_little_endian" if binary else "ascii"
    header = ["ply", f"format {fmt} 1.0", f"element vertex {scene.point_count}"]
    header += ["property float x", "property float y", "property float z"]
    if has_color:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += ["property int label", "end_header"]

    pos = scene.positions.astype("<f4")
    lab = scene.labels.astype("<i4")
    rgb = None
    if has_color:
        rgb = np.clip(np.rint(scene.colors * 255.0), 0, 255).astype(np.uint8)

    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
            if has_color:
                fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
            fields += [("label", "<i4")]
            rec = np.empty(scene.point_count, dtype=np.dtype(fields))
            rec["x"], rec["y"], rec["z"] = pos[:, 0], pos[:, 1], pos[:, 2]
            if has_color:
                rec["red"], rec["green"], rec["blue"] = rgb[:, 0], rgb[:, 1], rgb[:, 2]
            rec["label"] = lab
            f.write(rec.tobytes())
        else:
            for i in range(scene.point_count):
                parts = [repr(float(pos[i, 0])), repr(float(pos[i, 1])),
                         repr(float(pos[i, 2]))]
                if has_color:
                    parts += [str(int(v)) for v in rgb[i]]
                parts.append(str(int(lab[i])))
                f.write((" ".join(parts) + "\n").encode("ascii"))


def load_scene(path: str | Path) -> PointCloudScene:
    """Read a PLY scene.

    Raises FormatError on malformed headers, unknown properties, or truncated
    payloads, naming the line number or byte offset. A missing 'label'
    property yields all-(-1) labels and a MissingLabelWarning.
    """
    path = Path(path)
    with open(path, "rb") as f:
        data = f.read()

    header_lines, body_offset = _split_header(data)
    fmt, count, props = _parse_header(header_lines)

    names = [name for name, _ in props]
    for req in ("x", "y", "z"):
        if req not in names:
            raise FormatError(f"{path}: missing required vertex property '{req}'")
    has_color = "red" in names
    has_label = "label" in names

    if fmt == "ascii":
        rows = _read_ascii(data[body_offset:], count, len(props), path)
        cols = {name: rows[:, i] for i, (name, _) in enumerate(props)}
        positions = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
        positions = positions.astype(np.float32).astype(np.float64)
        colors = None
        if has_color:
            colors = np.stack([cols["red"], cols["green"], cols["blue"]], axis=1) / 255.0
        labels = cols["label"].astype(np.int64) if has_label else None
    else:
        fields = []
        for name, typ in props:
            if typ in _XYZ_TYPES:
                np_t = "<f4"
            elif typ in _COLOR_TYPES:
                np_t = "u1"
            else:
                np_t = "<i4"
            fields.append((name, np_t))
        dtype = np.dtype(fields)
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
        if has_color:
            colors = np.stack([rec["red"], rec["green"], rec["blue"]], axis=1) / 255.0
        labels = rec["label"].astype(np.int64) if has_label else None

    if labels is None:
        warnings.warn(
            f"{path}: no 'label' property; labels default to -1", MissingLabelWarning
        )
        labels = np.full(count, -1, dtype=np.int64)

    return PointCloudScene(
        positions=positions, labels=labels, colors=colors, source_path=str(path)
    )


def _split_header(data: bytes) -> tuple[list[str], int]:
    end = data.find(b"end_header\n")
    if end < 0:
        raise FormatError("missing 'end_header' line")
    body_offset = end + len(b"end_header\n")
    try:
        text = data[:body_offset].decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"non-ASCII header at byte offset {e.start}") from e
    return text.splitlines(), body_offset


def _parse_header(lines: list[str]) -> tuple[str, int, list[tuple[str, str]]]:
    if not lines or lines[0].strip() != "ply":
        raise FormatError("line 1: expected 'ply' magic")
    fmt = None
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if len(tokens) != 3 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise FormatError(f"line {lineno}: unsupported format '{line.strip()}'")
            fmt = tokens[1]
        elif tokens[0] == "element":
            if tokens[1] != "vertex":
                raise FormatError(f"line {lineno}: unsupported element '{tokens[1]}'")
            try:
                count = int(tokens[2])
            except (IndexError, ValueError):
                raise FormatError(f"line {lineno}: bad vertex count") from None
            in_vertex = True
        elif tokens[0] == "property":
            if not in_vertex:
                raise FormatError(f"line {lineno}: property outside vertex element")
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: malformed property '{line.strip()}'")
            typ, name = tokens[1], tokens[2]
            if name in ("x", "y", "z"):
                if typ not in _XYZ_TYPES:
                    raise FormatError(f"line {lineno}: '{name}' must be float32, got {typ}")
            elif name in ("red", "green", "blue"):
                if typ not in _COLOR_TYPES:
                    raise FormatError(f"line {lineno}: '{name}' must be uchar, got {typ}")
            elif name == "label":
                if typ not in _LABEL_TYPES:
                    raise FormatError(f"line {lineno}: 'label' must be int32, got {typ}")
            else:
                raise FormatError(f"line {lineno}: unknown property '{name}'")
            props.append((name, typ))
        elif tokens[0] == "end_header":
            break
        else:
            raise FormatError(f"line {lineno}: unexpected keyword '{tokens[0]}'")
    if fmt is None:
        raise FormatError("header missing 'format' line")
    if count is None:
        raise FormatError("header missing 'element vertex' line")
    return fmt, count, props


def _read_ascii(body: bytes, count: int, n_props: int, path: Path) -> np.ndarray:
    lines = body.decode("ascii").splitlines()
    rows = [ln for ln in lines if ln.strip()]
    if len(rows) < count:
        raise FormatError(
            f"{path}: truncated payload: header declares {count} vertices, "
            f"found {len(rows)} data lines"
        )
    out = np.empty((count, n_props), dtype=np.float64)
    for i in range(count):
        parts = rows[i].split()
        if len(parts) != n_props:
            raise FormatError(
                f"{path}: vertex line {i + 1} has {len(parts)} values, expected {n_props}"
            )
        out[i] = [float(p) for p in parts]
    return out


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
