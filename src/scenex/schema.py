"""The one reader and field checker of scenex input documents: the run
config, the roster, the map and the synthetic-scene parameters.

A mapping is checked against a table of field name -> annotation. An
annotation is a key of `RULES`, optionally as `list[...]` or with ` | None`.
"""
from __future__ import annotations

import sys

import yaml

# libyaml's loader where PyYAML was built with it: it parses a map ~7x faster
# than the pure-Python `yaml.SafeLoader` and builds the same documents
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or float that is finite as a float (nan fails every comparison)."""
    return ((_is_int(value) or isinstance(value, float))
            and -sys.float_info.max <= value <= sys.float_info.max)


def is_positive_number(value) -> bool:
    return _is_number(value) and value > 0


def positive_number(name, value):
    """`value`, or a ValueError naming `name` if it is not a finite number > 0."""
    if not is_positive_number(value):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return value


# annotation -> (accepts a value, what the value must be)
RULES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | int": (lambda v: isinstance(v, str) or _is_int(v), "a string or an integer"),
    "int": (_is_int, "an integer"),
    "float": (is_positive_number, "a finite number > 0"),
    "float >= 0": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "non-empty list": (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list"),
}


def _rule(annotation):
    if annotation.endswith(" | None"):
        accepts, what = _rule(annotation[:-len(" | None")])
        return (lambda v: v is None or accepts(v)), what
    if annotation.startswith("list["):
        accepts, what = RULES[annotation[len("list["):-1]]
        return (lambda v: isinstance(v, list) and all(map(accepts, v)),
                f"a list whose items are each {what}")
    return RULES[annotation]


def check_fields(where, payload, annotations, required, error, prefix="",
                 noun="field"):
    """Raise `error`, located by `where`, naming the first unknown, missing or
    mistyped field of the mapping `payload`, with `prefix` before its name."""
    if not isinstance(payload, dict):
        raise error(f"{where}: expected a mapping, got {payload!r}")
    unknown = [f"{prefix}{k}" for k in payload if k not in annotations]
    if unknown:
        raise error(f"{where}: unknown {noun}(s) {sorted(unknown)}")
    for name in required:
        if name not in payload:
            raise error(f"{where}: missing required {noun} {prefix + name!r}")
    for name, value in payload.items():
        accepts, what = _rule(annotations[name])
        if not accepts(value):
            raise error(f"{where}: {noun} {prefix + name!r} must be {what}, got {value!r}")


def read_document(path, fmt, version, annotations, required, error) -> dict:
    """Read the YAML document at `path`, whose header must be `format: fmt`
    and `version: version`, and return its other fields, checked by
    `check_fields`. The loader reads the file's bytes: it takes UTF-8 or,
    after a byte order mark, UTF-16, and rejects any other bytes as not
    valid YAML."""
    with open(path, "rb") as fh:
        try:
            doc = yaml.load(fh, Loader=LOADER)
        except yaml.YAMLError as exc:
            raise error(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a mapping at top level")
    if doc.get("format") != fmt:
        raise error(f"{path}: field 'format' must be {fmt!r}")
    if doc.get("version") != version:
        raise error(f"{path}: unsupported version {doc.get('version')!r}")
    payload = {k: v for k, v in doc.items() if k not in ("format", "version")}
    check_fields(path, payload, annotations, required, error)
    return payload
