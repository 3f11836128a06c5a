"""Exception types shared across the package, and the one type rule for JSON
read from outside: configs, bundle manifests and checkpoint headers."""
import sys
import types
import typing


class EegraphError(Exception):
    """Base class for all package errors."""


class LayoutError(EegraphError):
    """Electrode geometry is unusable (duplicate coordinates, too few sites, ...)."""


class ConfigError(EegraphError):
    """Invalid configuration: unknown names, out-of-range values, bad schema."""


class IsolatedNodeError(EegraphError):
    """A channel has zero total connection weight, so degree normalization fails."""


class CorruptBundleError(EegraphError):
    """A dataset bundle or checkpoint file does not match its declared layout."""


class DivergenceError(EegraphError):
    """Training produced a non-finite loss or gradient."""


_UNIONS = (typing.Union, types.UnionType)
_JSON_WORDS = {bool: "a JSON bool", int: "a JSON integer", float: "a finite JSON number",
               str: "a JSON string", dict: "a JSON object", type(None): "null"}


def json_fits(value, annotation) -> bool:
    """Whether a value parsed by `json.loads` fits a type annotation, taken as written.

    A bool is never a number, an int also fits a float field, a float field's
    value must be finite as a float, and a union fits when a member does.
    `list[X]`, X a plain type, is checked by its set of element types (floats
    one by one), so a long id list costs no call per element. Any other
    annotation wants exactly its type.
    """
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in _UNIONS:
        return any(json_fits(value, arg) for arg in args)
    if origin is list:
        if type(value) is not list:
            return False
        kinds = set(map(type, value))
        if float in kinds:
            return all(json_fits(v, args[0]) for v in value)
        return all(json_fits(kind(), args[0]) for kind in kinds)  # a kind's zero stands for it
    if annotation is float:  # finite, and an int only as large as a float can hold
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is annotation


def json_misfit(doc: dict, schema: dict) -> str | None:
    """'NAME must be <JSON type>' for the first entry of `doc` that does not fit its
    annotation in `schema`, else None. Never the value, which may be long."""
    for name, value in doc.items():
        if not json_fits(value, schema[name]):
            return f"{name} must be {_json_type(schema[name])}"
    return None


def _json_type(annotation) -> str:
    if typing.get_origin(annotation) in _UNIONS:
        return " or ".join(map(_json_type, typing.get_args(annotation)))
    if typing.get_origin(annotation) is list:
        return f"a list of JSON {_JSON_WORDS[typing.get_args(annotation)[0]].split()[-1]}s"
    return _JSON_WORDS[annotation]
