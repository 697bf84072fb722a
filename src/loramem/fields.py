"""Field tables for the JSON objects the program reads. A table checks
JSON types and names the field it refuses; rules on values stay on the
typed object its fields build."""

from typing import Callable, NamedTuple


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {int, float}


_REQUIRED = object()


class _Field(NamedTuple):
    """A field: its value when absent, its check and what that wants, how a
    passing value is read, the field it may not come with."""

    default: object
    check: Callable[[object], bool]
    wants: str
    read: Callable[[object], object] = lambda value: value
    excludes: str | None = None


def _parse(blob: dict, fields: dict[str, _Field], where: str,
           error: Callable[[str], Exception]) -> dict:
    """Each field of blob read, or its default. `error(message)` for the
    first unknown key, else two fields that exclude each other, else the
    first absent required field, else the first value its check refuses or
    its read cannot hold in a float."""
    for name in blob:
        if name not in fields:
            raise error(f"unknown key {name!r} in {where}")
    for name, spec in fields.items():
        if name in blob and spec.excludes in blob:
            raise error(f"give {name} or {spec.excludes}, not both")
    for name, spec in fields.items():
        if spec.default is _REQUIRED and name not in blob:
            raise error(f"{name} is required")
    parsed = {}
    for name, spec in fields.items():
        if name not in blob:
            parsed[name] = spec.default
        elif spec.check(blob[name]):
            try:
                parsed[name] = spec.read(blob[name])
            except OverflowError:   # a JSON integer too large for a float
                raise error(f"{name} must be {spec.wants} within float "
                            f"range") from None
        else:
            raise error(f"{name} must be {spec.wants}")
    return parsed
