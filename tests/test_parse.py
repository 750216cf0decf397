import math
from dataclasses import dataclass, field

import pytest

from sinespikes.errors import InvalidConfigurationError
from sinespikes.parse import read


@dataclass(frozen=True)
class Inner:
    count: int = 1


@dataclass(frozen=True)
class Outer:
    size: int
    rate: float = 0.5
    name: str = "a"
    points: tuple[float, ...] | None = None
    inner: Inner = Inner()
    lam: float | str | None = field(default=None, metadata={"key": "lambda"})


def test_reads_each_annotation():
    out = read(Outer, {"size": 3, "rate": 2, "name": "b", "points": [1, 0.5],
                       "inner": {"count": 4}, "lambda": "auto"}, "outer")
    assert out == Outer(3, 2.0, "b", (1.0, 0.5), Inner(4), "auto")
    assert type(out.rate) is float and type(out.points[0]) is float
    assert read(Outer, {"size": 3, "points": None, "lambda": 0.1}, None) == Outer(3, lam=0.1)


def test_defaults_fill_missing_keys():
    assert read(Outer, {"size": 3}, "outer") == Outer(3)


@pytest.mark.parametrize("payload, message", [
    ({}, "outer.size is required"),
    ({"size": True}, "outer.size must be an integer, got True"),
    ({"size": 2.0}, "outer.size must be an integer, got 2.0"),
    ({"size": "2"}, "outer.size must be an integer, got '2'"),
    ({"size": None}, "outer.size must be an integer, got None"),
    ({"size": 1, "rate": math.nan}, "outer.rate must be a finite number, got nan"),
    ({"size": 1, "rate": -math.inf}, "outer.rate must be a finite number, got -inf"),
    ({"size": 1, "rate": 10**400}, "outer.rate must be a finite number"),
    ({"size": 1, "rate": False}, "outer.rate must be a finite number, got False"),
    ({"size": 1, "name": 3}, "outer.name must be a string, got 3"),
    ({"size": 1, "points": "12"}, "outer.points must be a list or null, got '12'"),
    ({"size": 1, "points": [0.1, None]}, "outer.points[1] must be a finite number, got None"),
    ({"size": 1, "inner": []}, "outer.inner must be an object, got []"),
    ({"size": 1, "inner": {"count": 0.5}}, "outer.inner.count must be an integer, got 0.5"),
    ({"size": 1, "lambda": []}, "outer.lambda must be a finite number or a string or null"),
    ({"size": 1, "unread": []}, "outer.unread is not read"),
    ({"size": 1, "lam": 0.1, "unread": []}, "outer.lam, outer.unread are not read"),
    ({"size": 1, "inner": {"count": 1, "extra": 2}}, "outer.inner.extra is not read"),
    # each object's keys are checked before its values, and objects in field order
    ({"size": 1.5, "unread": []}, "outer.unread is not read"),
    ({"size": 1.5, "inner": {"extra": 2}}, "outer.size must be an integer, got 1.5"),
])
def test_rejects_by_key_and_value(payload, message):
    with pytest.raises(InvalidConfigurationError) as exc:
        read(Outer, payload, "outer")
    assert message in str(exc.value)


def test_rejects_what_is_not_an_object():
    with pytest.raises(InvalidConfigurationError, match="outer must be an object"):
        read(Outer, [1], "outer")
    with pytest.raises(InvalidConfigurationError, match="^the config must be an object, got 3$"):
        read(Outer, 3, None)
