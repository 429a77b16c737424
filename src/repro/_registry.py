"""Name -> factory registries addressed by ``name:key=value,...`` specs.

The scheduling-kernel, trace-loader and admission-policy registries share
this one mechanism: each module wraps a :class:`Registry` and keeps its
own public function names.  A spec is a registered name or alias with an
optional parameter suffix forwarded to the factory as keyword arguments;
values parse as int, then float, else stay strings.

Example::

    >>> reg = Registry("widget", param="widget", unknown="widget")
    >>> reg.register("box", dict, aliases=("b",))
    >>> reg.build("b:w=2,h=0.5,label=x")
    {'w': 2, 'h': 0.5, 'label': 'x'}
    >>> reg.canonical("b:w=2")
    'box:w=2'
    >>> reg.is_known("crate"), reg.is_known("box:w")
    (False, False)
    >>> reg.build("box:w")
    Traceback (most recent call last):
        ...
    ValueError: bad widget parameter 'w' in 'box:w'; expected key=value
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Registry"]


def _parse_spec(spec: str, param: str) -> tuple[str, dict[str, object]]:
    """Split *spec* into its name and constructor keyword arguments."""
    name, _, params = spec.partition(":")
    name = name.strip()
    kwargs: dict[str, object] = {}
    if params:
        for item in params.split(","):
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(
                    f"bad {param} parameter {item!r} in {spec!r}; "
                    "expected key=value"
                )
            raw = raw.strip()
            try:
                value: object = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            kwargs[key.strip()] = value
    return name, kwargs


class Registry:
    """Factories by canonical name, plus aliases.

    The three nouns only shape error messages: *noun* for duplicate
    registrations, *param* for malformed ``key=value`` items and
    *unknown* for unregistered names.
    """

    def __init__(self, noun: str, param: str, unknown: str) -> None:
        self.noun = noun
        self.param = param
        self.unknown = unknown
        self.factories: dict[str, Callable[..., object]] = {}
        self.aliases: dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., object],
        aliases: tuple[str, ...] = (),
        replace: bool = False,
    ) -> None:
        if not replace and self._taken(name):
            raise ValueError(f"{self.noun} {name!r} is already registered")
        self.factories[name] = factory
        for alias in aliases:
            if not replace and self._taken(alias):
                raise ValueError(f"{self.noun} alias {alias!r} is already registered")
            self.aliases[alias] = name

    def _taken(self, name: str) -> bool:
        return name in self.factories or name in self.aliases

    def names(self) -> tuple[str, ...]:
        """Canonical registered names, registration order."""
        return tuple(self.factories)

    def parse(self, spec: str) -> tuple[str, dict[str, object]]:
        """*spec*'s name (alias not resolved) and keyword arguments."""
        return _parse_spec(spec, self.param)

    def factory(self, name: str) -> Callable[..., object]:
        """The factory registered under *name* or its alias."""
        factory = self.factories.get(self.aliases.get(name, name))
        if factory is None:
            raise ValueError(
                f"unknown {self.unknown} {name!r}; registered: "
                f"{', '.join(self.names())}"
            )
        return factory

    def build(self, spec: str) -> object:
        """Instantiate *spec*: its factory called with its parameters."""
        name, kwargs = self.parse(spec)
        return self.factory(name)(**kwargs)

    def is_known(self, spec: str) -> bool:
        """Cheap name-only validation (no instantiation)."""
        try:
            name, _ = self.parse(spec)
        except ValueError:
            return False
        return self._taken(name)

    def canonical(self, spec: str) -> str:
        """Normalise *spec*: resolve aliases, keep any parameter suffix.

        Validates the name and the ``key=value`` syntax without
        instantiating anything.
        """
        name, _ = self.parse(spec)
        self.factory(name)
        _, _, params = spec.partition(":")
        resolved = self.aliases.get(name, name)
        return f"{resolved}:{params}" if params else resolved
