"""The one instrumentation tap: all method wrapping of simulator objects.

Observers (the obs session, the race-check ring, the protocol tracer) are
plain subscribers.  A subscriber observes ``obj.<method>`` by defining
``before_<method>(*args)``, ``after_<method>(result, *args)`` or
``failed_<method>(err, cause, *args)`` (a misspeculation, re-raised
unchanged); :func:`subscribe` resolves these once, and wraps a method only
if some subscriber of its object defines one.  The tap keeps one wrapper
per (object, method) built from the object's subscriber list, calls every
callback directly, and classifies a misspeculation once per frame.
:func:`unsubscribe` works in any order, so detaching one observer never
silences another; a method comes back when no subscriber is left.
DESIGN.md §11 argues why observation is behaviour-free.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import MisspeculationError
from ..txctl.causes import classify
from . import hooks

#: Callback name prefixes, in hook-triple order.
_PHASES = ("before", "after", "failed")
#: Marks a method the object only had on its class.
_UNSET = object()


class _Tapped:
    """One tapped object: its subscribers (weakly, callbacks by name, so
    an observer never detached does not keep a finished run alive) and
    what each wrapped method was before."""

    def __init__(self, obj) -> None:
        key = id(obj)
        self.obj = weakref.ref(obj, lambda _: _tapped.pop(key, None))
        self.subscribers: List[Tuple[weakref.ref, Dict[str, list]]] = []
        self.priors: Dict[str, Any] = {}

    def rewire(self, methods) -> None:
        obj = self.obj()
        for name in methods:
            callbacks = [[a and getattr(ref(), a) for a in table[name]]
                         for ref, table in self.subscribers if name in table]
            prior = self.priors.setdefault(name, vars(obj).get(name, _UNSET))
            if callbacks:
                function = inspect.getattr_static(type(obj), name)
                if prior is _UNSET and inspect.isfunction(function):
                    # The class's function, handed the object through the
                    # weak reference: a wrapper holding a bound method of
                    # the object it sits on would be a reference cycle.
                    wrapper = _wrapper(function, callbacks, self.obj)
                else:
                    wrapper = _wrapper(
                        function.__get__(obj, type(obj))
                        if prior is _UNSET else prior, callbacks)
                setattr(obj, name, wrapper)
            elif self.priors.pop(name) is _UNSET:
                delattr(obj, name)
            else:
                setattr(obj, name, prior)


#: id(object) -> its record, for every object some subscriber observes.
_tapped: Dict[int, _Tapped] = {}


@functools.lru_cache(maxsize=None)
def _callback_table(subscriber_type: type, obj_type: type):
    """``method -> [before, after, failed]`` callback names of a
    subscriber class for the methods of an object class."""
    table: Dict[str, list] = {}
    for attr in dir(subscriber_type):
        phase, _, method = attr.partition("_")
        if phase in _PHASES and callable(getattr(obj_type, method, None)):
            table.setdefault(method, [None] * 3)[_PHASES.index(phase)] = attr
    return table


def subscribe(obj, subscriber) -> None:
    """Attach ``subscriber``'s callbacks to ``obj`` (idempotent)."""
    table = _callback_table(type(subscriber), type(obj))
    if not table:
        return
    if (tapped := _tapped.get(id(obj))) is None:
        tapped = _tapped[id(obj)] = _Tapped(obj)
    if all(ref() is not subscriber for ref, _ in tapped.subscribers):
        tapped.subscribers.append((weakref.ref(subscriber), table))
        tapped.rewire(table)


def unsubscribe(subscriber) -> None:
    """Detach ``subscriber`` from every object it observes (idempotent)."""
    for key, tapped in list(_tapped.items()):
        if _tapped.get(key) is not tapped:
            # Its object died when an earlier rewire dropped the last
            # wrapper referring to it.
            continue
        for entry in tapped.subscribers:
            if entry[0]() is subscriber:
                tapped.subscribers.remove(entry)
                tapped.rewire(entry[1])
                break
        if not tapped.subscribers:
            _tapped.pop(key, None)


def _wrapper(original: Callable, callbacks: List[list],
             receiver: Optional[weakref.ref] = None) -> Callable:
    """The installed wrapper, generated with the original's parameter list
    so no call packs ``*args``/``**kwargs`` (several times dearer on the
    observed per-op path) or loops over subscribers.  Callbacks get named
    parameters positionally (tapped methods have no keyword-only ones).
    With a ``receiver``, ``original`` is a plain function called on the
    object that reference points to."""
    namespace = {"_original": original, "_receiver": receiver,
                 "_classify": classify,
                 "_Misspeculation": MisspeculationError}
    calls: Dict[str, List[str]] = {phase: [] for phase in _PHASES}
    for index, triple in enumerate(callbacks):
        for phase, callback in zip(_PHASES, triple):
            if callback is not None:
                namespace[f"_{phase}{index}"] = callback
                calls[phase].append(f"_{phase}{index}")
    params, args, defaults = _parameters(
        original if receiver is None else original.__get__(receiver()))
    namespace.update(defaults)
    call = ", ".join(args)
    target = ", ".join(args if receiver is None else ["_receiver()", *args])
    failed = [f"    {name}(err, cause, {call})" for name in calls["failed"]]
    lines = [f"def tapped({', '.join(params)}):",
             *(f"{name}({call})" for name in calls["before"]),
             "try:",
             f"    result = _original({target})",
             "except _Misspeculation as err:",
             *(["    cause = _classify(err)"] + failed if failed else []),
             "    raise",
             *(f"{name}(result, {call})" for name in calls["after"]),
             "return result"]
    exec(_compile("\n    ".join(lines)), namespace)
    # Popped, not read: a wrapper left in its own globals would be a
    # reference cycle keeping the observed run alive until a full GC.
    return functools.wraps(original)(namespace.pop("tapped"))


#: function -> {bound: (parameters, arguments, defaults)}; weak, so a
#: wrapped closure (another layer's patch) dies with its run.
_signatures: "weakref.WeakKeyDictionary[Callable, Dict[bool, tuple]]" = \
    weakref.WeakKeyDictionary()


def _parameters(original: Callable) -> Tuple[List[str], List[str], dict]:
    """The generated wrapper's parameters, call arguments and
    ``_default_*`` globals for ``original``.  Derived once per underlying
    function and binding: ``inspect.signature`` costs tens of
    microseconds, and every observed run wraps the same methods."""
    function = getattr(original, "__func__", original)
    entries = _signatures.setdefault(function, {})
    bound = function is not original
    entry = entries.get(bound)
    if entry is None:
        params, args, defaults = [], [], {}
        for param in inspect.signature(
                original, follow_wrapped=False).parameters.values():
            arg = {param.VAR_POSITIONAL: "*",
                   param.VAR_KEYWORD: "**"}.get(param.kind, "") + param.name
            defaults["_default_" + param.name] = param.default
            params.append(arg if param.default is param.empty
                          else f"{arg}=_default_{param.name}")
            args.append(arg)
        entry = entries[bound] = (params, args, defaults)
    return entry


@functools.lru_cache(maxsize=None)
def _compile(source: str):
    """Every observed run wraps the same methods; compile each source once
    (compiling costs milliseconds per run, a short run's whole budget)."""
    return compile(source, "<tap>", "exec")


class Tap:
    """The subscribers observing a run.  While it is :data:`hooks.active`,
    the runtime hands it every system and scheduler it builds, and it
    forwards them to the subscribers' ``attach_system`` /
    ``attach_scheduler`` (and spin retags to ``record_spin``)."""

    def __init__(self, *subscribers) -> None:
        self.subscribers = subscribers

    @contextmanager
    def activate(self) -> Iterator["Tap"]:
        """Install this tap for the dynamic extent.  Nesting is rejected:
        a run with several observers activates one tap holding them all."""
        if hooks.active is not None:
            raise RuntimeError("a tap is already active")
        hooks.active = self
        try:
            yield self
        finally:
            hooks.active = None

    def _forward(self, name: str, *args) -> None:
        for subscriber in self.subscribers:
            method = getattr(subscriber, name, None)
            if method is not None:
                method(*args)

    attach_system = functools.partialmethod(_forward, "attach_system")
    attach_scheduler = functools.partialmethod(_forward, "attach_scheduler")
    record_spin = functools.partialmethod(_forward, "record_spin")
