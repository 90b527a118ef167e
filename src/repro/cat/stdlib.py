"""The cat models shipped with the library.

``power.cat`` is the model of Fig. 38; the others are the instances of
Fig. 21 and Tab. VII written in the same language.  The test-suite
checks that each file is *verdict-equivalent* to the corresponding
built-in architecture on the paper's named tests.

Loading is memoized: the ``.cat`` file is read and parsed once per
model name, and every :func:`load_builtin_model` call returns a *fresh*
:class:`~repro.cat.interpreter.CatModel` wrapping the cached (frozen)
AST — so repeated loads skip the parser, yet no caller can corrupt the
cache by mutating the model object it was handed.  :func:`cache_stats`
exposes the hit counters; :func:`clear_model_cache` resets the cache
(useful when a model file is edited in a live process).
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.cat.ast import CatProgram
from repro.cat.interpreter import CatModel
from repro.cat.parser import parse_cat

_MODELS_DIR = os.path.join(os.path.dirname(__file__), "models")

#: cat file name per model name.
_BUILTIN_FILES: Dict[str, str] = {
    "sc": "sc.cat",
    "tso": "tso.cat",
    "cpp-ra": "cpp-ra.cat",
    "power": "power.cat",
    "power-arm": "power-arm.cat",
    "arm": "arm.cat",
    "arm-llh": "arm-llh.cat",
}

#: name -> source text, read once per process.
_SOURCE_CACHE: Dict[str, str] = {}
#: name -> parsed (frozen) program, parsed once per process.
_PROGRAM_CACHE: Dict[str, CatProgram] = {}


def _make_stats():
    from repro.telemetry import CacheStats

    return CacheStats("cat_models", entries=lambda: len(_PROGRAM_CACHE))


#: counters on the unified CacheStats interface.
_STATS = _make_stats()


def cache_stats():
    """The parsed-model cache's :class:`repro.telemetry.CacheStats`."""
    return _STATS


def builtin_model_names() -> Tuple[str, ...]:
    """Names of the models shipped as .cat files."""
    return tuple(sorted(_BUILTIN_FILES))


def builtin_model_source(name: str) -> str:
    """The cat source text of a shipped model (read once, then cached)."""
    if name not in _BUILTIN_FILES:
        known = ", ".join(builtin_model_names())
        raise KeyError(f"unknown cat model {name!r}; known: {known}")
    source = _SOURCE_CACHE.get(name)
    if source is None:
        path = os.path.join(_MODELS_DIR, _BUILTIN_FILES[name])
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        _SOURCE_CACHE[name] = source
    return source


def load_builtin_model(name: str) -> CatModel:
    """Load one of the shipped cat models by name.

    The underlying program is parsed once per process and shared —
    :class:`~repro.cat.ast.CatProgram` and every AST node are frozen
    dataclasses, so sharing is safe.  The returned :class:`CatModel`
    wrapper is a fresh object on every call: rebinding its attributes
    cannot affect later loads.
    """
    program = _PROGRAM_CACHE.get(name)
    if program is None:
        source = builtin_model_source(name)  # validates the name first
        _STATS.miss()
        program = parse_cat(source, name)
        _PROGRAM_CACHE[name] = program
    else:
        _STATS.hit()
    return CatModel(program)


def clear_model_cache() -> None:
    """Drop the cached sources and parsed programs (and the counters)."""
    _SOURCE_CACHE.clear()
    _PROGRAM_CACHE.clear()
    _STATS.reset()
