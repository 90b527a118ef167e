"""The cat model-description language (Sec. 8.3, Fig. 38).

herd's distinguishing feature is that the memory model is not baked into
the simulator: it is a small text file written in a relational language
("cat").  This package provides:

* :mod:`repro.cat.lexer` / :mod:`repro.cat.parser` — the concrete syntax
  (``let``, ``let rec ... and ...``, ``|  &  ;  \\  +  *``, direction
  filters ``RR(..)``/``WW(..)``/..., ``acyclic``/``irreflexive``/``empty``
  checks);
* :mod:`repro.cat.interpreter` — evaluation of a cat model over a
  candidate execution, yielding a model object usable anywhere a built-in
  architecture is (the herd simulator, the hardware campaign, ...);
* :mod:`repro.cat.stdlib` — the models shipped with the library
  (``sc.cat``, ``tso.cat``, ``cpp-ra.cat``, ``power.cat``, ``arm.cat``,
  ``arm-llh.cat``), including the Power model exactly as printed in
  Fig. 38.
"""

from repro.cat.parser import parse_cat
from repro.cat.interpreter import CatModel, load_cat_model
from repro.cat.stdlib import (
    builtin_model_names,
    builtin_model_source,
    clear_model_cache,
    load_builtin_model,
)

__all__ = [
    "parse_cat",
    "CatModel",
    "load_cat_model",
    "builtin_model_names",
    "builtin_model_source",
    "load_builtin_model",
    "clear_model_cache",
]
