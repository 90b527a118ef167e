"""The comparison driver: paired verdicts, classification, witnesses.

``compare_models(a, b)`` answers "is A stronger than B, and show me a
minimal witness" the way memalloy's comparator does — sweep a bounded
corpus of candidate tests under both models and classify the allowed
sets — with two economies on top:

* **paired contexts** — both models' verdicts of one test share one
  :class:`~repro.campaign.context.SimulationContext`, so the
  model-independent front half of the pipeline (thread paths, event
  interning, plans) is paid once per test instead of once per
  (test, model) pair;
* **campaign sharding** — the paired jobs
  (:class:`~repro.campaign.jobs.VerdictJob`) go to the campaign
  runtime in one batch, which fans them out over worker processes when
  a pool or worker count is supplied, with quarantine semantics for
  poison tests under a supervisor policy.

:func:`paired_verdicts` is the one verdict driver of the package: the
diy family sweep (:func:`repro.diy.families.sweep_family`) is this
driver over a single model, and the verdict service's pooled batches
call it too.

Minimality of a witness is certified, not assumed: after the sweep,
every budget-corpus member strictly smaller than the candidate witness
that was *not* already swept (possible when the caller supplies its own
test list) is re-checked serially before the witness is declared
minimal.

``find_distinguishing_tests(violates=..., satisfies=...)`` is the
memalloy use-case as a first-class filter: the corpus tests forbidden
by every ``violates`` model and allowed by every ``satisfies`` model,
smallest first.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.jobs import VerdictJob, caller_context_cache, verdict_chunk
from repro.campaign.runner import run_sharded
from repro.compare.corpus import (
    CorpusBudget,
    comparison_corpus,
    event_count,
    size_key,
    smaller_members,
)
from repro.compare.report import (
    ComparisonReport,
    Row,
    classify,
    minimal_witness,
)
from repro.herd.simulator import ModelLike, Simulator, resolve_model
from repro.litmus.ast import LitmusTest

__all__ = ["compare_models", "find_distinguishing_tests", "paired_verdicts"]

PairedVerdicts = List[Tuple[str, Tuple[str, ...]]]


def model_label(model: ModelLike) -> str:
    """The display name of a model-like value (the resolved name for
    strings, exactly as the sweep drivers report it)."""
    return getattr(resolve_model(model), "name", str(model))


def paired_verdicts(
    tests: Sequence[LitmusTest],
    models: Sequence[ModelLike],
    *,
    engine: str = "optimal",
    processes=None,
    pool=None,
    context_cache=None,
    chunk_size: int = 8,
    policy=None,
    errors: Optional[List] = None,
) -> PairedVerdicts:
    """``(test name, verdict per model)`` for every test, in order.

    One :func:`~repro.campaign.runner.run_sharded` batch of
    :class:`~repro.campaign.jobs.VerdictJob` chunks, which carry the
    models as given; each job shares one context per test across all
    models.  Chunks that run in this process look their contexts up in
    ``context_cache``.  Every model and the engine are checked here
    first, so a bad one raises in the caller whatever the worker count.
    Quarantined tests are dropped from the result and recorded on
    ``errors``.
    """
    models = tuple(models)
    for model in models:
        Simulator(model, engine)  # a bad model or engine raises here
    with caller_context_cache(context_cache):
        return run_sharded(
            verdict_chunk,
            [VerdictJob(test, models, engine) for test in tests],
            processes=processes,
            chunk_size=chunk_size,
            pool=pool,
            policy=policy,
            errors=errors,
        )


def _build_rows(
    pairs: PairedVerdicts, by_name: Dict[str, LitmusTest]
) -> List[Row]:
    rows: List[Row] = []
    for name, verdicts in pairs:
        test = by_name[name]
        verdict_a, verdict_b = verdicts[0], verdicts[1]
        rows.append(
            (name, verdict_a, verdict_b, event_count(test), test.num_threads())
        )
    return rows


def compare_models(
    model_a: ModelLike,
    model_b: ModelLike,
    *,
    budget: Optional[CorpusBudget] = None,
    tests: Optional[Sequence[LitmusTest]] = None,
    engine: str = "optimal",
    processes=None,
    pool=None,
    context_cache=None,
    chunk_size: int = 8,
    policy=None,
    errors: Optional[List] = None,
) -> ComparisonReport:
    """Compare two models over a bounded corpus (or explicit tests).

    ``budget`` (default :class:`~repro.compare.corpus.CorpusBudget`)
    selects the corpus when ``tests`` is not given; when both are
    given, the budget additionally drives the minimality re-check —
    smaller budget-corpus members missing from ``tests`` are swept
    serially before a witness is declared minimal.
    """
    if tests is None and budget is None:
        budget = CorpusBudget()
    corpus = list(tests) if tests is not None else comparison_corpus(budget)
    by_name = {test.name: test for test in corpus}

    failed: List = [] if errors is None else errors
    first_failure = len(failed)
    pairs = paired_verdicts(
        corpus,
        (model_a, model_b),
        engine=engine,
        processes=processes,
        pool=pool,
        context_cache=context_cache,
        chunk_size=chunk_size,
        policy=policy,
        errors=failed,
    )
    rows = _build_rows(pairs, by_name)

    label_a, label_b = model_label(model_a), model_label(model_b)
    witness_a = minimal_witness(rows, label_a, label_b, "a")
    witness_b = minimal_witness(rows, label_a, label_b, "b")

    # Minimality re-check: any budget-corpus member strictly smaller
    # than a candidate witness that the sweep did not cover gets its own
    # paired verdict (serially, contexts shared) before minimality is
    # declared.  A no-op when the corpus came from the budget itself.
    if budget is not None and (witness_a or witness_b):
        bound = max(
            (witness.events, witness.threads, witness.name)
            for witness in (witness_a, witness_b)
            if witness is not None
        )
        missing = [
            test
            for test in smaller_members(budget, bound)
            if test.name not in by_name
        ]
        if missing:
            extra = paired_verdicts(
                missing,
                (model_a, model_b),
                engine=engine,
                context_cache=context_cache,
            )
            by_name.update({test.name: test for test in missing})
            rows.extend(_build_rows(extra, by_name))
            rows.sort(key=lambda row: (row[3], row[4], row[0]))
            witness_a = minimal_witness(rows, label_a, label_b, "a")
            witness_b = minimal_witness(rows, label_a, label_b, "b")

    return ComparisonReport(
        model_a=label_a,
        model_b=label_b,
        verdict=classify(rows),
        rows=tuple(rows),
        witness_a=witness_a,
        witness_b=witness_b,
        budget=budget.as_dict() if budget is not None else None,
        errors=tuple(failed[first_failure:]),
    )


def find_distinguishing_tests(
    violates: Union[ModelLike, Sequence[ModelLike]] = (),
    satisfies: Union[ModelLike, Sequence[ModelLike]] = (),
    *,
    budget: Optional[CorpusBudget] = None,
    tests: Optional[Sequence[LitmusTest]] = None,
    engine: str = "optimal",
    processes=None,
    pool=None,
    context_cache=None,
    chunk_size: int = 8,
    policy=None,
    errors: Optional[List] = None,
) -> List[LitmusTest]:
    """Corpus tests forbidden by every ``violates`` model and allowed
    by every ``satisfies`` model, smallest first (memalloy's
    ``-violates X -satisfies Y``)."""
    violates = list(violates) if isinstance(violates, (list, tuple)) else [violates]
    satisfies = list(satisfies) if isinstance(satisfies, (list, tuple)) else [satisfies]
    if not violates and not satisfies:
        raise ValueError("pass at least one violates= or satisfies= model")
    if tests is None and budget is None:
        budget = CorpusBudget()
    corpus = list(tests) if tests is not None else comparison_corpus(budget)
    by_name = {test.name: test for test in corpus}

    pairs = paired_verdicts(
        corpus,
        [*violates, *satisfies],
        engine=engine,
        processes=processes,
        pool=pool,
        context_cache=context_cache,
        chunk_size=chunk_size,
        policy=policy,
        errors=errors,
    )
    split = len(violates)
    matching = [
        by_name[name]
        for name, verdicts in pairs
        if all(verdict == "Forbid" for verdict in verdicts[:split])
        and all(verdict == "Allow" for verdict in verdicts[split:])
    ]
    return sorted(matching, key=size_key)
