"""Tests for the cat language: lexer, parser, interpreter and shipped models."""

import pytest

from repro.cat import (
    builtin_model_names,
    builtin_model_source,
    load_builtin_model,
    load_cat_model,
    parse_cat,
)
from repro.cat import ast as cat_ast
from repro.cat.interpreter import CatEvaluationError, builtin_environment
from repro.cat.lexer import CatSyntaxError, tokenize
from repro.herd import candidate_executions, simulate
from repro.litmus.registry import entries, get_test


# -- lexer ---------------------------------------------------------------------


def test_tokenize_identifiers_and_operators():
    tokens = tokenize("let hb = ppo|fences;rfe*")
    kinds = [token.kind for token in tokens]
    assert "LET" in kinds and "IDENT" in kinds and "|" in kinds and ";" in kinds
    assert kinds[-1] == "EOF"


def test_tokenize_composite_ctrl_identifiers():
    tokens = tokenize("ctrl+isync | ctrl+isb")
    idents = [token.value for token in tokens if token.kind == "IDENT"]
    assert idents == ["ctrl+isync", "ctrl+isb"]


def test_tokenize_block_and_line_comments():
    tokens = tokenize("(* a (* nested *) comment *) let x = po // trailing\n")
    assert [t.value for t in tokens if t.kind == "IDENT"] == ["x", "po"]


def test_tokenize_rejects_unterminated_comment_and_bad_char():
    with pytest.raises(CatSyntaxError):
        tokenize("(* oops")
    with pytest.raises(CatSyntaxError):
        tokenize("let x = @")


# -- parser --------------------------------------------------------------------


def test_parse_let_and_check():
    program = parse_cat("let hb = po | rfe\nacyclic hb as no-thin-air\n")
    assert isinstance(program.statements[0], cat_ast.Let)
    check = program.statements[1]
    assert isinstance(check, cat_ast.Check)
    assert check.kind == "acyclic" and check.name == "no-thin-air"


def test_parse_let_rec_groups_bindings():
    program = parse_cat("let rec a = b | po\nand b = a ; rf\nacyclic a\n")
    letrec = program.statements[0]
    assert isinstance(letrec, cat_ast.LetRec)
    assert [name for name, _ in letrec.bindings] == ["a", "b"]


def test_parse_precedence_union_binds_weaker_than_sequence():
    program = parse_cat("acyclic po | rf ; fr\n")
    expr = program.statements[0].expr
    assert isinstance(expr, cat_ast.Union)
    assert isinstance(expr.right, cat_ast.Sequence)


def test_parse_direction_filters_and_closures():
    program = parse_cat("let x = WW(po)* | RM(lwsync)+\nacyclic x\n")
    expr = program.statements[0].expr
    assert isinstance(expr, cat_ast.Union)
    assert isinstance(expr.left, cat_ast.ReflexiveTransitiveClosure)
    assert isinstance(expr.left.operand, cat_ast.DirectionFilter)


def test_parse_leading_model_name():
    program = parse_cat("mymodel\nacyclic po\n")
    assert program.name == "mymodel"


def test_parse_errors():
    with pytest.raises(CatSyntaxError):
        parse_cat("let = po\n")
    with pytest.raises(CatSyntaxError):
        parse_cat("acyclic (po\n")
    with pytest.raises(CatSyntaxError):
        parse_cat("frobnicate po\n")


# -- interpreter -----------------------------------------------------------------


def _one_execution(test_name):
    return next(iter(candidate_executions(get_test(test_name)))).execution


def test_builtin_environment_contains_paper_relations():
    environment = builtin_environment(_one_execution("mp"))
    for name in ("po", "po-loc", "rf", "rfe", "co", "fr", "addr", "data", "ctrl",
                 "ctrl+isync", "sync", "lwsync", "dmb", "mfence", "com", "id"):
        assert name in environment


def test_unknown_relation_raises():
    model = load_cat_model("acyclic frobnicate\n")
    with pytest.raises(CatEvaluationError):
        model.check(_one_execution("mp"))


def test_letrec_fixpoint_terminates_and_grows():
    model = load_cat_model(
        "let rec path = po | (path ; path)\nacyclic path as closure\n", name="fixpoint"
    )
    execution = _one_execution("mp")
    relations = model.relations(execution)
    assert relations["path"].pairs >= execution.po.pairs


def test_simple_sc_model_matches_builtin_sc():
    source = "acyclic po | rf | fr | co as sc\n"
    model = load_cat_model(source, name="mini-sc")
    assert simulate(get_test("mp"), model).verdict == "Forbid"
    assert simulate(get_test("sb"), model).verdict == "Forbid"


# -- shipped models ---------------------------------------------------------------


def test_builtin_model_names_and_sources():
    names = builtin_model_names()
    assert {"sc", "tso", "power", "arm", "arm-llh", "cpp-ra", "power-arm"} <= set(names)
    assert "acyclic" in builtin_model_source("power")
    with pytest.raises(KeyError):
        builtin_model_source("itanium")


@pytest.mark.parametrize("model_name", sorted(builtin_model_names()))
def test_cat_models_match_paper_expectations(model_name):
    """Each shipped .cat file reproduces the paper verdicts of its architecture."""
    cat_model = load_builtin_model(model_name)
    checked = 0
    for entry in entries():
        expected = entry.expectations.get(model_name)
        if expected is None:
            continue
        result = simulate(entry.build(), cat_model)
        assert result.verdict == expected, f"{entry.name} under cat {model_name}"
        checked += 1
    assert checked > 0 or model_name not in ("power", "arm", "tso", "sc")


def test_fig38_power_cat_equals_builtin_power_on_named_tests():
    cat_power = load_builtin_model("power")
    for name in ("mp+lwsync+addr", "sb+syncs", "lb+addrs", "2+2w+lwsyncs",
                 "r+lwsync+sync", "iriw+lwsyncs", "w+rwc+eieio+addr+sync"):
        test = get_test(name)
        assert (
            simulate(test, cat_power).verdict == simulate(test, "power").verdict
        ), name


# -- stdlib memoization --------------------------------------------------------


def test_load_builtin_model_parses_once_per_name():
    from repro.cat import clear_model_cache
    from repro.cat.stdlib import cache_stats

    clear_model_cache()
    stats = cache_stats()
    try:
        first = load_builtin_model("power")
        assert stats.misses == 1 and stats.hits == 0 and stats.entries == 1
        second = load_builtin_model("power")
        assert stats.misses == 1 and stats.hits == 1 and stats.entries == 1
        # Fresh wrapper objects over one shared (frozen) program.
        assert first is not second
        assert first.program is second.program
        assert second.name == "power"
    finally:
        clear_model_cache()


def test_cached_builtin_models_cannot_be_corrupted_by_callers():
    from repro.cat import clear_model_cache

    clear_model_cache()
    try:
        tampered = load_builtin_model("tso")
        tampered.program = None  # a hostile caller mutates its copy...
        reloaded = load_builtin_model("tso")
        assert reloaded.program is not None  # ...the cache never sees it
        assert simulate(get_test("sb"), reloaded).verdict == "Allow"
        # The program itself is frozen: its fields cannot be rebound.
        with pytest.raises(AttributeError):
            reloaded.program.name = "evil"
    finally:
        clear_model_cache()


def test_builtin_model_source_is_memoized_and_consistent():
    from repro.cat import clear_model_cache

    clear_model_cache()
    try:
        assert builtin_model_source("arm") is builtin_model_source("arm")
    finally:
        clear_model_cache()
