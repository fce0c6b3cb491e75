"""Unit tests for SMT-LIB generation, parsing, and execution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SMTLibError, SMTLibParseError
from repro.fol import (
    DATA,
    ENTITY,
    Constant,
    PredicateSymbol,
    Sort,
    Variable,
    exists,
    forall,
    implies,
    negate,
    uninterpreted,
)
from repro.smtlib import (
    Assert,
    CheckSat,
    DeclareConst,
    DeclareFun,
    SMTScript,
    compile_formula,
    compile_validity_script,
    execute_script,
    parse_script,
    parse_sexprs,
    sexpr_to_text,
)
from repro.smtlib.ast import symbol_text

E1 = Constant("tiktak", ENTITY)
D1 = Constant("email", DATA)
SHARE = PredicateSymbol("share", (ENTITY, DATA))
X = Variable("x", ENTITY)


class TestSexprs:
    def test_parse_simple(self):
        assert parse_sexprs("(check-sat)") == [["check-sat"]]

    def test_parse_nested(self):
        assert parse_sexprs("(assert (not p))") == [["assert", ["not", "p"]]]

    def test_comments_skipped(self):
        assert parse_sexprs("; comment\n(check-sat)") == [["check-sat"]]

    def test_round_trip(self):
        text = "(assert (or (p a) (not (q b))))"
        parsed = parse_sexprs(text)[0]
        assert sexpr_to_text(parsed) == text

    def test_unbalanced_raises(self):
        with pytest.raises(SMTLibParseError):
            parse_sexprs("(assert (p)")

    def test_extra_close_raises(self):
        with pytest.raises(SMTLibParseError):
            parse_sexprs(")")

    def test_quoted_symbol(self):
        assert parse_sexprs("(|weird name|)") == [["|weird name|"]]

    def test_quoted_simple_symbol_is_the_bare_symbol(self):
        # SMT-LIB 2.6 section 3.1: |a| and a are the same symbol.  Content
        # that is no simple symbol, or is a reserved word, keeps its bars.
        assert parse_sexprs("(|a| |=>| |a b| |f(a)| |1x| |forall|)") == [
            ["a", "=>", "|a b|", "|f(a)|", "|1x|", "|forall|"]
        ]

    def test_quoted_command_name_and_application_keep_their_bars(self):
        assert parse_sexprs("(|assert| |f(a)|)") == [["|assert|", "|f(a)|"]]

    def test_bars_inside_a_symbol_stay_one_token(self):
        assert parse_sexprs("(a|b| c)") == [["a|b|", "c"]]

    def test_comment_holding_bars_quotes_and_parens_is_skipped(self):
        text = '; a | b " c ( d\n(check-sat) ; |x "y (z\n'
        assert parse_sexprs(text) == [["check-sat"]]

    def test_string_literal_is_one_token(self):
        assert parse_sexprs('(echo "a ; (b| c")') == [["echo", '"a ; (b| c"']]

    @pytest.mark.parametrize(
        "text,message,line",
        [
            ("(a\n|b c)", "unterminated quoted symbol", 2),
            ('(a\n\n"b c)', "unterminated string literal", 3),
        ],
    )
    def test_unterminated_quote_names_its_line(self, text, message, line):
        with pytest.raises(SMTLibParseError, match=message) as caught:
            parse_sexprs(text)
        assert caught.value.line == line

    def test_tokens_after_a_multiline_quoted_symbol_keep_their_line(self):
        assert parse_sexprs("(p |a\nb|)") == [["p", "|a\nb|"]]
        with pytest.raises(SMTLibParseError, match="unbalanced '\\)'") as caught:
            parse_sexprs("(p |a\nb| c)\n)")
        assert caught.value.line == 3

    def test_tokens_after_a_multiline_string_keep_their_line(self):
        with pytest.raises(SMTLibParseError, match="unbalanced '\\)'") as caught:
            parse_sexprs('"a\nb"\n)')
        assert caught.value.line == 3

    def test_unclosed_paren_names_the_innermost_open_line(self):
        with pytest.raises(SMTLibParseError, match="unbalanced '\\('") as caught:
            parse_sexprs("(assert\n  (and p\n    (not q)\n")
        assert caught.value.line == 2


class TestCompileFormula:
    def test_atom(self):
        assert sexpr_to_text(compile_formula(SHARE(E1, D1))) == "(share tiktak email)"

    def test_nullary_atom(self):
        flag = PredicateSymbol("flag")
        assert compile_formula(flag()) == "flag"

    def test_quantifier_binder_block(self):
        text = sexpr_to_text(compile_formula(forall(X, SHARE(X, D1))))
        assert text == "(forall ((x Entity)) (share x email))"

    def test_consecutive_quantifiers_merged(self):
        y = Variable("y", ENTITY)
        text = sexpr_to_text(compile_formula(forall([X, y], SHARE(X, D1))))
        assert "((x Entity) (y Entity))" in text

    def test_exists(self):
        text = sexpr_to_text(compile_formula(exists(X, SHARE(X, D1))))
        assert text.startswith("(exists")

    def test_implies(self):
        text = sexpr_to_text(
            compile_formula(implies(SHARE(E1, D1), SHARE(E1, D1)))
        )
        assert text.startswith("(=>")


class TestValidityScript:
    def test_structure(self):
        script = compile_validity_script([SHARE(E1, D1)], SHARE(E1, D1))
        text = script.to_text()
        assert "(set-logic UF)" in text
        assert "(declare-sort Data 0)" in text
        assert "(declare-sort Entity 0)" in text
        assert "(declare-const tiktak Entity)" in text
        assert "(declare-fun share (Entity Data) Bool)" in text
        assert "(check-sat)" in text
        # The query is asserted negated.
        assert "(assert (not (share tiktak email)))" in text

    def test_uninterpreted_comment(self):
        vague = uninterpreted("legitimate business purposes")
        script = compile_validity_script([implies(vague, SHARE(E1, D1))], SHARE(E1, D1))
        assert "uninterpreted (vague term): legitimate business purposes" in script.to_text()

    def test_counts(self):
        script = compile_validity_script([SHARE(E1, D1)], SHARE(E1, D1))
        assert script.num_assertions == 2
        assert script.num_declarations >= 3


class TestSymbolQuoting:
    """Names that are no simple symbol are written in bars and read back."""

    @pytest.mark.parametrize(
        "name", ["acme corp", "exists", "f(a)", "1st", "|a,b|"]
    )
    def test_validity_script_round_trips(self, name):
        company = Constant(name, ENTITY)
        script = compile_validity_script([SHARE(company, D1)], SHARE(company, D1))
        text = script.to_text()
        written = name if name.startswith("|") else f"|{name}|"
        assert f"(declare-const {written} Entity)" in text
        assert f"(assert (not (share {written} email)))" in text
        uncommented = "".join(
            line + "\n" for line in text.splitlines() if not line.startswith(";")
        )
        assert parse_script(text).to_text() == uncommented
        assert execute_script(text)[0].is_unsat  # the fact entails itself

    def test_sorts_predicates_and_bound_variables_are_quoted(self):
        place = Sort("data type")
        holds = PredicateSymbol("shares with", (ENTITY, place))
        y = Variable("the y", place)
        query = exists(y, holds(E1, y))
        fact = holds(E1, Constant("email", place))
        text = compile_validity_script([fact], query).to_text()
        assert "(declare-sort |data type| 0)" in text
        assert "(declare-fun |shares with| (Entity |data type|) Bool)" in text
        assert "(exists ((|the y| |data type|)) (|shares with| tiktak |the y|))" in text
        assert execute_script(text)[0].is_unsat

    def test_simple_symbols_stay_bare(self):
        assert symbol_text("share") == "share"
        assert symbol_text("=") == "="

    def test_a_bar_inside_a_name_is_refused(self):
        with pytest.raises(SMTLibError):
            symbol_text("a|b")


class TestParseScript:
    def test_full_round_trip_text(self):
        script = compile_validity_script([SHARE(E1, D1)], SHARE(E1, D1))
        reparsed = parse_script(script.to_text())
        kinds = [type(c).__name__ for c in reparsed.commands]
        assert kinds.count("Assert") == 2
        assert "CheckSat" in kinds

    def test_unknown_command_raises(self):
        with pytest.raises(SMTLibParseError):
            parse_script("(frobnicate)")

    def test_ignored_commands(self):
        script = parse_script("(set-info :status sat)\n(exit)\n(check-sat)")
        assert len(script.commands) == 1

    def test_push_pop_parsed(self):
        script = parse_script("(push 1)(pop 1)")
        assert [type(c).__name__ for c in script.commands] == ["Push", "Pop"]

    @pytest.mark.parametrize(
        "command",
        ["(declare-const a)", "(assert)", "(push x)", "((check-sat))"],
        ids=[
            "declare-const-without-sort",
            "empty-assert",
            "push-non-numeral",
            "list-as-command-name",
        ],
    )
    def test_malformed_command_names_its_line(self, command):
        with pytest.raises(SMTLibParseError) as info:
            parse_script(f"(set-logic UF)\n(check-sat)\n{command}\n(check-sat)")
        assert info.value.line == 3


class TestExecuteScript:
    def test_entailment_unsat(self):
        script = compile_validity_script(
            [forall(X, implies(SHARE(X, D1), SHARE(X, D1)))], SHARE(E1, D1)
        )
        # share(tiktak,email) does not follow from a tautology.
        results = execute_script(script.to_text())
        assert results[0].is_sat

    def test_fact_entails_itself(self):
        script = compile_validity_script([SHARE(E1, D1)], SHARE(E1, D1))
        results = execute_script(script.to_text())
        assert results[0].is_unsat

    def test_quantified_entailment(self):
        consent = PredicateSymbol("consent", (ENTITY,))
        policy = [forall(X, implies(SHARE(X, D1), consent(X))), SHARE(E1, D1)]
        script = compile_validity_script(policy, consent(E1))
        results = execute_script(script.to_text())
        assert results[0].is_unsat

    def test_existential_query(self):
        policy = [SHARE(E1, D1)]
        query = exists(X, SHARE(X, D1))
        results = execute_script(compile_validity_script(policy, query).to_text())
        assert results[0].is_unsat  # somebody shares email: entailed

    def test_push_pop_execution(self):
        text = """
        (set-logic UF)
        (declare-fun p () Bool)
        (assert p)
        (check-sat)
        (push 1)
        (assert (not p))
        (check-sat)
        (pop 1)
        (check-sat)
        """
        results = execute_script(text)
        assert [r.status.value for r in results] == ["sat", "unsat", "sat"]

    def test_check_sat_assuming_execution(self):
        text = """
        (set-logic UF)
        (declare-fun p () Bool)
        (declare-fun q () Bool)
        (assert (=> p q))
        (check-sat-assuming (p (not q)))
        (check-sat-assuming (p))
        """
        results = execute_script(text)
        assert results[0].is_unsat
        assert results[1].is_sat

    def test_equality_theory_via_text(self):
        text = """
        (set-logic UF)
        (declare-sort E 0)
        (declare-const a E)
        (declare-const b E)
        (declare-fun p (E) Bool)
        (assert (= a b))
        (assert (p a))
        (assert (not (p b)))
        (check-sat)
        """
        results = execute_script(text)
        assert results[0].is_unsat

    @pytest.mark.parametrize("certify", [False, True])
    def test_quoted_name_holding_a_comma_keeps_its_equality(self, certify):
        text = """
        (declare-sort Entity 0)
        (declare-const |a,b| Entity)
        (declare-const c Entity)
        (declare-fun p (Entity) Bool)
        (assert (= |a,b| c))
        (assert (p |a,b|))
        (assert (not (p c)))
        (check-sat)
        """
        (result,) = execute_script(text, certify=certify)
        assert result.is_unsat
        if certify:
            assert result.certificate.certified

    @pytest.mark.parametrize("certify", [False, True])
    def test_quoted_names_printing_as_applications_stay_constants(self, certify):
        # |f(a)|, |f(a| and |f(b| are free constants, not f applied to a
        # or b: a = b makes none of them equal to another or to (f a).
        text = """
        (declare-sort E 0)
        (declare-const a E)
        (declare-const b E)
        (declare-const |f(a)| E)
        (declare-const |f(a| E)
        (declare-const |f(b| E)
        (declare-fun f (E) E)
        (declare-fun p (E) Bool)
        (assert (= a b))
        (assert (p |f(a)|))
        (assert (not (p (f a))))
        (assert (p |f(a|))
        (assert (not (p |f(b|)))
        (check-sat)
        (assert (= |f(a)| (f b)))
        (check-sat)
        """
        results = execute_script(text, certify=certify)
        assert [r.status.value for r in results] == ["sat", "unsat"]
        if certify:
            assert all(r.certificate.certified for r in results)

    def test_quoted_and_bare_spellings_name_one_constant(self):
        declared_twice = """
        (declare-sort E 0)
        (declare-const a E)
        (declare-const |a| E)
        (declare-fun p (E) Bool)
        (assert (p |a|))
        (assert (not (p a)))
        (check-sat)
        """
        assert execute_script(declared_twice)[0].is_unsat
        declared_bare = """
        (declare-sort E 0)
        (declare-const a E)
        (declare-fun p (E) Bool)
        (assert (p |a|))
        (check-sat)
        """
        assert execute_script(declared_bare)[0].is_sat


class TestScriptObject:
    def test_comment_rendering(self):
        script = SMTScript()
        script.add(CheckSat(), comment="the check")
        assert "; the check" in script.to_text()

    def test_declare_fun_rendering(self):
        cmd = DeclareFun("share", ("Entity", "Data"), "Bool")
        assert str(cmd) == "(declare-fun share (Entity Data) Bool)"

    def test_declare_const_rendering(self):
        assert str(DeclareConst("a", "Entity")) == "(declare-const a Entity)"

    def test_assert_rendering(self):
        assert str(Assert(["not", "p"])) == "(assert (not p))"


class TestGetModelGetValue:
    def test_get_model_output(self):
        from repro.smtlib import execute_script_verbose

        text = """
        (set-logic UF)
        (declare-fun p () Bool)
        (assert p)
        (check-sat)
        (get-model)
        """
        results, outputs = execute_script_verbose(text)
        assert results[0].is_sat
        assert "(define-fun p () Bool true)" in outputs

    def test_get_value_output(self):
        from repro.smtlib import execute_script_verbose

        text = """
        (set-logic UF)
        (declare-fun p () Bool)
        (declare-fun q () Bool)
        (assert (=> p q))
        (assert p)
        (check-sat)
        (get-value (q))
        """
        _results, outputs = execute_script_verbose(text)
        assert outputs == ["(q true)"]

    def test_get_model_without_sat_answer(self):
        from repro.smtlib import execute_script_verbose

        text = """
        (set-logic UF)
        (declare-fun p () Bool)
        (assert p)
        (assert (not p))
        (check-sat)
        (get-model)
        """
        results, outputs = execute_script_verbose(text)
        assert results[0].is_unsat
        assert outputs == ['(error "no model available")']

    @pytest.mark.parametrize("certify", [False, True])
    def test_get_model_with_quoted_names_holding_commas_and_parens(self, certify):
        # Both axioms are grounded over their senders only, so the model is
        # completed; that must go by the atoms, not by their printed keys.
        from repro.smtlib import execute_script_verbose
        text = """
        (declare-sort Entity 0)
        (declare-sort Data 0)
        (declare-const |a,(b| Entity)
        (declare-const c Entity)
        (declare-const d Data)
        (declare-const e Data)
        (declare-fun p (Entity Data) Bool)
        (declare-fun |q(r,| (Entity Data) Bool)
        (assert (p |a,(b| d))
        (assert (|q(r,| c d))
        (assert (not (p c e)))
        (assert (forall ((x Entity)) (=> (p x d) (p x e))))
        (assert (forall ((x Entity)) (=> (|q(r,| x d) (|q(r,| x e))))
        (check-sat)
        (get-model)
        """
        results, outputs = execute_script_verbose(text, certify=certify)
        assert results[0].is_sat
        if certify:
            assert results[0].certificate.certified
        assert outputs == [
            "(define-fun p(c,e) () Bool false)",
            "(define-fun p(|a,(b|,d) () Bool true)",
            "(define-fun p(|a,(b|,e) () Bool true)",
            "(define-fun |q(r,|(c,d) () Bool true)",
            "(define-fun |q(r,|(c,e) () Bool true)",
        ]

    def test_get_model_round_trips_through_parser(self):
        from repro.smtlib import parse_script
        from repro.smtlib.script import GetModel, GetValue

        script = parse_script("(get-model)(get-value (x))")
        assert isinstance(script.commands[0], GetModel)
        assert isinstance(script.commands[1], GetValue)


def _reference_tokens(text):
    """The reader's earlier character loop, with its two line faults mended:
    a string's newlines are counted, and (below) an unclosed ``(`` names its
    line.  It yields ``(token, line)`` pairs lazily, so the first fault in
    reading order is the one raised.
    """
    from repro.smtlib.ast import _quoted_symbol

    line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line
            i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SMTLibParseError("unterminated quoted symbol", line)
            yield _quoted_symbol(text[i : j + 1]), line
            line += text.count("\n", i, j)
            i = j + 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise SMTLibParseError("unterminated string literal", line)
            yield text[i : j + 1], line
            line += text.count("\n", i, j)
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            yield text[i:j], line
            i = j


def _reference_parse(text):
    exprs = []
    stack = []
    for token, line in _reference_tokens(text):
        if token == "(":
            stack.append(([], line))
        elif token == ")":
            if not stack:
                raise SMTLibParseError("unbalanced ')'", line)
            done, _ = stack.pop()
            (stack[-1][0] if stack else exprs).append(done)
        else:
            (stack[-1][0] if stack else exprs).append(token)
    if stack:
        raise SMTLibParseError("unbalanced '(' at end of input", stack[-1][1])
    return exprs


def _read(parse, text):
    """``parse(text)``, or the message of the error it raised."""
    try:
        return parse(text)
    except SMTLibParseError as exc:
        return str(exc)


class TestReaderAgainstLoop:
    """The regex reader reads what the character loop read, errors included."""

    @given(st.text(alphabet='()|"; \t\r\nab1=,', max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_random_text_reads_alike(self, text):
        assert _read(parse_sexprs, text) == _read(_reference_parse, text)

    def test_printed_scripts_read_alike(self):
        policy = [forall(X, implies(SHARE(X, D1), SHARE(X, D1))), SHARE(E1, D1)]
        text = compile_validity_script(policy, exists(X, SHARE(X, D1))).to_text()
        assert parse_sexprs(text) == _reference_parse(text)
