"""Unit tests for SMT-LIB generation, parsing, and execution."""

import pytest

from repro.errors import SMTLibParseError
from repro.fol import (
    DATA,
    ENTITY,
    Constant,
    PredicateSymbol,
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
        from repro.solver import CertificationConfig

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
        certification = CertificationConfig() if certify else None
        (result,) = execute_script(text, certification=certification)
        assert result.is_unsat
        if certify:
            assert result.certificate.certified

    @pytest.mark.parametrize("certify", [False, True])
    def test_quoted_names_printing_as_applications_stay_constants(self, certify):
        # |f(a)|, |f(a| and |f(b| are free constants, not f applied to a
        # or b: a = b makes none of them equal to another or to (f a).
        from repro.solver import CertificationConfig

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
        certification = CertificationConfig() if certify else None
        results = execute_script(text, certification=certification)
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
        from repro.solver import CertificationConfig

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
        certification = CertificationConfig() if certify else None
        results, outputs = execute_script_verbose(text, certification=certification)
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
