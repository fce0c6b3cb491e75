"""Independent re-validation of solver answers (the SAT side of trust-but-verify).

Everything in this module is deliberately written from scratch against the
*specifications* of the solver substrate — the canonical atom-key format
that names a model's atoms, Herbrand expansion over a declared universe,
congruence semantics for ``=`` — and shares no code with the CDCL search,
the clausifier, the production grounder, or the production congruence
closure.  A bug in any of those therefore cannot hide itself here.  Keys
are only rendered, to look atoms up in a model; an atom's structure is
read from its :class:`~repro.fol.formula.Predicate` tree, never parsed back
out of a key (quoted SMT-LIB names may hold commas and parentheses).

Four checks live here:

- :func:`clause_violations` — does the raw assignment satisfy the clauses
  the solver was actually given?
- :func:`evaluate_formula` — does the named-atom assignment satisfy the
  *original* (possibly quantified) FOL assertion, expanding quantifiers
  over the recorded universe snapshot on the fly?
- :func:`euf_consistent` — is an assignment of atoms consistent under
  equality-with-uninterpreted-functions?  (Also certifies theory-lemma
  premises for the proof checker.)
- :func:`expand` — an independent Herbrand expansion used to cross-check
  the production grounder node for node; :func:`grounding_mismatch` runs
  that cross-check, first reading off which entities an inheritance axiom
  was grounded at and checking them against :func:`senders`.

:func:`brute_force_status` combines the evaluator and the consistency
check into the reference enumerator the differential fuzzer compares the
real solver against.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SolverError
from repro.fol.formula import (
    And,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Predicate,
    TrueFormula,
)
from repro.fol.terms import Application, Constant, Sort, Term, Variable, symbol_key

#: Universe snapshot: declared constants per sort, in declaration order.
Domains = Mapping[Sort, tuple[Constant, ...]]

_EQ = "="


# ----------------------------------------------------------------------
# Canonical atom keys, re-derived from the documented format
# ("share(tiktok,email)", "=(a,f(b))", "flag", "p(|f(a)|)" for a constant
# whose name is not a simple symbol) rather than imported.
# ----------------------------------------------------------------------


def render_term(term: Term, env: Mapping[Variable, Constant] | None = None) -> str:
    """Canonical string of a ground term (variables resolved via ``env``)."""
    if isinstance(term, Variable):
        if env is None or term not in env:
            raise SolverError(f"model check hit unbound variable {term.name!r}")
        term = env[term]
    if isinstance(term, Constant):
        return symbol_key(term.name)
    if isinstance(term, Application):
        inner = ",".join(render_term(a, env) for a in term.args)
        return f"{term.symbol.name}({inner})"
    raise SolverError(f"model check cannot render term {term!r}")


def render_atom(atom: Predicate, env: Mapping[Variable, Constant] | None = None) -> str:
    """Canonical key of a (possibly env-resolved) atom."""
    if not atom.args:
        return atom.symbol.name
    inner = ",".join(render_term(a, env) for a in atom.args)
    return f"{atom.symbol.name}({inner})"


# ----------------------------------------------------------------------
# CNF-level check
# ----------------------------------------------------------------------


def clause_violations(
    clauses: Iterable[tuple[int, ...]], model: Mapping[int, bool]
) -> list[tuple[int, ...]]:
    """The clauses ``model`` fails to satisfy (empty list = all satisfied).

    Variables absent from ``model`` count as False, matching the solver's
    model extraction.
    """
    violated: list[tuple[int, ...]] = []
    for clause in clauses:
        for lit in clause:
            value = model.get(abs(lit), False)
            if value == (lit > 0):
                break
        else:
            violated.append(clause)
    return violated


# ----------------------------------------------------------------------
# FOL-level check: evaluate the original assertion under the named model
# ----------------------------------------------------------------------


def evaluate_formula(
    formula: Formula, assignment: Mapping[str, bool], domains: Domains
) -> bool:
    """Truth value of ``formula`` under ``assignment``, quantifiers expanded.

    Atoms missing from ``assignment`` default to False.  That is sound
    here because simplification is equivalence-preserving: an atom the
    solver never saw cannot influence the formula's truth value, so any
    default completes the model without changing the outcome.
    """

    def ev(node: Formula, env: dict[Variable, Constant]) -> bool:
        if isinstance(node, TrueFormula):
            return True
        if isinstance(node, FalseFormula):
            return False
        if isinstance(node, Predicate):
            return assignment.get(render_atom(node, env), False)
        if isinstance(node, Not):
            return not ev(node.operand, env)
        if isinstance(node, And):
            return all(ev(op, env) for op in node.operands)
        if isinstance(node, Or):
            return any(ev(op, env) for op in node.operands)
        if isinstance(node, Implies):
            return (not ev(node.antecedent, env)) or ev(node.consequent, env)
        if isinstance(node, Iff):
            return ev(node.left, env) == ev(node.right, env)
        if isinstance(node, Forall):
            domain = domains.get(node.variable.sort, ())
            return all(ev(node.body, {**env, node.variable: c}) for c in domain)
        if isinstance(node, Exists):
            domain = domains.get(node.variable.sort, ())
            return any(ev(node.body, {**env, node.variable: c}) for c in domain)
        raise SolverError(f"model check cannot evaluate node {node!r}")

    return ev(formula, {})


# ----------------------------------------------------------------------
# Independent Herbrand expansion (grounding cross-check)
# ----------------------------------------------------------------------


def expand(formula: Formula, domains: Domains) -> Formula:
    """Quantifier-free expansion of ``formula`` over ``domains``.

    Mirrors the *specification* of the production grounder — forall
    becomes the conjunction of the body over the variable's domain in
    declaration order, exists the disjunction, empty domains collapse to
    the vacuous constant — but is implemented independently (environment
    passing instead of substitute-then-recurse).  Certification compares
    its output tree against the production grounder's, node for node.
    """

    def subst_term(term: Term, env: dict[Variable, Constant]) -> Term:
        if isinstance(term, Variable):
            if term in env:
                return env[term]
            return term
        if isinstance(term, Application):
            return Application(
                term.symbol, tuple(subst_term(a, env) for a in term.args)
            )
        return term

    def walk(node: Formula, env: dict[Variable, Constant]) -> Formula:
        if isinstance(node, (TrueFormula, FalseFormula)):
            return node
        if isinstance(node, Predicate):
            if not env:
                return node
            return Predicate(
                node.symbol, tuple(subst_term(a, env) for a in node.args)
            )
        if isinstance(node, Not):
            return Not(walk(node.operand, env))
        if isinstance(node, And):
            return And(tuple(walk(op, env) for op in node.operands))
        if isinstance(node, Or):
            return Or(tuple(walk(op, env) for op in node.operands))
        if isinstance(node, Implies):
            return Implies(walk(node.antecedent, env), walk(node.consequent, env))
        if isinstance(node, Iff):
            return Iff(walk(node.left, env), walk(node.right, env))
        if isinstance(node, (Forall, Exists)):
            domain = domains.get(node.variable.sort, ())
            instances = [
                walk(node.body, {**env, node.variable: c}) for c in domain
            ]
            if isinstance(node, Forall):
                return And(tuple(instances)) if instances else TrueFormula()
            return Or(tuple(instances)) if instances else FalseFormula()
        raise SolverError(f"model check cannot expand node {node!r}")

    return walk(formula, {})


def _axiom_action(formula: Formula) -> str | None:
    """``a`` for ``forall x. a(x, c1) -> a(x, c2)`` with constants c1, c2."""
    if not isinstance(formula, Forall):
        return None
    body = formula.body
    if not isinstance(body, Implies):
        return None
    left, right = body.antecedent, body.consequent
    if not isinstance(left, Predicate) or not isinstance(right, Predicate):
        return None
    name = left.symbol.name
    if name == _EQ or right.symbol.name != name:
        return None
    for atom in (left, right):
        if not atom.args or atom.args[0] != formula.variable:
            return None
        if any(not isinstance(arg, Constant) for arg in atom.args[1:]):
            return None
    return name


def senders(formulas: Iterable[Formula]) -> dict[str, set[str] | None] | None:
    """Per action, the names of the entities that can perform it.

    An entity can perform ``a`` when ``a(e, ...)`` occurs positively (an
    ``Iff`` side counts as positive) in a formula that is not an
    inheritance axiom.  ``None`` for an action means every entity: a
    positive occurrence has a variable or function term first.  ``None``
    overall means no action is restricted: an equality atom occurs.
    Actions never used positively are absent (no entity).
    """
    found: dict[str, set[str] | None] = {}

    def visit(node: Formula, polarities: frozenset[bool]) -> bool:
        if isinstance(node, Predicate):
            if node.symbol.name == _EQ:
                return False
            if True in polarities and node.args:
                name, first = node.symbol.name, node.args[0]
                if not isinstance(first, Constant):
                    found[name] = None
                elif found.setdefault(name, set()) is not None:
                    found[name].add(first.name)
            return True
        if isinstance(node, Not):
            return visit(node.operand, frozenset(not p for p in polarities))
        if isinstance(node, (And, Or)):
            return all(visit(op, polarities) for op in node.operands)
        if isinstance(node, Implies):
            flipped = frozenset(not p for p in polarities)
            return visit(node.antecedent, flipped) and visit(
                node.consequent, polarities
            )
        if isinstance(node, Iff):
            both = frozenset((True, False))
            return visit(node.left, both) and visit(node.right, both)
        if isinstance(node, (Forall, Exists)):
            return visit(node.body, polarities)
        return True

    for formula in formulas:
        if _axiom_action(formula) is not None:
            continue
        if not visit(formula, frozenset((True,))):
            return None
    return found


def grounding_mismatch(
    formula: Formula,
    grounded: Formula | None,
    domains: Domains,
    senders: Mapping[str, set[str] | None] | None,
) -> str | None:
    """Why ``grounded`` is not a faithful grounding of ``formula``, if it is not.

    An inheritance axiom whose action is restricted (see :func:`senders`)
    may be grounded at a subset of its domain: each conjunct must be the
    body at a distinct declared entity, in declaration order, and the
    entities must include every one that can perform the action.  Any
    other formula must equal its full :func:`expand`.
    """
    action = _axiom_action(formula)
    required = None
    if action is not None and senders is not None:
        required = senders.get(action, set())
    if required is not None:
        variable = formula.variable  # type: ignore[union-attr]
        used = _instance_entities(grounded)
        if used is None:
            return (
                f"grounding mismatch: assertion {formula} was not grounded "
                "to a conjunction of its instances"
            )
        declared = domains.get(variable.sort, ())
        for constant in declared:
            if constant.name in required and constant.name not in used:
                return (
                    f"grounding mismatch: assertion {formula} skips entity "
                    f"{constant.name}, which can perform {action}"
                )
        domains = {
            **domains,
            variable.sort: tuple(c for c in declared if c.name in used),
        }
    if expand(formula, domains) != grounded:
        return (
            "grounding mismatch: independent expansion of "
            f"assertion {formula} disagrees with the grounder"
        )
    return None


def _instance_entities(grounded: Formula | None) -> set[str] | None:
    """First-argument constants of the antecedents of a grounded axiom."""
    if isinstance(grounded, TrueFormula):
        return set()
    if not isinstance(grounded, (And, Or)):
        return None
    names: set[str] = set()
    for instance in grounded.operands:
        if not isinstance(instance, Implies) or not isinstance(
            instance.antecedent, Predicate
        ):
            return None
        args = instance.antecedent.args
        if not args or not isinstance(args[0], Constant):
            return None
        names.add(args[0].name)
    return names


# ----------------------------------------------------------------------
# Independent EUF consistency check
# ----------------------------------------------------------------------


def euf_consistent(assignment: Iterable[tuple[Predicate, bool]]) -> bool:
    """Is the atom assignment consistent under EUF semantics?

    A from-scratch congruence check over the atoms' ground term trees:
    build equivalence classes of terms under the asserted equalities,
    close them under congruence (same head, pairwise-equal arguments),
    then reject violated disequalities and congruent predicate
    applications with opposite truth values.
    """
    equalities: list[tuple[Term, Term]] = []
    disequalities: list[tuple[Term, Term]] = []
    applications: list[tuple[Predicate, bool]] = []
    terms: set[Term] = set()

    def collect(term: Term) -> None:
        terms.add(term)
        if isinstance(term, Application):
            for arg in term.args:
                collect(arg)

    for atom, value in assignment:
        for arg in atom.args:
            collect(arg)
        if atom.symbol.name == _EQ and len(atom.args) == 2:
            (equalities if value else disequalities).append(atom.args)
        else:
            applications.append((atom, value))

    parent: dict[Term, Term] = {t: t for t in terms}

    def find(t: Term) -> Term:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a: Term, b: Term) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b in equalities:
        union(a, b)

    compound = [t for t in terms if isinstance(t, Application)]
    changed = True
    while changed:
        changed = False
        signatures: dict[tuple[str, tuple[Term, ...]], Term] = {}
        for t in compound:
            sig = (t.symbol.name, tuple(find(a) for a in t.args))
            other = signatures.get(sig)
            if other is None:
                signatures[sig] = t
            elif find(other) != find(t):
                union(other, t)
                changed = True

    for a, b in disequalities:
        if find(a) == find(b):
            return False

    by_signature: dict[tuple[str, tuple[Term, ...]], bool] = {}
    for atom, value in applications:
        sig = (atom.symbol.name, tuple(find(a) for a in atom.args))
        if by_signature.setdefault(sig, value) != value:
            return False
    return True


# ----------------------------------------------------------------------
# Brute-force reference enumerator (differential-fuzzing oracle)
# ----------------------------------------------------------------------


def collect_atoms(formula: Formula, domains: Domains) -> dict[str, Predicate]:
    """Every ground atom of the expanded formula, by its key."""
    atoms: dict[str, Predicate] = {}

    def walk(node: Formula) -> None:
        if isinstance(node, Predicate):
            atoms[render_atom(node)] = node
        elif isinstance(node, Not):
            walk(node.operand)
        elif isinstance(node, (And, Or)):
            for op in node.operands:
                walk(op)
        elif isinstance(node, Implies):
            walk(node.antecedent)
            walk(node.consequent)
        elif isinstance(node, Iff):
            walk(node.left)
            walk(node.right)

    walk(expand(formula, domains))
    return atoms


def brute_force_status(
    formulas: list[Formula], domains: Domains, *, max_atoms: int = 20
) -> str:
    """Reference answer ("sat"/"unsat") by exhaustive model enumeration.

    Enumerates every assignment of the ground atoms appearing in the
    expanded formulas, keeping only EUF-consistent ones.  Exponential by
    construction — the fuzzer keeps formulas small; ``max_atoms`` guards
    against accidental blow-ups.
    """
    atoms: dict[str, Predicate] = {}
    for formula in formulas:
        atoms.update(collect_atoms(formula, domains))
    ordered = sorted(atoms)
    if len(ordered) > max_atoms:
        raise SolverError(
            f"brute-force reference over {len(ordered)} atoms refused "
            f"(cap {max_atoms})"
        )
    for bits in range(1 << len(ordered)):
        assignment = {
            key: bool(bits >> i & 1) for i, key in enumerate(ordered)
        }
        if not all(evaluate_formula(f, assignment, domains) for f in formulas):
            continue
        if not euf_consistent(
            (atoms[key], value) for key, value in assignment.items()
        ):
            continue
        return "sat"
    return "unsat"
