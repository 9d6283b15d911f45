"""The HL interpreter: core Scheme with symbolic values, run on the SVM.

This is the evaluator of Figure 8. Program state lives in the ambient
:class:`repro.vm.context.VM` (path condition π and assertion store α) and in
mutable :class:`~repro.sym.values.Box` cells, one per variable binding, so
``set!`` effects are merged at control-flow joins by the VM's write log —
the rule IF1 state merge.

Special forms: ``define``, ``define-symbolic``, ``define-symbolic*``,
``lambda``, ``if``, ``cond``, ``case``, ``when``, ``unless``, ``and``,
``or``, ``let``, ``let*``, ``letrec``, ``local``, ``begin``, ``set!``,
``quote``, ``assert``, ``choose``, ``for/all``, and the four queries
``solve``, ``verify``, ``synthesize``, ``debug`` (with first-class models
and cores, §2.2).

HL values map to SVM values: immutable lists are tuples, symbols are
:class:`~repro.lang.reader.Symbol`, procedures are :class:`Closure` objects
(callable, so union application via rule AP2 just works), and symbolic
constants are :class:`~repro.sym.values.SymBool`/``SymInt``.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.expander import MacroExpander
from repro.lang.reader import Span, Symbol, read_all_spanned, write_form
from repro.obs import tracing
from repro.queries.debug import DebugSession, _decide_debug, relax
from repro.queries.outcome import Model
from repro.queries.queries import (
    _decide_solve, _decide_synthesize, _decide_verify, _query_span)
from repro.smt import terms as T
from repro.sym import ops
from repro.sym.fresh import fresh_bool, fresh_int
from repro.sym.values import Box, SymBool, SymInt, Union, default_int_width
from repro.vm import builtins as B
from repro.vm import context
from repro.vm.errors import AssertionFailure, SvmError
from repro.vm.mutable import Vector, box_get, box_set


class LangError(SvmError):
    """A malformed HL program or a runtime error outside assertion failure.

    When the error escapes :meth:`Interpreter.run`, the span of the
    top-level form being evaluated is attached (:attr:`span`) and its
    ``file:line:col`` label is prefixed to the message — deeper positions
    are the linter's job (:mod:`repro.analysis.lint`), but the top-level
    form is always known here.
    """

    span: "Span | None" = None

    def locate(self, span: "Span | None") -> None:
        """Attach `span` (first location wins; later frames keep it)."""
        if span is None or self.span is not None:
            return
        self.span = span
        if self.args:
            self.args = (f"{span.label()}: {self.args[0]}",) + self.args[1:]


class Env:
    """Lexical environment: symbol → Box frames with a parent chain."""

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Env"] = None):
        self.bindings: Dict[Symbol, Box] = {}
        self.parent = parent

    def lookup(self, name: Symbol) -> Box:
        env: Optional[Env] = self
        while env is not None:
            cell = env.bindings.get(name)
            if cell is not None:
                return cell
            env = env.parent
        raise LangError(f"unbound identifier: {name}")

    def define(self, name: Symbol, value) -> Box:
        cell = Box(value, name=str(name))
        self.bindings[name] = cell
        return cell


class Closure:
    """A user procedure. Callable so rule AP2's union application works."""

    __slots__ = ("params", "rest", "body", "env", "interp", "name")

    def __init__(self, params: List[Symbol], rest: Optional[Symbol],
                 body: List, env: Env, interp: "Interpreter",
                 name: str = "lambda"):
        self.params = params
        self.rest = rest
        self.body = body
        self.env = env
        self.interp = interp
        self.name = name

    def __call__(self, *args):
        if self.rest is None and len(args) != len(self.params):
            raise LangError(
                f"{self.name}: expected {len(self.params)} argument(s), "
                f"got {len(args)}")
        if self.rest is not None and len(args) < len(self.params):
            raise LangError(
                f"{self.name}: expected at least {len(self.params)} "
                f"argument(s), got {len(args)}")
        frame = Env(self.env)
        for name, value in zip(self.params, args):
            frame.define(name, value)
        if self.rest is not None:
            frame.define(self.rest, tuple(args[len(self.params):]))
        result = None
        for form in self.body:
            result = self.interp.eval(form, frame)
        return result

    def __repr__(self):
        return f"#<procedure:{self.name}>"


_S = Symbol  # shorthand for the special-form table below


class Interpreter:
    """Evaluates HL programs on the ambient SVM."""

    def __init__(self, int_width: Optional[int] = None,
                 prelude: bool = True):
        self.expander = MacroExpander()
        self.globals = Env()
        self.int_width = int_width or default_int_width()
        self._symbolic_constants: Dict[Symbol, object] = {}
        self._symbolic_streams: Dict[Symbol, int] = {}
        self._choose_cache: Dict[int, List[SymBool]] = {}
        self._debug_predicate: Optional[Callable] = None
        self._install_builtins()
        if sys.getrecursionlimit() < 100_000:
            sys.setrecursionlimit(100_000)
        if prelude:
            from repro.lang.prelude import PRELUDE_SOURCE
            self.run(PRELUDE_SOURCE)

    # ------------------------------------------------------------------
    # Program entry points
    # ------------------------------------------------------------------

    def run(self, source: str,
            filename: Optional[str] = None) -> List[object]:
        """Expand and evaluate all forms; returns each form's value.

        `filename` labels source positions in error messages (parse
        errors and located :class:`LangError` instances); the default
        label is ``<string>``.
        """
        results = []
        forms, srcmap = read_all_spanned(source, filename)
        for index, form in enumerate(forms):
            span = (srcmap.span_of(form) if isinstance(form, list)
                    else srcmap.span_at(forms, index))
            try:
                expanded = self.expander.expand(form)
                if expanded is None:  # a define-syntax, eaten by the expander
                    continue
                results.append(self.eval(expanded, self.globals))
            except LangError as error:
                error.locate(span)
                raise
        return results

    # ------------------------------------------------------------------
    # The evaluator
    # ------------------------------------------------------------------

    def eval(self, form, env: Env):
        value = self._eval(form, env)
        if self._debug_predicate is not None:
            value = relax(value, _form_label(form))
        return value

    def _eval(self, form, env: Env):
        if isinstance(form, Symbol):
            return box_get(env.lookup(form))
        if isinstance(form, (bool, int, str)) or form is None:
            return form
        if not isinstance(form, list) or not form:
            raise LangError(f"cannot evaluate {form!r}")
        head = form[0]
        if isinstance(head, Symbol):
            handler = _SPECIAL_FORMS.get(head)
            if handler is not None:
                return handler(self, form, env)
        # Application.
        proc = self.eval(head, env)
        args = [self.eval(arg, env) for arg in form[1:]]
        return B.apply_value(proc, *args)

    def _eval_body(self, body: List, env: Env):
        result = None
        for form in body:
            result = self.eval(form, env)
        return result

    # ------------------------------------------------------------------
    # Special forms
    # ------------------------------------------------------------------

    def _sf_quote(self, form, env):
        if len(form) != 2:
            raise LangError("quote takes exactly one argument")
        return _datum(form[1])

    def _sf_if(self, form, env):
        if len(form) not in (3, 4):
            raise LangError("if takes a test and one or two branches")
        test = self.eval(form[1], env)
        then_thunk = lambda: self.eval(form[2], env)
        alt_thunk = (lambda: self.eval(form[3], env)) if len(form) == 4 \
            else (lambda: None)
        return context.current().branch(test, then_thunk, alt_thunk)

    def _sf_cond(self, form, env):
        return self._eval_cond_clauses(form[1:], env)

    def _eval_cond_clauses(self, clauses, env):
        if not clauses:
            return None
        clause = clauses[0]
        if not isinstance(clause, list) or not clause:
            raise LangError(f"malformed cond clause: {clause!r}")
        if isinstance(clause[0], Symbol) and clause[0] == _S("else"):
            return self._eval_body(clause[1:], env)
        test = self.eval(clause[0], env)
        return context.current().branch(
            test,
            lambda: self._eval_body(clause[1:], env)
            if len(clause) > 1 else test,
            lambda: self._eval_cond_clauses(clauses[1:], env))

    def _sf_case(self, form, env):
        if len(form) < 2:
            raise LangError("case requires a scrutinee")
        scrutinee = self.eval(form[1], env)
        return self._eval_case_clauses(scrutinee, form[2:], env)

    def _eval_case_clauses(self, scrutinee, clauses, env):
        if not clauses:
            return None
        clause = clauses[0]
        if not isinstance(clause, list) or not clause:
            raise LangError(f"malformed case clause: {clause!r}")
        if isinstance(clause[0], Symbol) and clause[0] == _S("else"):
            return self._eval_body(clause[1:], env)
        if not isinstance(clause[0], list):
            raise LangError("case clause data must be a parenthesized list")
        hit = False
        for datum in clause[0]:
            hit = ops.or_(hit, ops.truthy(B.equal(scrutinee, _datum(datum))))
        return context.current().branch(
            hit,
            lambda: self._eval_body(clause[1:], env),
            lambda: self._eval_case_clauses(scrutinee, clauses[1:], env))

    def _sf_when(self, form, env):
        test = self.eval(form[1], env)
        return context.current().branch(
            test, lambda: self._eval_body(form[2:], env), lambda: None)

    def _sf_unless(self, form, env):
        test = self.eval(form[1], env)
        return context.current().branch(
            test, lambda: None, lambda: self._eval_body(form[2:], env))

    def _sf_and(self, form, env):
        def chain(exprs):
            if not exprs:
                return True
            value = self.eval(exprs[0], env)
            if len(exprs) == 1:
                return value
            return context.current().branch(
                value, lambda: chain(exprs[1:]), lambda: value)
        return chain(form[1:])

    def _sf_or(self, form, env):
        def chain(exprs):
            if not exprs:
                return False
            value = self.eval(exprs[0], env)
            if len(exprs) == 1:
                return value
            return context.current().branch(
                value, lambda: value, lambda: chain(exprs[1:]))
        return chain(form[1:])

    def _sf_define(self, form, env):
        if len(form) < 3:
            raise LangError(f"malformed define: {form!r}")
        target = form[1]
        if isinstance(target, list):  # (define (f a b) body ...)
            if not target or not isinstance(target[0], Symbol):
                raise LangError(f"malformed define header: {target!r}")
            name = target[0]
            closure = self._make_lambda(target[1:], form[2:], env, str(name))
            env.define(name, closure)
            return None
        if not isinstance(target, Symbol):
            raise LangError(f"define target must be an identifier: {target!r}")
        if len(form) != 3:
            raise LangError("define takes exactly one value expression")
        value = self.eval(form[2], env)
        if isinstance(value, Closure) and value.name == "lambda":
            value.name = str(target)
        env.define(target, value)
        return None

    def _sf_define_symbolic(self, form, env):
        name, kind = self._parse_define_symbolic(form)
        cached = self._symbolic_constants.get(name)
        if cached is None:
            # DEF1: the constant is named by the identifier and re-used on
            # every subsequent evaluation of this form.
            if kind == "boolean":
                cached = fresh_bool(str(name), numbered=False)
            else:
                cached = fresh_int(str(name), width=self.int_width,
                                   numbered=False)
            self._symbolic_constants[name] = cached
        env.define(name, cached)
        return None

    def _sf_define_symbolic_star(self, form, env):
        name, kind = self._parse_define_symbolic(form)
        index = self._symbolic_streams.get(name, 0)
        self._symbolic_streams[name] = index + 1
        label = f"{name}${index}"
        if kind == "boolean":
            value = fresh_bool(label, numbered=False)
        else:
            value = fresh_int(label, width=self.int_width, numbered=False)
        env.define(name, value)
        return None

    def _parse_define_symbolic(self, form) -> Tuple[Symbol, str]:
        if len(form) != 3 or not isinstance(form[1], Symbol):
            raise LangError(f"malformed define-symbolic: {form!r}")
        type_form = form[2]
        if not isinstance(type_form, Symbol) or \
                type_form not in (_S("number?"), _S("boolean?")):
            raise LangError(
                "define-symbolic supports only number? and boolean? (Fig. 7)")
        return form[1], "boolean" if type_form == _S("boolean?") else "number"

    def _sf_lambda(self, form, env):
        if len(form) < 3:
            raise LangError(f"malformed lambda: {form!r}")
        return self._make_lambda(form[1], form[2:], env, "lambda")

    def _make_lambda(self, params_form, body, env, name) -> Closure:
        if isinstance(params_form, Symbol):  # (lambda args body)
            return Closure([], params_form, body, env, self, name)
        params: List[Symbol] = []
        rest: Optional[Symbol] = None
        expecting_rest = False
        for param in params_form:
            if isinstance(param, Symbol) and param == _S("."):
                expecting_rest = True
                continue
            if not isinstance(param, Symbol):
                raise LangError(f"bad parameter: {param!r}")
            if expecting_rest:
                rest = param
            else:
                params.append(param)
        return Closure(params, rest, body, env, self, name)

    def _sf_let(self, form, env):
        if len(form) >= 3 and isinstance(form[1], Symbol):
            # Named let: (let loop ([x e] ...) body ...)
            name, bindings, body = form[1], form[2], form[3:]
            params = [b[0] for b in bindings]
            args = [self.eval(b[1], env) for b in bindings]
            loop_env = Env(env)
            closure = Closure(params, None, list(body), loop_env, self,
                              str(name))
            loop_env.define(name, closure)
            return closure(*args)
        bindings, body = form[1], form[2:]
        frame = Env(env)
        for binding in bindings:
            frame.define(binding[0], self.eval(binding[1], env))
        return self._eval_body(body, frame)

    def _sf_let_star(self, form, env):
        bindings, body = form[1], form[2:]
        frame = env
        for binding in bindings:
            value = self.eval(binding[1], frame)
            frame = Env(frame)
            frame.define(binding[0], value)
        return self._eval_body(body, Env(frame))

    def _sf_letrec(self, form, env):
        bindings, body = form[1], form[2:]
        frame = Env(env)
        for binding in bindings:
            frame.define(binding[0], None)
        for binding in bindings:
            box_set(frame.lookup(binding[0]), self.eval(binding[1], frame))
        return self._eval_body(body, frame)

    def _sf_local(self, form, env):
        # (local [definitions ...] body ...), used by choose's expansion.
        definitions, body = form[1], form[2:]
        frame = Env(env)
        for definition in definitions:
            self.eval(definition, frame)
        return self._eval_body(body, frame)

    def _sf_begin(self, form, env):
        return self._eval_body(form[1:], env)

    def _sf_set_bang(self, form, env):
        if len(form) != 3 or not isinstance(form[1], Symbol):
            raise LangError(f"malformed set!: {form!r}")
        box_set(env.lookup(form[1]), self.eval(form[2], env))
        return None

    def _sf_assert(self, form, env):
        if len(form) not in (2, 3):
            raise LangError("assert takes a value and an optional message")
        value = self.eval(form[1], env)
        message = form[2] if len(form) == 3 else write_form(form)
        context.current().assert_(value, str(message))
        return None

    def _sf_choose(self, form, env):
        """(choose e ..+): a sketch hole selecting one of the expressions.

        Each syntactic occurrence gets its own stable selector constants
        (the paper implements this with define-symbolic so re-evaluating
        the same occurrence picks the same expression).
        """
        expressions = form[1:]
        if not expressions:
            raise LangError("choose requires at least one expression")
        cached = self._choose_cache.get(id(form))
        if cached is None:
            cached = (form, [fresh_bool("choose") for _ in expressions[:-1]])
            self._choose_cache[id(form)] = cached
        _, selectors = cached
        def pick(index: int):
            if index == len(expressions) - 1:
                return self.eval(expressions[index], env)
            return context.current().branch(
                selectors[index],
                lambda: self.eval(expressions[index], env),
                lambda: pick(index + 1))
        return pick(0)

    def _sf_for_all(self, form, env):
        # (for/all ([v expr]) body ...): symbolic reflection (§2.3).
        if len(form) < 3 or not isinstance(form[1], list) or \
                len(form[1]) != 1 or len(form[1][0]) != 2:
            raise LangError("for/all takes a single [id expr] binding")
        variable, expr = form[1][0]
        value = self.eval(expr, env)
        def run(component):
            frame = Env(env)
            frame.define(variable, component)
            return self._eval_body(form[2:], frame)
        return B.union_apply(run, value)

    # ------------------------------------------------------------------
    # Queries (§2.2; rule SQ1 and its variants)
    # ------------------------------------------------------------------

    def _collect_assertions(
            self, expr_form, env) -> Tuple[bool, List[T.Term], List[T.Term]]:
        """Evaluate under the current VM; returns (failed, α_before, α_new).

        α_before are the assumptions accumulated before the query (input
        preconditions, e.g. the bounds guards emitted while constructing
        symbolic words); α_new are the assertions produced by the queried
        expression itself. The store is restored afterwards (rule SQ1).
        """
        vm = context.current()
        mark = len(vm.assertions)
        failed = False
        try:
            self.eval(expr_form, env)
        except AssertionFailure:
            failed = True
        before = vm.assertions[:mark]
        new = vm.assertions[mark:]
        del vm.assertions[mark:]  # SQ1 restores the assertion store
        return failed, before, new

    def _sf_solve(self, form, env):
        # SQ1: a model of *all* assertions, prior and new alike.
        if len(form) != 2:
            raise LangError("solve takes exactly one expression")
        with tracing(), _query_span("query.solve") as span:
            failed, before, new = self._collect_assertions(form[1], env)
            span.outcome = outcome = _decide_solve(
                context.current(), failed, before + new)
        return outcome.model if outcome else False

    def _sf_verify(self, form, env):
        # Prior assertions are assumptions; find a model failing a new one.
        if len(form) != 2:
            raise LangError("verify takes exactly one expression")
        with tracing(), _query_span("query.verify") as span:
            failed, before, new = self._collect_assertions(form[1], env)
            span.outcome = outcome = _decide_verify(
                context.current(), failed, before, new)
        return outcome.model if outcome else False

    def _sf_synthesize(self, form, env):
        # (synthesize [input-expr] expr): ∃holes ∀inputs. pre ⇒ post.
        if len(form) != 3 or not isinstance(form[1], list) or len(form[1]) != 1:
            raise LangError("synthesize takes [input] and an expression")
        with tracing(), _query_span("query.synthesize") as span:
            input_value = self.eval(form[1][0], env)
            failed, before, new = self._collect_assertions(form[2], env)
            span.outcome = outcome = _decide_synthesize(
                context.current(), failed, before, new,
                _value_terms(input_value))
        return outcome.model if outcome else False

    def _sf_debug(self, form, env):
        # (debug [type-predicate] expr)
        if len(form) != 3 or not isinstance(form[1], list) or len(form[1]) != 1:
            raise LangError("debug takes [predicate] and an expression")
        predicate_value = self.eval(form[1][0], env)
        if not callable(predicate_value):
            raise LangError("debug's predicate must be a procedure")
        def predicate(value):
            result = predicate_value(value)
            return result is True
        previous = self._debug_predicate
        self._debug_predicate = predicate
        with tracing(), _query_span("query.debug") as span, \
                DebugSession(predicate) as session:
            try:
                failed, before, new = self._collect_assertions(form[2], env)
            finally:
                self._debug_predicate = previous
            span.outcome = outcome = _decide_debug(
                context.current(), failed, before + new, session)
        if not outcome:
            raise LangError(f"debug: {outcome.message}")
        return tuple(outcome.core)

    def generate_forms(self, model):
        """The paper's ``generate-forms``: resolve every evaluated ``choose``
        site under `model`, returning ((site chosen) ...) pairs of source
        forms (as quoted data)."""
        if not isinstance(model, Model):
            raise LangError("generate-forms needs a model")
        out = []
        for form, selectors in self._choose_cache.values():
            expressions = form[1:]
            chosen = expressions[-1]
            for index, selector in enumerate(selectors):
                if model.evaluate(selector):
                    chosen = expressions[index]
                    break
            out.append((_datum(form), _datum(chosen)))
        return tuple(out)

    # ------------------------------------------------------------------
    # Builtin environment
    # ------------------------------------------------------------------

    def _install_builtins(self) -> None:
        from repro.lang.prims import make_builtins
        for name, value in make_builtins(self).items():
            self.globals.define(Symbol(name), value)


def _form_label(form) -> str:
    """Debug-core label: the source text of the relaxed expression."""
    return write_form(form)


def _datum(form):
    """Convert a quoted source form to an HL runtime value."""
    if isinstance(form, list):
        return tuple(_datum(item) for item in form)
    return form


def _value_terms(value) -> List[T.Term]:
    """All symbolic-constant terms contained in an SVM value."""
    seen: List[T.Term] = []
    def walk(v):
        if isinstance(v, (SymBool, SymInt)):
            for var in T.term_vars(v.term):
                if var not in seen:
                    seen.append(var)
        elif isinstance(v, tuple):
            for element in v:
                walk(element)
        elif isinstance(v, Union):
            for guard, member in v.entries:
                for var in T.term_vars(guard):
                    if var not in seen:
                        seen.append(var)
                walk(member)
        elif isinstance(v, Box):
            walk(v.value)
        elif isinstance(v, Vector):
            for cell in v.cells:
                walk(cell)
    walk(value)
    return seen


_SPECIAL_FORMS: Dict[Symbol, Callable] = {
    _S("quote"): Interpreter._sf_quote,
    _S("if"): Interpreter._sf_if,
    _S("cond"): Interpreter._sf_cond,
    _S("case"): Interpreter._sf_case,
    _S("when"): Interpreter._sf_when,
    _S("unless"): Interpreter._sf_unless,
    _S("and"): Interpreter._sf_and,
    _S("or"): Interpreter._sf_or,
    _S("define"): Interpreter._sf_define,
    _S("define-symbolic"): Interpreter._sf_define_symbolic,
    _S("define-symbolic*"): Interpreter._sf_define_symbolic_star,
    _S("lambda"): Interpreter._sf_lambda,
    _S("let"): Interpreter._sf_let,
    _S("let*"): Interpreter._sf_let_star,
    _S("letrec"): Interpreter._sf_letrec,
    _S("local"): Interpreter._sf_local,
    _S("begin"): Interpreter._sf_begin,
    _S("set!"): Interpreter._sf_set_bang,
    _S("assert"): Interpreter._sf_assert,
    _S("choose"): Interpreter._sf_choose,
    _S("for/all"): Interpreter._sf_for_all,
    _S("solve"): Interpreter._sf_solve,
    _S("verify"): Interpreter._sf_verify,
    _S("synthesize"): Interpreter._sf_synthesize,
    _S("debug"): Interpreter._sf_debug,
}


def run_program(source: str, int_width: Optional[int] = None) -> List[object]:
    """Run an HL program under a fresh VM; returns top-level form values."""
    interp = Interpreter(int_width=int_width)
    with context.VM():
        return interp.run(source)


def run_program_with_stats(source: str, int_width: Optional[int] = None):
    """Like :func:`run_program` but also returns the VM's statistics."""
    interp = Interpreter(int_width=int_width)
    with context.VM() as vm:
        vm.stats.start()
        try:
            results = interp.run(source)
        finally:
            vm.stats.stop()
        return results, vm.stats
