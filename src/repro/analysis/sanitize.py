"""The formula sanitizer: equivalence-preserving pre-solver rewrites.

:func:`sanitize` runs one abstract-interpretation pass
(:func:`repro.analysis.absint.analyze_term`) over a formula and rebuilds
it bottom-up, replacing every subterm whose abstraction is a *singleton*
with the corresponding constant. Because replacement happens through the
ordinary ``mk_*`` constructors, each planted constant cascades: a decided
``ite`` guard collapses the ``ite`` to one branch, a folded comparison
shrinks the boolean skeleton above it, and a whole assertion can reduce
to ``true`` (drop it) or ``false`` (the query is UNSAT before any SAT
work).

Soundness is by construction — a singleton abstraction means *every*
assignment gives the subterm that value, so swapping in the constant
preserves equivalence node-for-node — and, in certify mode, by test:
every rewritten root is re-evaluated against its original on concrete
assignments (exhaustively when the variable space is ≤ 2^12, on seeded
random samples otherwise) and a mismatch raises
:class:`~repro.solver.certify.CertificationError`. Downstream, answers
from a sanitizing solver still certify against the *original* assertions
(``SmtSolver`` keeps them), so the trust-but-verify chain of PR 4 extends
through this pass unchanged.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.events import BUS
from repro.smt import terms as T
from repro.analysis.absint import AbstractValue, analyze_term
from repro.analysis.domains import BFALSE, BTRUE, AbsVal

#: Exhaustive certify cross-check up to this many total variable bits
#: (2^12 = 4096 evaluations); larger spaces fall back to sampling.
EXHAUSTIVE_BITS = 12

#: Random concretizations per root when sampling.
SAMPLE_COUNT = 32


@dataclass
class SanitizeStats:
    """Counters for one or more sanitizer runs (accumulating)."""

    terms: int = 0               #: roots sanitized
    nodes: int = 0               #: DAG nodes analyzed
    rewrites: int = 0            #: subterms replaced by constants
    guards_decided: int = 0      #: ite guards statically decided
    comparisons_folded: int = 0  #: comparisons/equalities decided
    proved_true: int = 0         #: assertions reduced to `true`
    proved_false: int = 0        #: assertions reduced to `false`
    certified: int = 0           #: concrete cross-check evaluations

    def merge(self, other: "SanitizeStats") -> None:
        self.terms += other.terms
        self.nodes += other.nodes
        self.rewrites += other.rewrites
        self.guards_decided += other.guards_decided
        self.comparisons_folded += other.comparisons_folded
        self.proved_true += other.proved_true
        self.proved_false += other.proved_false
        self.certified += other.certified

    def row(self) -> Dict[str, int]:
        return {
            "terms": self.terms,
            "nodes": self.nodes,
            "rewrites": self.rewrites,
            "guards_decided": self.guards_decided,
            "comparisons_folded": self.comparisons_folded,
            "proved_true": self.proved_true,
            "proved_false": self.proved_false,
            "certified": self.certified,
        }


_CMP_OPS = frozenset((T.OP_EQ, T.OP_ULT, T.OP_ULE, T.OP_SLT, T.OP_SLE))


def _singleton_const(node: T.Term, value: AbstractValue) -> Optional[T.Term]:
    """The constant term for a singleton abstraction, else None."""
    if isinstance(value, AbsVal):
        if value.is_const():
            return T.bv_const(value.value(), node.width)
        return None
    if value is BTRUE:
        return T.TRUE
    if value is BFALSE:
        return T.FALSE
    return None


def sanitize(term: T.Term, *, certify: bool = False,
             rng: Optional[random.Random] = None,
             stats: Optional[SanitizeStats] = None) -> T.Term:
    """Rewrite `term` to an equivalent, no-larger formula.

    Pure with respect to the term DAG (interned terms are immutable);
    accumulates into `stats` when given. With ``certify=True`` every
    change is cross-checked on concrete assignments and a divergence
    raises ``CertificationError`` — the sanitizer analogue of PR 4's
    proof/model checks.
    """
    stats = stats if stats is not None else SanitizeStats()
    bus = BUS
    if bus.enabled:
        bus.begin("analysis.sanitize", "analysis", nodes=T.term_size(term))
    before = stats.row()
    result = None
    try:
        result = _sanitize_root(term, stats)
        if certify and result is not term:
            _cross_check(term, result, rng, stats)
        return result
    finally:
        if bus.enabled:
            delta = {key: value - before[key]
                     for key, value in stats.row().items()}
            bus.end("analysis.sanitize", "analysis",
                    changed=result is not None and result is not term,
                    **delta)


def _sanitize_root(term: T.Term, stats: SanitizeStats) -> T.Term:
    abstract = analyze_term(term)
    rebuild = T._rebuilders()
    out: Dict[T.Term, T.Term] = {}
    stats.terms += 1
    for node in T.postorder(term):
        stats.nodes += 1
        if node.is_const or node.is_var:
            out[node] = node
            continue
        replacement = _singleton_const(node, abstract[node])
        if replacement is not None:
            if replacement is not node:
                stats.rewrites += 1
                if node.op in _CMP_OPS:
                    stats.comparisons_folded += 1
            out[node] = replacement
            continue
        if node.op == T.OP_ITE and \
                abstract[node.args[0]] in (BTRUE, BFALSE):
            # The guard is decided but the surviving branch is not a
            # singleton: collapse to the branch directly.
            stats.guards_decided += 1
            branch = node.args[1 if abstract[node.args[0]] is BTRUE
                               else 2]
            out[node] = out[branch]
            stats.rewrites += 1
            continue
        new_args = tuple(out[arg] for arg in node.args)
        if all(new is old for new, old in zip(new_args, node.args)):
            out[node] = node
        else:
            rebuilt = rebuild[node.op](node, new_args)
            out[node] = rebuilt
            if rebuilt is not node:
                stats.rewrites += 1
    return out[term]


def sanitize_assertion(term: T.Term, *, certify: bool = False,
                       rng: Optional[random.Random] = None,
                       stats: Optional[SanitizeStats] = None) -> T.Term:
    """Sanitize an asserted formula and record proved-constant verdicts."""
    stats = stats if stats is not None else SanitizeStats()
    result = sanitize(term, certify=certify, rng=rng, stats=stats)
    if result is T.TRUE and term is not T.TRUE:
        stats.proved_true += 1
    elif result is T.FALSE and term is not T.FALSE:
        stats.proved_false += 1
        if BUS.enabled:
            BUS.instant("analysis.sanitize", "analysis",
                        proved_false=True, term=T.to_sexpr(term, max_depth=4))
    return result


def _cross_check(original: T.Term, rewritten: T.Term,
                 rng: Optional[random.Random],
                 stats: SanitizeStats) -> None:
    """Assert old == new on concrete assignments (certify mode)."""
    from repro.solver.certify import CertificationError

    variables = T.term_vars(original)
    total_bits = sum(max(1, var.width) for var in variables)
    if total_bits <= EXHAUSTIVE_BITS:
        assignments = _all_assignments(variables)
    else:
        rng = rng or random.Random(0xA11A5)
        assignments = []
        for _ in range(SAMPLE_COUNT):
            env = {}
            for var in variables:
                if var.sort is T.BOOL:
                    env[var] = bool(rng.getrandbits(1))
                else:
                    env[var] = rng.getrandbits(var.width)
            assignments.append(env)
    run_original = T.compile_term(original)
    run_rewritten = T.compile_term(rewritten)
    for env in assignments:
        stats.certified += 1
        old_val = run_original(env)
        new_val = run_rewritten(env)
        if old_val != new_val:
            raise CertificationError(
                "sanitize",
                f"rewrite changed the formula's value under {env!r}: "
                f"{old_val!r} became {new_val!r} "
                f"(original {original!r}, rewritten {rewritten!r})")


def _all_assignments(variables):
    """Every assignment over a small variable space, the first variable
    varying fastest."""
    order = variables[::-1]
    domains = [(False, True) if var.sort is T.BOOL else range(1 << var.width)
               for var in order]
    for values in itertools.product(*domains):
        yield dict(zip(order, values))
