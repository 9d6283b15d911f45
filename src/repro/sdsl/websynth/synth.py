"""The WEBSYNTH synthesis query: examples in, XPath out.

Following §5.1: the synthesizer asserts that a recursive XPath interpreter,
traversing the input tree along a symbolic XPath, reaches every example
datum — then asks ``solve`` for an interpretation of the XPath tokens. The
search space is t^d candidate XPaths (t tokens, depth d), but the SVM's
encoding is a conjunction of per-example reachability formulas over the
concrete tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.queries import Budget, ResourceReport, solve
from repro.vm import assert_
from repro.vm.stats import EvalStats
from repro.sdsl.websynth.tree import HtmlNode
from repro.sdsl.websynth.xpath import (
    SymbolicXPath,
    token_vocabulary,
    xpath_selects,
)


@dataclass
class WebSynthResult:
    """Outcome of one XPath synthesis query."""

    status: str                       # "sat" | "unsat" | "unknown"
    xpath: Optional[Tuple[str, ...]] = None
    stats: EvalStats = field(default_factory=EvalStats)
    report: Optional[ResourceReport] = None


def synthesize_xpath(root: HtmlNode, examples: Sequence[str],
                     length: Optional[int] = None,
                     budget: Optional[Budget] = None) -> WebSynthResult:
    """Synthesize an XPath selecting every example text of `root`.

    `length` defaults to the depth of the example nodes (the synthetic
    sites plant all records at one depth); the tree's own depth is the
    natural upper bound noted in the paper. `budget` bounds the query; on
    exhaustion the result is ``unknown`` with the trip's ``report``.
    """
    if length is None:
        length = _example_depth(root, examples[0])
        if length is None:
            return WebSynthResult(status="unsat")
    vocabulary = token_vocabulary(root)
    holder: dict = {}

    def program():
        xpath = SymbolicXPath(vocabulary, length)
        holder["xpath"] = xpath
        xpath.assume_well_formed()
        for example in examples:
            reached = xpath_selects(root, xpath, 0, example)
            assert_(reached, f"XPath must reach {example!r}")

    outcome = solve(program, budget=budget)
    if outcome.status == "sat":
        return WebSynthResult(status="sat",
                              xpath=holder["xpath"].decode(outcome.model),
                              stats=outcome.stats)
    return WebSynthResult(status=outcome.status, stats=outcome.stats,
                          report=outcome.report)


def _example_depth(root: HtmlNode, text: str) -> Optional[int]:
    """Depth (in edges) of the node holding `text`."""
    def search(node: HtmlNode, depth: int) -> Optional[int]:
        if node.text == text:
            return depth
        for child in node.children:
            found = search(child, depth + 1)
            if found is not None:
                return found
        return None
    return search(root, 0)
