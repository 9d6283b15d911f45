"""The WEBSYNTH XPath model and its symbolic interpreter.

An XPath here is a sequence of tag tokens: ``("html", "body", "div",
"span")`` selects the text of every ``span`` reached along that tag path
from the root. The *symbolic* XPath of a synthesis query replaces each
token with a symbolic index into the page's token vocabulary.

The interpreter branches (through the SVM) on each token/tag comparison as
it recursively descends the concrete tree — so evaluation visits every
node once per path position, producing the large join counts and *zero*
unions of the paper's WEBSYNTH rows in Table 4 (the only merged values are
the boolean "reached" flags, which are primitives).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.sym import fresh_int, ops
from repro.sym.values import SymInt
from repro.vm import assert_, context
from repro.sdsl.websynth.tree import HtmlNode


def token_vocabulary(root: HtmlNode) -> Tuple[str, ...]:
    """All distinct tags of a page, in first-seen order — the XPath tokens."""
    seen: Dict[str, None] = {}
    for node in root.walk():
        seen.setdefault(node.tag, None)
    return tuple(seen)


class SymbolicXPath:
    """A length-k XPath whose tokens are symbolic vocabulary indices."""

    def __init__(self, vocabulary: Sequence[str], length: int):
        self.vocabulary = tuple(vocabulary)
        self.index = {tag: i for i, tag in enumerate(self.vocabulary)}
        self.tokens: List[SymInt] = [fresh_int(f"tok{i}")
                                     for i in range(length)]

    def assume_well_formed(self) -> None:
        """Every token indexes into the vocabulary (the preconditions)."""
        for token in self.tokens:
            assert_(ops.and_(ops.ge(token, 0),
                             ops.lt(token, len(self.vocabulary))),
                    "XPath token out of vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def decode(self, model) -> Tuple[str, ...]:
        return tuple(self.vocabulary[model.evaluate(token)]
                     for token in self.tokens)


def xpath_selects(node: HtmlNode, xpath: SymbolicXPath, position: int,
                  target_text: str):
    """Does the symbolic XPath, at `position`, reach `target_text` below `node`?

    Recursive descent over the concrete tree: self-finitizing, per §4.6 —
    the tree's shape bounds the unwinding, no explicit loop bound needed.
    """
    if position == len(xpath):
        return node.text == target_text
    vm = context.current()
    token = xpath.tokens[position]
    reached = False
    for child in node.children:
        child_matches = ops.num_eq(token, xpath.index[child.tag])
        below = vm.branch(
            child_matches,
            lambda child=child: xpath_selects(child, xpath, position + 1,
                                              target_text),
            lambda: False)
        reached = ops.or_(ops.truthy(reached), ops.truthy(below))
    return reached


def concrete_matches(node: HtmlNode, path: Sequence[str]) -> List[str]:
    """Run a concrete XPath, returning every selected text (for checking)."""
    if not path:
        return [node.text] if node.text is not None else []
    out: List[str] = []
    for child in node.children:
        if child.tag == path[0]:
            out.extend(concrete_matches(child, path[1:]))
    return out
