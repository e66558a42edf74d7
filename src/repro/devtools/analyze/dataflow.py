"""Inter-procedural dataflow passes over the project call graph.

Three fixpoint computations feed the FAS011-FAS014 rules:

* **RNG taint** (:func:`compute_taint`): a function is *tainted* when it
  constructs randomness whose seed it does not fix internally — either a
  local RNG-factory call with no constant/seed-like arguments, or a call
  to a tainted callee that passes neither a seed-like expression nor
  constant arguments (both of which hand seed control back to the
  caller's data).
* **Impurity** (:func:`compute_impurity`): per-kind transitive facts
  (global-state mutation, wall-clock reads, ``print``) with a witness
  call chain, used to vet work units submitted to ``repro.parallel``.
* **Reachability** (:func:`reachable_from`): forward closure over call
  and/or reference edges, used for the deterministic-path scoping of
  FAS013 and the dead-export sweep of FAS014.

All passes iterate in sorted order, so witnesses — and therefore
messages and reports — are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.analyze.graph import CallSite, ProjectGraph, Site

#: The impurity kinds FAS012 forbids inside parallel work units.
IMPURITY_KINDS: Tuple[str, ...] = ("global-mutation", "wall-clock", "print")

_KIND_FIELDS = {
    "global-mutation": "global_mutations",
    "wall-clock": "wall_clock_reads",
    "print": "print_calls",
}

_KIND_VERBS = {
    "global-mutation": "mutates global state",
    "wall-clock": "reads the wall clock",
    "print": "calls print()",
}


@dataclass
class Taint:
    """Whether a function's output depends on uncontrolled randomness."""

    tainted: bool = False
    #: call chain from this function down to the raw source, e.g.
    #: ``["pipeline.run_demo", "helpers.fresh_stream", "default_rng()"]``
    witness: List[str] = field(default_factory=list)


@dataclass
class Impurity:
    """Per-kind transitive impurity facts with witness chains."""

    kinds: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def impure(self) -> bool:
        return bool(self.kinds)


def _discharges_taint(site: CallSite) -> bool:
    """A call controls its callee's randomness when it passes a
    seed-like expression or only literal constants."""
    return site.seed_args or (site.has_args and site.all_const)


def compute_taint(graph: ProjectGraph) -> Dict[str, Taint]:
    """Fixpoint RNG-taint propagation over the call graph."""
    taint: Dict[str, Taint] = {}
    for qualname in sorted(graph.functions):
        function = graph.functions[qualname]
        if function.rng_sources:
            source = function.rng_sources[0]
            taint[qualname] = Taint(
                True, [graph.display_name(qualname), source.detail]
            )
        else:
            taint[qualname] = Taint(False)
    edges = graph.call_edges
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.functions):
            if taint[qualname].tainted:
                continue
            for edge in edges.get(qualname, ()):
                if not edge.in_project:
                    continue
                callee = taint.get(edge.target)
                if callee is None or not callee.tainted:
                    continue
                if _discharges_taint(edge.site):
                    continue
                taint[qualname] = Taint(
                    True, [graph.display_name(qualname)] + callee.witness
                )
                changed = True
                break
    return taint


def compute_impurity(
    graph: ProjectGraph, exempt_prefixes: Sequence[str] = ()
) -> Dict[str, Impurity]:
    """Fixpoint impurity propagation (kinds tracked independently).

    ``exempt_prefixes`` names module prefixes whose functions are
    sanctioned side-effect sites (e.g. ``repro.obs``: the clock module
    *is* the one place allowed to read ``time.time``, and the console
    owns stream routing) — edges into them do not propagate impurity.
    """
    def exempt(qualname: str) -> bool:
        module = graph.owning_module.get(qualname, "")
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in exempt_prefixes
        )

    impurity: Dict[str, Impurity] = {}
    for qualname in sorted(graph.functions):
        function = graph.functions[qualname]
        local = Impurity()
        if not exempt(qualname):
            for kind in IMPURITY_KINDS:
                sites: List[Site] = getattr(function, _KIND_FIELDS[kind])
                if sites:
                    local.kinds[kind] = [
                        f"{graph.display_name(qualname)} ({sites[0].detail})"
                    ]
        impurity[qualname] = local
    edges = graph.call_edges
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.functions):
            if exempt(qualname):
                continue
            own = impurity[qualname]
            for edge in edges.get(qualname, ()):
                if not edge.in_project or exempt(edge.target):
                    continue
                callee = impurity.get(edge.target)
                if callee is None:
                    continue
                for kind in IMPURITY_KINDS:
                    if kind in callee.kinds and kind not in own.kinds:
                        own.kinds[kind] = [
                            graph.display_name(qualname)
                        ] + callee.kinds[kind]
                        changed = True
    return impurity


def reachable_from(
    graph: ProjectGraph,
    roots: Sequence[str],
    use_calls: bool = True,
    use_refs: bool = False,
) -> Dict[str, str]:
    """Forward closure: reachable qualname -> the root that reached it.

    Classes propagate to their methods (dynamic dispatch is approximated
    by "a reachable class keeps every method alive").  Roots may be
    function or class qualnames, or ``<module>:name`` pseudo-nodes.
    """
    call_edges = graph.call_edges if use_calls else {}
    ref_edges = graph.ref_edges if use_refs else {}
    origin: Dict[str, str] = {}
    queue: List[Tuple[str, str]] = []
    for root in sorted(set(roots)):
        queue.append((root, root))
    while queue:
        node, root = queue.pop(0)
        if node in origin:
            continue
        origin[node] = root
        neighbours: Set[str] = set()
        for edge in call_edges.get(node, ()):
            if edge.in_project:
                neighbours.add(edge.target)
        neighbours.update(ref_edges.get(node, ()))
        if node in graph.classes:
            klass = graph.classes[node]
            for method in klass.methods:
                neighbours.add(f"{node}.{method}")
        target_class = _class_of(graph, node)
        if target_class is not None:
            # Reaching a method keeps its class (and the class keeps its
            # other methods — see above) only when refs are in play;
            # call-only closures stay narrow for FAS013.
            if use_refs:
                neighbours.add(target_class)
        for neighbour in sorted(neighbours):
            if neighbour not in origin:
                queue.append((neighbour, root))
    return origin


def _class_of(graph: ProjectGraph, qualname: str) -> Optional[str]:
    function = graph.functions.get(qualname)
    if function is None or function.class_name is None:
        return None
    module = graph.owning_module[qualname]
    return f"{module}.{function.class_name}"


def witness_chain(parts: Sequence[str]) -> str:
    """Render a witness list as a compact ``a -> b -> c`` chain."""
    return " -> ".join(parts)


def impurity_message(kind: str, chain: Sequence[str]) -> str:
    """Human-readable description of one impurity witness chain."""
    return f"{_KIND_VERBS[kind]} via {witness_chain(list(chain))}"
