"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every asserted number is either a closed-form value re-derived from the
cover machinery on abstract path/star shapes, or the output of an
exhaustive, independently implemented brute-force oracle; nothing is
asserted from memory.
"""

import math
import time

import pytest

from conftest import raw
from decycle.cigraph import CIGraph, Link, build_ci, is_simple, msf
from decycle.decompose import decompose_greedy, enumerate_decompositions
from decycle.decycling import analyze, decycle_general, exact_decycling_number
from decycle.families import build_family, cycle_tree, random_even
from decycle.optimize import optimize_decomposition
from oracles import oracle_acyclic, oracle_decycling, oracle_min_forest_cover


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def random_sweep_graphs():
    """Deterministic pool of >= 500 small connected even graphs
    (at most 8 vertices and 12 edges) from the random family."""
    graphs = []
    seed = 0
    while len(graphs) < 500 and seed < 5000:
        n = 5 + seed % 4
        cycles = 2 + (seed // 4) % 3
        g = random_even(n, cycles, seed=seed)
        seed += 1
        if g.n_edges <= 12:
            graphs.append(g)
    assert len(graphs) >= 500
    return graphs


def test_criterion_1_path_ci_closed_form():
    started = time.monotonic()
    failures = []
    for n in range(1, 8):
        g = build_family("triangle_chain", k=n + 1)
        rep = analyze(g)
        want = math.ceil((n + 1) / 2)
        if not (rep.tree_exact == want == rep.exact):
            failures.append((n, rep.tree_exact, rep.exact, want))
    elapsed = time.monotonic() - started
    _report(
        "criterion 1: path-CI chains give ceil((n+1)/2), n=1..7",
        not failures and elapsed < 10.0,
        f"{elapsed:.2f}s" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_2_star_ci_closed_form():
    started = time.monotonic()
    failures = []
    for n in range(1, 7):
        g = build_family("flower", petals=n, core=max(3, n))
        rep = analyze(g)
        if not (rep.tree_exact == n == rep.exact):
            failures.append((n, rep.tree_exact, rep.exact))
    elapsed = time.monotonic() - started
    _report(
        "criterion 2: star-CI flowers give n, n=1..6",
        not failures and elapsed < 10.0,
        f"{elapsed:.2f}s" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_3_tree_ci_equality():
    instances = 0
    violations = 0
    seed = 0
    while instances < 200:
        nodes = 1 + seed % 5
        g = cycle_tree(nodes, seed=seed, min_len=3, max_len=5)
        seed += 1
        if g.n_vertices > 18:
            continue
        instances += 1
        rep = analyze(g)
        if rep.general_bound != rep.exact:
            violations += 1
    _report(
        "criterion 3: general bound equals exact on 200 tree-CI instances",
        violations == 0,
        f"{instances} instances, {violations} violations",
    )


def test_criterion_4_doubled_triangle_reproduction(doubled_triangle):
    decos = list(enumerate_decompositions(doubled_triangle))
    shapes = sorted(tuple(sorted(len(c) for c in d.cycles)) for d in decos)
    digon_decos = [d for d in decos if len(d.cycles) == 3]
    shape_ok = (
        shapes == [(2, 2, 2), (3, 3), (3, 3), (3, 3), (3, 3)]
        and len(digon_decos) == 1
        and all(
            {tuple(sorted(c.vertices)) for c in d.cycles}
            == {(0, 1), (1, 2), (0, 2)}
            for d in digon_decos
        )
        and all(
            all(set(c.vertices) == {0, 1, 2} for c in d.cycles)
            for d in decos
            if len(d.cycles) == 2
        )
    )
    best = optimize_decomposition(doubled_triangle, method="exhaustive")
    rank_ok = best.best_rank == 1 and len(best.best_decomposition.cycles) == 3

    exact_value, _ = exact_decycling_number(doubled_triangle)
    oracle_value, _ = oracle_decycling(*raw(doubled_triangle))
    exact_ok = exact_value == oracle_value == 2

    digons = digon_decos[0]
    witness = decycle_general(
        doubled_triangle, digons, build_ci(doubled_triangle, digons)
    )
    witness_ok = len(witness) == 2 and witness.certified

    _report(
        "criterion 4: doubled-triangle decompositions, rank 1, exact 2, "
        "procedure witness 2",
        shape_ok and rank_ok and exact_ok and witness_ok,
        f"{len(decos)} decompositions",
    )


def test_criterion_5_theta_reproduction(theta_graph):
    decos = list(enumerate_decompositions(theta_graph))
    never_simple = decos and all(
        not is_simple(build_ci(theta_graph, d)) for d in decos
    )
    exact_value, _ = exact_decycling_number(theta_graph)
    oracle_value, _ = oracle_decycling(*raw(theta_graph))
    _report(
        "criterion 5: theta(1,2,2,2) admits no simple CI; exact is 1",
        never_simple and exact_value == oracle_value == 1,
        f"{len(decos)} decompositions, exact={exact_value}",
    )


def test_criterion_6_soundness_sweep(random_sweep_graphs):
    started = time.monotonic()
    uncertified = 0
    unsound = 0
    general_over_edge_witness = 0
    for g in random_sweep_graphs:
        rep = analyze(g)
        for witness in rep.witness_sets.values():
            if not witness.certified or not oracle_acyclic(
                *raw(g.delete_vertices(witness.vertices))
            ):
                uncertified += 1
        if rep.exact is None or rep.exact > rep.general_bound:
            unsound += 1
        edge_witness = rep.witness_sets.get("edge_count")
        if edge_witness is not None and rep.general_bound > len(edge_witness):
            general_over_edge_witness += 1
    elapsed = time.monotonic() - started
    print(
        f"  sweep log: {len(random_sweep_graphs)} instances, "
        f"general > edge-count witness size on {general_over_edge_witness}"
    )
    _report(
        "criterion 6: every witness certified, exact <= general, >= 500 instances",
        uncertified == 0 and unsound == 0 and elapsed < 300.0,
        f"{len(random_sweep_graphs)} instances in {elapsed:.1f}s",
    )


def test_criterion_7_msf_against_brute_force(random_sweep_graphs):
    checked = 0
    mismatches = 0
    for g in random_sweep_graphs:
        ci = build_ci(g, decompose_greedy(g))
        if ci.node_count > 7:
            continue
        checked += 1
        pairs = {l.pair() for l in ci.links}
        if sum(map(len, msf(ci))) != oracle_min_forest_cover(ci.node_count, pairs):
            mismatches += 1
    _report(
        "criterion 7: forest-cover size matches exhaustive minimizer",
        checked > 0 and mismatches == 0,
        f"{checked} CI graphs, {mismatches} mismatches",
    )


def test_criterion_8_values_are_derived_not_quoted():
    # the two closed forms asserted above re-derived on abstract shapes,
    # straight from the matching-based cover
    ok = True
    for n in range(1, 9):
        path = CIGraph.from_links(n + 1, tuple(Link(i, i + 1, i) for i in range(n)))
        ok = ok and sum(map(len, msf(path))) == math.ceil((n + 1) / 2)
        star = CIGraph.from_links(n + 1, tuple(Link(0, i + 1, i) for i in range(n)))
        ok = ok and sum(map(len, msf(star))) == n
    _report(
        "criterion 8: no quoted experimental numbers; closed forms and "
        "oracle outputs only",
        ok,
        "path/star cover sizes re-derived for n=1..8",
    )
