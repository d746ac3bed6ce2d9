"""The array build of each system against the per-pair loops it replaced.

The root system, the constants N(a, b), the adjoint entries and the Killing
traces are built from one integer root-triple table per system. The loops
below are the earlier per-pair code, kept as the reference the array build
must equal: the |R|^2 sum comprehension, the recursive ``resolve`` of every
constant, the per-root adjoint rows and the per-slot Killing join; the
Killing form is also held to the sorted join of the adjoint entries that it
replaced.
"""

import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest

import flagconn
from flagconn import DomainError, build_m_basis, build_root_system, chevalley_constants, negate
from flagconn import chevalley, rootsys, su_realization
from flagconn.chevalley import _adjoint, killing_gram, m_bracket_entries, root_string_p
from flagconn.rootsys import add_roots
from test_chevalley import _sum_table_entries
from test_cli import _flagconn_caches

SYSTEMS = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
           + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]
           + [("A", 10), ("B", 8), ("D", 8)])


def _root_tables_loop(rs):
    """sum_table and norm_table as the per-pair comprehensions over rs.roots."""
    rank, roots, all_roots = rs.rank, rs.roots, rs.all_roots
    norms = rootsys._simple_norms(rs.family, rank)
    gram = [[rs.pairing_matrix[i][j] * norms[j] // 2 for j in range(rank)] for i in range(rank)]
    norm_table = {r: sum(gram[i][j] * r[i] * r[j] for i in range(rank) for j in range(rank))
                  for r in roots}
    sum_table = {(a, b): s for a in roots for b in roots if (s := add_roots(a, b)) in all_roots}
    return sum_table, norm_table


def _constants_loop(rs):
    """n_coeff and coroot_table with every constant resolved recursively, pair by pair."""
    is_pos, norm = rs.is_positive, rs.norm_table
    special = {}
    for (g, d), rho in rs.sum_table.items():
        if is_pos(g) and is_pos(d) and g < d:
            special.setdefault(rho, []).append((g, d))
    table = {}

    def resolve(a, b):
        s = add_roots(a, b)
        if not is_pos(s):
            return -resolve(negate(a), negate(b))
        if is_pos(a) and is_pos(b):
            return table[(a, b)] if a < b else -table[(b, a)]
        if not is_pos(a):
            return -resolve(b, a)
        out, rem = divmod(-norm[s] * resolve(negate(b), s), norm[a])
        assert rem == 0
        return out

    for rho in sorted(special, key=sum):
        pairs = sorted(special[rho])
        a0, b0 = pairs[0]
        table[(a0, b0)] = root_string_p(rs, a0, b0) + 1
        for g, d in pairs[1:]:
            acc = 0
            if add_roots(b0, negate(g)) in rs.all_roots:
                acc += resolve(b0, negate(g)) * resolve(add_roots(b0, negate(g)), a0)
            if add_roots(a0, negate(g)) in rs.all_roots:
                acc += resolve(negate(g), a0) * resolve(add_roots(a0, negate(g)), b0)
            n_rho_negg, rem = divmod(-acc, table[(a0, b0)])
            assert rem == 0
            table[(g, d)], rem = divmod(-norm[rho] * n_rho_negg, norm[d])
            assert rem == 0

    n_coeff = {(a, b): resolve(a, b) for (a, b) in rs.sum_table}
    norms = [norm[s] for s in rs.simple_roots]
    coroot_table = {r: tuple(c * n // norm[r] for c, n in zip(r, norms)) for r in rs.all_roots}
    return n_coeff, coroot_table


def _adjoint_loop(rs, sc):
    """The nonzero adjoint entries (x, out, in, value), root by root and Cartan index by index."""
    roots = list(rs.positive_roots) + [negate(r) for r in rs.positive_roots]
    e = {r: rs.rank + k for k, r in enumerate(roots)}
    rows = [(e[a], e[s], e[b], sc.n_coeff[(a, b)]) for (a, b), s in rs.sum_table.items()]
    for a in roots:
        for i, h in enumerate(sc.coroot_table[a]):
            act = rs.pairing(a, i)
            rows += [(i, e[a], e[a], act), (e[a], e[a], i, -act), (e[a], i, e[negate(a)], h)]
    return [row for row in rows if row[3]]


def _killing_loop(dim, rows):
    """B(b_x, b_y) = sum over (o, i) of ad[x, o, i] ad[y, i, o], slot by slot."""
    at_slot = {}
    for x, o, i, v in rows:
        at_slot.setdefault((o, i), []).append((x, v))
    rows, cols, products = np.array([(x, y, v * w) for (o, i), left in at_slot.items()
                                     for y, w in at_slot.get((i, o), ()) for x, v in left],
                                    dtype=np.int64).T
    gram = np.zeros((dim, dim), dtype=np.int64)
    np.add.at(gram, (rows, cols), products)
    return gram


def _with_mirrors(rs, sum_table, norm_table):
    """A copy of rs whose sum_table and norm_table are the given loop tables."""
    ref = dataclasses.replace(rs)
    vars(ref).update(sum_table=MappingProxyType(sum_table),
                     norm_table=MappingProxyType(norm_table))
    return ref


@functools.cache
def _reference(family, rank):
    rs = build_root_system(family, rank)
    sum_table, norm_table = _root_tables_loop(rs)
    ref_rs = _with_mirrors(rs, sum_table, norm_table)
    n_coeff, coroot_table = _constants_loop(ref_rs)
    ref_sc = SimpleNamespace(rs=ref_rs, n_coeff=n_coeff, coroot_table=coroot_table)
    rows = _adjoint_loop(ref_rs, ref_sc)
    gram = _killing_loop(rs.rank + len(rs.all_roots), rows)
    return sum_table, norm_table, ref_sc, rows, gram


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_root_tables_equal_the_pair_loops(family, rank):
    rs = build_root_system(family, rank)
    sum_table, norm_table, *_ = _reference(family, rank)
    assert list(rs.sum_table.items()) == list(sum_table.items())  # also the key order
    assert rs.norm_table == norm_table
    for table in (rs.sum_table, rs.norm_table):
        assert isinstance(table, MappingProxyType)
    a, b, s = rs.triples
    roots = rs.positive_roots + tuple(map(negate, rs.positive_roots))
    rows = [((roots[i], roots[j]), roots[k]) for i, j, k in zip(a, b, s)]
    assert rows == list(sum_table.items())
    assert rs.triples.dtype == np.int64 and not rs.triples.flags.writeable


def test_keys_past_int64_give_the_same_sums():
    # B20 is past the int64 range of the earlier radix keys (9**20 > 2**63), where the build
    # once switched to Python ints; the byte keys of its 20 coordinates find the same sums
    rs = build_root_system("B", 20)
    sum_table, norm_table = _root_tables_loop(rs)
    assert list(rs.sum_table.items()) == list(sum_table.items()) and rs.norm_table == norm_table


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_constants_equal_the_recursive_resolve(family, rank):
    rs = build_root_system(family, rank)
    sc = chevalley_constants(rs)
    _, _, ref, _, _ = _reference(family, rank)
    assert sc.n_coeff == ref.n_coeff and sc.coroot_table == ref.coroot_table
    assert all(type(v) is int for v in sc.n_coeff.values())
    assert sc.n_rows.tolist() == [sc.n_coeff[key] for key in rs.sum_table]
    assert sc.n_rows.dtype == np.int64 and not sc.n_rows.flags.writeable
    for table in (sc.n_coeff, sc.coroot_table):
        assert isinstance(table, MappingProxyType)


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_adjoint_killing_and_bracket_entries_equal_the_loops(family, rank):
    rs = build_root_system(family, rank)
    sc = chevalley_constants(rs)
    _, _, ref, rows, gram = _reference(family, rank)
    _, _, entries = _adjoint(rs, sc)
    assert sorted(map(tuple, entries.T.tolist())) == sorted(rows)
    kf = killing_gram(rs, sc)
    assert kf.gram.dtype == gram.dtype and kf.gram.shape == gram.shape
    assert kf.gram.tobytes() == gram.tobytes()
    i, j, k, t = _sum_table_entries(ref)
    order = np.lexsort((k, j, i))
    for got, want in zip(m_bracket_entries(sc, build_m_basis(rs)),
                         (i[order], j[order], k[order], t[order]), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# every classical system of rank <= 8, and the high-rank systems of the build benchmarks
MIRRORED = ([("A", r) for r in range(1, 9)] + [(f, r) for f in "BC" for r in range(2, 9)]
            + [("D", r) for r in range(3, 9)] + [("A", 20), ("D", 24), ("A", 40)])


ROOT_MIRRORS, CONSTANT_MIRRORS = ("sum_table", "norm_table"), ("n_coeff", "coroot_table")


@pytest.mark.parametrize("family,rank", MIRRORED)
def test_mirrors_built_on_first_read_equal_the_pair_loops(family, rank):
    # uncached builds: their mirrors are not yet read anywhere else
    rs = rootsys._root_system.__wrapped__(family, rank)
    sc = chevalley.chevalley_constants.__wrapped__(rs)
    assert not vars(rs).keys() & set(ROOT_MIRRORS) and not vars(sc).keys() & set(CONSTANT_MIRRORS)
    sum_table, norm_table = _root_tables_loop(rs)
    n_coeff, coroot_table = _constants_loop(_with_mirrors(rs, sum_table, norm_table))
    assert list(rs.sum_table.items()) == list(sum_table.items())  # also the key order
    assert rs.norm_table == norm_table and list(rs.norm_table) == list(rs.roots)
    assert list(sc.n_coeff.items()) == list(n_coeff.items())
    assert sc.coroot_table == coroot_table and list(sc.coroot_table) == list(rs.roots)
    assert all(type(v) is int for v in (*rs.norm_table.values(), *sc.n_coeff.values()))
    assert all(type(h) is int for coroot in sc.coroot_table.values() for h in coroot)
    for obj, names in ((rs, ROOT_MIRRORS), (sc, CONSTANT_MIRRORS)):
        for name in names:
            assert isinstance(getattr(obj, name), MappingProxyType)
            assert getattr(obj, name) is getattr(obj, name)  # built once
    assert np.array_equal(rs.coords, np.array(rs.roots))
    assert rs.norms.tolist() == [norm_table[r] for r in rs.roots]
    assert rs.coroots.tolist() == [list(coroot_table[r]) for r in rs.roots]
    for array in (rs.coords, rs.norms, rs.coroots):
        assert array.dtype == np.int64 and not array.flags.writeable


@pytest.mark.parametrize("family,rank", MIRRORED)
def test_the_triple_rows_are_sorted_by_their_pair_key(family, rank):
    rs = build_root_system(family, rank)
    a, b, _ = rs.triples
    assert (np.diff(a * len(rs.roots) + b) > 0).all()


@pytest.mark.parametrize("family,rank", [("A", 6), ("C", 5), ("A", 10), ("D", 8)])
def test_the_triple_rows_do_not_depend_on_the_set_order(monkeypatch, family, rank):
    # the same positive roots, inserted into their set in reverse order, iterate in
    # another order on these systems; uncached builds, so the shared systems stay as built
    expected = rootsys._root_system.__wrapped__(family, rank)
    generate = rootsys._generate_positive
    monkeypatch.setattr(rootsys, "_generate_positive",
                        lambda *args: set(reversed(list(generate(*args)))))
    rs = rootsys._root_system.__wrapped__(family, rank)
    assert rs.triples.tobytes() == expected.triples.tobytes()
    n_rows = chevalley.chevalley_constants.__wrapped__(rs).n_rows
    assert n_rows.tobytes() == chevalley.chevalley_constants.__wrapped__(expected).n_rows.tobytes()


def test_a_replaced_system_builds_its_own_equal_mirrors():
    rs = build_root_system("A", 3)
    sc = chevalley_constants(rs)
    replaced_rs = dataclasses.replace(rs)
    replaced_sc = dataclasses.replace(sc, rs=replaced_rs)
    assert replaced_rs.triples is rs.triples and replaced_sc.n_rows is sc.n_rows
    for obj, replaced, names in ((rs, replaced_rs, ROOT_MIRRORS),
                                 (sc, replaced_sc, CONSTANT_MIRRORS)):
        for name in names:
            mirror = getattr(obj, name)  # built on the original before the copy reads its own
            assert name not in vars(replaced)
            assert getattr(replaced, name) is not mirror
            assert list(getattr(replaced, name).items()) == list(mirror.items())
    with pytest.raises(TypeError, match="sum_table"):  # a mirror is no constructor argument
        dataclasses.replace(rs, sum_table=rs.sum_table)


def _python(code, *flags, cwd=None):
    """The standard output of code run in a fresh interpreter on this package."""
    src = str(Path(flagconn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout


def test_the_pipeline_and_the_b_c_d_jobs_never_build_the_mirrors(tmp_path):
    # in a fresh interpreter, so that no other test has read a mirror of the shared systems;
    # the A3 job is the control: its su(4) alignment reads N through sc.n
    code = """if True:
        import contextlib, io
        import numpy as np
        from flagconn import *
        from flagconn.cli import JobConfig, run_job

        def built(family, rank):
            rs = build_root_system(family, rank)
            sc = chevalley_constants(rs)
            names = [name for obj, names in ((rs, ("sum_table", "norm_table")),
                                             (sc, ("n_coeff", "coroot_table")))
                     for name in names if name in vars(obj)]
            return f"{family}{rank}:{','.join(names) or '-'}"

        for family, rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
            rs = build_root_system(family, rank)
            sc, mb = chevalley_constants(rs), build_m_basis(rs)
            spec = MetricSpec.from_values(rs, np.linspace(0.5, 3.0, len(rs.positive_roots)))
            gram = build_metric(rs, killing_gram(rs, sc), spec)
            tensor = assemble_tensor(sc, mb, spec)
            reports = [check_oracle_equivalence(rs, sc, spec), check_torsion(tensor, sc),
                       check_metric_compat(tensor, gram), check_lemma2(rs)]
            alpha, beta = rs.simple_roots[:2]  # adjacent: a root sum, and 2 alpha is none
            assert root_sum(rs, alpha, beta) == (1, 1) + alpha[2:]
            assert root_sum(rs, alpha, alpha) is None
            print(built(family, rank), all(r.passed for r in reports))
        for family, rank in (("B", 3), ("C", 3), ("D", 4), ("A", 3)):
            with contextlib.redirect_stdout(io.StringIO()):  # the job prints its reports
                code = run_job(JobConfig(family=family, rank=rank, checks="all",
                                         output_path=f"{family}{rank}.json"))
            print(built(family, rank), code == 0)
    """
    assert _python(code, cwd=tmp_path).split() == [
        "A4:-", "True", "B3:-", "True", "C3:-", "True", "D4:-", "True",
        "B3:-", "True", "C3:-", "True", "D4:-", "True", "A3:n_coeff", "True"]


def test_a_cold_a30_build_keeps_its_key_search_small():
    # the |R|^2 key search runs one fixed block of rows at a time; searched at once,
    # its temporaries made a 27.9 MiB peak at A30 (1.7 MiB of the result is held)
    rootsys._root_system.__wrapped__("A", 30)  # warm-up: the lazily created numpy objects
    tracemalloc.start()
    try:
        rootsys._root_system.__wrapped__("A", 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def _with_one_norm_changed(rs, root):
    norms = rs.norms.copy()
    norms[rs.roots.index(root)] += 1
    return dataclasses.replace(rs, norms=norms)


# the first remainder shows in the array rotation, the Jacobi step and the rotation
# inside the loop, in this order
@pytest.mark.parametrize("family,rank,root", [("A", 2, (1, 1)), ("B", 3, (1, 1, 2)),
                                              ("A", 4, (0, 0, 1, 1))])
def test_an_inexact_division_raises(family, rank, root):
    broken = _with_one_norm_changed(build_root_system(family, rank), root)
    with pytest.raises(DomainError, match="remainder"):
        chevalley_constants(broken)


def test_an_inexact_division_raises_under_python_o():
    # python -O strips assert statements; the exact divisions must still refuse a remainder
    code = ("import dataclasses, flagconn\n"
            "rs = flagconn.build_root_system('A', 2)\n"
            "norms = rs.norms.copy()\n"
            "norms[rs.roots.index((1, 1))] = 3\n"
            "try:\n"
            "    flagconn.chevalley_constants(dataclasses.replace(rs, norms=norms))\n"
            "except flagconn.DomainError as exc:\n"
            "    print('raised', exc)\n")
    out = _python(code, "-O")
    assert out.startswith("raised") and "remainder" in out


# every classical system of rank <= 8
RANK_LE_8 = ([("A", r) for r in range(1, 9)] + [(f, r) for f in "BC" for r in range(2, 9)]
             + [("D", r) for r in range(3, 9)])


def _killing_join(rs, sc):
    """The Killing form as one sorted join of the adjoint entries at slot (o, i) with
    those at (i, o): the route killing_gram took before it read the slot pairs off the
    triple table. Uncached, so that no adjoint table stays behind."""
    labels, index, (x, o, i, v) = _adjoint.__wrapped__(rs, sc)
    dim = len(labels)
    left, right = su_realization._join(i * dim + o, o * dim + i)
    gram = np.zeros((dim, dim), dtype=np.int64)
    np.add.at(gram, (x[left], x[right]), v[left] * v[right])
    return labels, index, gram


@pytest.mark.parametrize("family,rank", RANK_LE_8 + [("A", 20), ("D", 24)])
def test_killing_gram_equals_the_adjoint_join(family, rank):
    rs = build_root_system(family, rank)
    sc = chevalley_constants(rs)
    kf = killing_gram(rs, sc)
    labels, index, gram = _killing_join(rs, sc)
    assert kf.labels == labels and isinstance(kf.index, MappingProxyType)
    assert list(kf.index.items()) == list(index.items())
    assert kf.gram.dtype == np.int64 and kf.gram.shape == gram.shape
    assert kf.gram.tobytes() == gram.tobytes() and not kf.gram.flags.writeable


def _with_one_row_negated(sc, row):
    n = sc.n_rows.copy()
    n[row] = -n[row]
    n.flags.writeable = False
    return dataclasses.replace(sc, n_rows=n)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_one_negated_row_changes_the_gram_at_its_root_pair_only(family, rank):
    # a norm identity such as N(-a, a + b) = N(a, b)|b|^2/|a + b|^2 squares the sign away;
    # the trace reads N on both rows, so the flip shows at (E_a, E_-a) and (E_-a, E_a)
    rs = build_root_system(family, rank)
    sc = chevalley_constants(rs)
    gram = killing_gram(rs, sc).gram
    npos = len(rs.positive_roots)
    for row in (0, len(sc.n_rows) // 2, len(sc.n_rows) - 1):
        a = rs.triples[0, row]
        changed = killing_gram.__wrapped__(rs, _with_one_row_negated(sc, row)).gram != gram
        pair = rs.rank + a, rs.rank + (a + npos) % (2 * npos)
        assert sorted(zip(*np.nonzero(changed))) == sorted({pair, pair[::-1]})


def _invariance(rs, sc, gram):
    """Per row (a, b, s) of the triple table, whether B([E_a, E_b], E_-s) = B(E_a, [E_b, E_-s])
    holds, that is N(a, b) B(E_s, E_-s) = N(b, -s) B(E_a, E_-a), with N read off n_rows."""
    nroots = len(rs.roots)
    minus = (np.arange(nroots) + nroots // 2) % nroots
    a, b, s = rs.triples
    row = np.full((nroots, nroots), -1)
    row[a, b] = np.arange(len(a))
    other = row[b, minus[s]]  # the row (b, -s, -a)
    assert (other >= 0).all()
    e_pair = gram[rs.rank + np.arange(nroots), rs.rank + minus]  # B(E_e, E_-e)
    return sc.n_rows * e_pair[s] == sc.n_rows[other] * e_pair[a]


@pytest.mark.parametrize("family,rank", RANK_LE_8)
def test_killing_gram_is_ad_invariant_on_every_triple_row(family, rank):
    rs = build_root_system(family, rank)
    sc = chevalley_constants(rs)
    assert _invariance(rs, sc, killing_gram(rs, sc).gram).all()
    if len(sc.n_rows):  # A1 has no triple rows
        broken = _with_one_row_negated(sc, 0)
        assert not _invariance(rs, broken, killing_gram.__wrapped__(rs, broken).gram).all()
    # negating N on all 12 rows of one block triple (ROADMAP item 11) leaves the gram as it
    # is and passes this test too, as it passes every check: only a Jacobi check catches it


@pytest.mark.parametrize("family,rank", [("C", 3), ("D", 4)])
def test_the_library_pipeline_builds_no_adjoint_table(family, rank):
    # only the su(n+1) cross-check of an A job reads the adjoint entries
    for cache in _flagconn_caches():
        cache.cache_clear()
    rs = build_root_system(family, rank)
    sc, mb = chevalley_constants(rs), build_m_basis(rs)
    spec = flagconn.MetricSpec.from_values(rs, np.linspace(0.5, 3.0, len(rs.positive_roots)))
    gram = flagconn.build_metric(rs, killing_gram(rs, sc), spec)
    tensor = flagconn.assemble_tensor(sc, mb, spec)
    reports = [flagconn.check_oracle_equivalence(rs, sc, spec),
               flagconn.check_torsion(tensor, sc), flagconn.check_metric_compat(tensor, gram)]
    assert all(report.passed for report in reports)
    assert chevalley._adjoint.cache_info().currsize == 0


def test_a_cold_d24_killing_gram_holds_little_beyond_the_gram():
    # the adjoint join peaked at 1.95 gram sizes at D24; the slot pairs of the triple table
    # need, besides the gram, only arrays as long as the table
    rs = build_root_system("D", 24)
    sc = chevalley_constants(rs)
    killing_gram.__wrapped__(rs, sc)  # warm-up: the lazily created numpy objects
    tracemalloc.start()
    try:
        gram = killing_gram.__wrapped__(rs, sc).gram
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * gram.nbytes
