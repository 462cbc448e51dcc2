"""The relation and so(4) suites on shift terms: the dense oracle, the
stored terms against the dense build, mutations, and scale."""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dense_oracle
from fuzzysphere import lierep, shift
from fuzzysphere.circle import build_circle
from fuzzysphere.lierep import verify_so4_reconstruction, verify_su2_reconstruction
from fuzzysphere.shift import power_norm
from fuzzysphere.sphere import build_sphere, verify_sphere_relations

SUITES = [(verify_sphere_relations, dense_oracle.verify_sphere_relations),
          (verify_so4_reconstruction, dense_oracle.verify_so4_reconstruction)]


def _scaled_term(s, op, key, source, factor):
    """s with the weight of op's term `key` at basis index `source` scaled."""
    terms = np.array(s.terms)
    terms[s.term_keys.index((op, *key)), source] *= factor
    return dataclasses.replace(s, terms=terms)


def _record(rep, tag):
    return next(c for c in rep.checks if c.tag == tag)


@pytest.mark.parametrize("k", [None, np.inf])
def test_suites_match_dense_oracle(k):
    for lam in range(13):
        s = build_sphere(lam, k)
        for terms_suite, dense_suite in SUITES:
            got, want = terms_suite(s).checks, dense_suite(s).checks
            assert [(c.tag, c.passed) for c in got] == \
                [(c.tag, c.passed) for c in want]
            for a, b in zip(got, want):
                assert abs(a.residual - b.residual) <= 1e-13, (lam, a.tag)


@pytest.mark.parametrize("k", [None, np.inf])
def test_terms_match_dense_build(k):
    # every nonzero entry of a dense ladder or coordinate (the oracle's
    # scatter, which test_sphere compares with an entrywise loop build) is
    # the weight of the term whose key is its (dl, dm), and no weight lies
    # off its key's support
    for lam in range(13):
        s = build_sphere(lam, k)
        for op in ("x3", "x_plus", "x_minus", "L_plus"):
            rows = {key[1:]: j for j, key in enumerate(s.term_keys)
                    if key[0] == op}
            dense = dense_oracle.dense(s, op)
            tgt, src = np.nonzero(dense)
            for t, i in zip(tgt, src):
                key = (s.l_of[t] - s.l_of[i], s.m_of[t] - s.m_of[i])
                assert key in rows, (op, key)
                assert dense[t, i] == s.terms[rows[key], i]
            for key, j in rows.items():
                off = s.targets([key])[0] == s.dim
                assert not np.any(s.terms[j][off])
            assert len(tgt) == sum(np.count_nonzero(s.terms[j]) for j in rows.values())


def test_tables_compiled_on_first_use_not_at_import():
    # and the shift algebra is not even loaded: commands that never run
    # the relation or so(4) suites do not pay for it.  Each suite compiles
    # its tables once, whatever lambda it runs at
    code = ("import sys\n"
            "import fuzzysphere.cli\n"
            "print('fuzzysphere.shift' in sys.modules)\n"
            "from fuzzysphere import circle, lierep, sphere\n"
            "from fuzzysphere.shift import compile_checks\n"
            "print(compile_checks.cache_info().currsize)\n"
            "for lam in (2, 3):\n"
            "    c, s = circle.build_circle(lam), sphere.build_sphere(lam)\n"
            "    circle.verify_circle_relations(c)\n"
            "    lierep.verify_su2_reconstruction(c)\n"
            "    sphere.verify_sphere_relations(s)\n"
            "    lierep.verify_so4_reconstruction(s)\n"
            "    print(compile_checks.cache_info().misses)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0", "4", "4"]


@pytest.mark.parametrize("suite, space", [
    (verify_so4_reconstruction, build_sphere(4)),
    (verify_su2_reconstruction, build_circle(5))])
def test_extra_block_order_does_not_change_records(monkeypatch, suite, space):
    # every extra weight row is named by its key, so the blocks may come
    # in any order: reversed, they compile other tables and give the same
    # records bit for bit
    want = suite(space).checks
    check, seen = shift.check, []

    def reversed_blocks(space, rows, extra, tol):
        seen.append(len(extra))
        return check(space, rows, extra[::-1], tol)

    monkeypatch.setattr(shift, "check", reversed_blocks)
    got = suite(space).checks
    assert seen[0] >= 4
    assert [(c.tag, c.passed, c.residual.hex()) for c in got] == \
        [(c.tag, c.passed, c.residual.hex()) for c in want]


def test_x3_weight_breaks_l_x_bracket():
    s = build_sphere(3)
    bad = _scaled_term(s, "x3", (1, 0), s.index(1, 0), 1.001)
    assert not _record(verify_sphere_relations(bad), "rf3D4/[L,x]").passed


def test_misplaced_term_breaks_nilpotency():
    # x_+ with a stray dm = 0 term, the up-going part of x_0; it still
    # moves l by one, but no longer raises m at every step
    s = build_sphere(3)
    up = s.terms[s.term_keys.index(("x3", 1, 0))]
    bad = dataclasses.replace(s, term_keys=s.term_keys + (("x_plus", 1, 0),),
                              terms=np.vstack([s.terms, up]))
    rec = _record(verify_sphere_relations(bad), "rf3D3/nilpotent")
    want = _record(dense_oracle.verify_sphere_relations(bad), "rf3D3/nilpotent")
    assert not rec.passed and not want.passed
    assert abs(rec.residual - want.residual) <= 1e-12 * want.residual


def test_power_norms_match_dense_powers():
    # on random complex weights, so that no power vanishes
    rng = np.random.default_rng(3)
    names = ["x_plus", "x_minus", "x3", "L_plus"]
    for k in (None, np.inf):
        s = build_sphere(3, k)
        noise = rng.normal(size=s.terms.shape) + 1j * rng.normal(size=s.terms.shape)
        bad = dataclasses.replace(s, terms=s.terms * (1.0 + noise))
        for n in (1, 2, 5, 7):
            got = [power_norm(bad, name, n) for name in names]
            want = [np.linalg.norm(np.linalg.matrix_power(
                dense_oracle.dense(bad, name), n)) for name in names]
            assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_nilpotency_decided_before_any_product(monkeypatch):
    # every x_+- key moves m by one, so the grading alone shows that
    # x_+-^(2 lam + 1) vanishes: the power is pruned before its first
    # target lookup, which keeps the check O(1) at any lambda
    calls, lookups = [], []

    def counted(space, name, n):
        calls.append((name, n))
        spy = SimpleNamespace(terms=space.terms, term_keys=space.term_keys,
                              dim=space.dim, can_shift=space.can_shift,
                              targets=lambda keys: lookups.append(keys)
                              or space.targets(keys))
        return power_norm(spy, name, n)

    monkeypatch.setattr(shift, "power_norm", counted)
    for k in (None, np.inf):
        rec = _record(verify_sphere_relations(build_sphere(40, k)), "rf3D3/nilpotent")
        assert rec.passed and rec.residual == 0.0
    assert calls == [("x_plus", 81), ("x_minus", 81)] * 2
    assert lookups == []


@pytest.mark.parametrize("op", ["x_plus", "x_minus"])
def test_nonfinite_weight_fails_nilpotency(op):
    # the power is pruned by reach before any weight is read, so a NaN or
    # an infinity in the first nonzero weight must still make it NaN
    s = build_sphere(3)
    j = next(j for j, key in enumerate(s.term_keys) if key[0] == op)
    for bad_value in (np.inf, np.nan):
        terms = np.array(s.terms)
        terms[j, np.flatnonzero(terms[j])[0]] = bad_value
        bad = dataclasses.replace(s, terms=terms)
        assert np.isnan(power_norm(bad, op, 7))
    # on the NaN sphere the record keeps the NaN and fails
    rec = _record(verify_sphere_relations(bad), "rf3D3/nilpotent")
    assert not rec.passed and np.isnan(rec.residual)


def test_g_weight_breaks_brackets_and_casimir(monkeypatch):
    # the dressing round trips divide and multiply by the same g, so only
    # the brackets and the Casimir can see a wrong g(2)
    g = lierep.g_weight
    monkeypatch.setattr(lierep, "g_weight", lambda l, lam, k: g(l, lam, k)
                        * (1.01 if l == 2 else 1.0))
    rep = verify_so4_reconstruction(build_sphere(4))
    for tag in ("so4rel/brackets", "isomD3/casimir"):
        assert not _record(rep, tag).passed


@pytest.mark.parametrize("k", [None, np.inf])
def test_suites_at_lambda_40(k):
    s = build_sphere(40, k)
    start = time.perf_counter()
    reps = [verify_sphere_relations(s), verify_so4_reconstruction(s)]
    elapsed = time.perf_counter() - start
    for rep in reps:
        assert rep.passed
        assert all(np.isfinite(c.residual) for c in rep.checks)
    assert elapsed < 1.0
    bad = _scaled_term(s, "x3", (1, 0), s.index(20, 3), 1.001)
    assert not _record(verify_sphere_relations(bad), "rf3D4/[L,x]").passed
