import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heralded_qkd.keyrate import renormalized_key_rate
from heralded_qkd.protocol import (
    BB84,
    SARG04,
    _Q_TOL,
    ProtocolSpec,
    _contour_q,
    _security_terms,
    _xlog2x,
    binary_entropy,
    eve_info_single,
    get_protocol,
    mutual_info_ab,
    pns_applicable,
    positivity_margin,
)

# frozen high-precision oracle values (mpmath, 30 digits)
H_011 = 0.499915958164528
SARG_I1_01 = 0.5529325012980811
SARG_I1_04 = 0.9509775004326937
HOLEVO_SARG = 0.600876036692856
QTH_BB84 = 0.11002786443835955
QTH_SARG = 0.09689248938745229
# xi from the contour's implicit derivative at y = 1 (mpmath, 40 digits)
XI_BB84 = 1.2533931197151409
XI_SARG = 0.63424225617930853


class TestBinaryEntropy:
    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_uniform(self):
        assert binary_entropy(0.5) == 1.0

    def test_derived_value(self):
        assert binary_entropy(0.11) == pytest.approx(H_011, abs=1e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_symmetry_grid(self):
        for x in np.linspace(0.0, 1.0, 1000):
            assert binary_entropy(x) == pytest.approx(
                binary_entropy(1.0 - x), abs=1e-12
            )

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_property(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_concave_and_maximal_at_half(self):
        xs = np.linspace(0.001, 0.999, 999)
        hs = np.array([binary_entropy(x) for x in xs])
        assert hs.max() <= 1.0
        assert binary_entropy(0.5) == 1.0
        # midpoint concavity on a grid
        mid = np.array([binary_entropy((a + b) / 2) for a, b in zip(xs[:-2], xs[2:])])
        assert np.all(mid >= (hs[:-2] + hs[2:]) / 2 - 1e-12)


class TestMutualInfoAB:
    def test_trivials(self):
        assert mutual_info_ab(0.0) == 1.0
        assert mutual_info_ab(0.5) == 0.0

    def test_derived_value(self):
        assert mutual_info_ab(0.11) == pytest.approx(1.0 - H_011, abs=1e-5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mutual_info_ab(0.6)


class TestEveInfoSingle:
    def test_bb84_is_entropy(self):
        assert eve_info_single(BB84, 0.11) == pytest.approx(H_011, abs=1e-5)

    def test_sarg_at_zero(self):
        assert eve_info_single(SARG04, 0.0) == 0.0

    def test_sarg_derived_value(self):
        assert eve_info_single(SARG04, 0.1) == pytest.approx(SARG_I1_01, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eve_info_single(SARG04, 0.5)
        with pytest.raises(ValueError):
            eve_info_single(BB84, -0.1)

    def test_sarg_monotone_and_continuous(self):
        # the derivative log2(2(1-2Q)^2/(Q(1-Q))) is positive up to Q = 1/3,
        # so the gain is monotone nondecreasing there (and only there)
        qs = np.linspace(0.0, 1.0 / 3.0, 1000)
        vals = [eve_info_single(SARG04, q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert eve_info_single(SARG04, 0.4) < eve_info_single(SARG04, 1.0 / 3.0)
        # continuity at the edges of the domain
        assert eve_info_single(SARG04, 1e-12) == pytest.approx(0.0, abs=1e-9)
        assert math.isfinite(eve_info_single(SARG04, 0.5 - 1e-12))


def branchy_xlog2x(x):
    # the branching form the branch-free kernel replaced: the reference
    return 0.0 if x == 0.0 else x * math.log2(x)


def branchy_sarg04_eve_info(q):
    # the branching SARG04 gain the branch-free kernel replaced: the reference
    if q == 0.0:
        return 0.0
    return (
        branchy_xlog2x(1.0 - q)
        - branchy_xlog2x(1.0 - 2.0 * q)
        + q * (1.0 - math.log2(q))
    )


class TestBranchFreeKernel:
    """The branch-free information functions equal the branching reference
    bit for bit, float.hex telling apart even the signs of zero."""

    @given(x=st.floats(0.0, 1.0))
    @example(x=0.0)
    @example(x=5e-324)
    @example(x=1e-300)
    @example(x=0.5)
    @example(x=SARG04.q_max)
    @example(x=1.0)
    def test_xlog2x_matches_branchy_form(self, x):
        assert _xlog2x(x).hex() == branchy_xlog2x(x).hex()

    @given(q=st.floats(0.0, SARG04.q_max))
    @example(q=0.0)
    @example(q=5e-324)
    @example(q=1e-300)
    @example(q=SARG04.q_max)
    @example(q=0.5)  # just past the domain, where the formula still holds
    def test_sarg04_eve_info_matches_branchy_form(self, q):
        assert SARG04.eve_info(q).hex() == branchy_sarg04_eve_info(q).hex()

    @pytest.mark.parametrize("spec, q, expected", [
        (BB84, 0.11, H_011), (SARG04, 0.1, SARG_I1_01), (SARG04, 0.4, SARG_I1_04),
    ])
    def test_eve_info_takes_one_argument(self, spec, q, expected):
        assert spec.eve_info(q) == pytest.approx(expected, abs=1e-12)
        assert spec.eve_info(0.0) == 0.0


class TestEveInfoTwo:
    def test_bb84(self):
        assert BB84.i_ae_two == 1.0

    def test_sarg_holevo_value(self):
        assert SARG04.i_ae_two == pytest.approx(0.6009, abs=1e-4)
        assert SARG04.i_ae_two == pytest.approx(HOLEVO_SARG, abs=1e-12)

    def test_entropy_symmetry_equivalent(self):
        assert SARG04.i_ae_two == pytest.approx(
            binary_entropy((2.0 - math.sqrt(2.0)) / 4.0), abs=1e-12
        )


class TestQberThreshold:
    def test_bb84(self):
        assert BB84.q_threshold == pytest.approx(0.1100, abs=5e-4)
        assert BB84.q_threshold == pytest.approx(QTH_BB84, abs=1e-8)

    def test_sarg(self):
        assert SARG04.q_threshold == pytest.approx(0.0968, abs=5e-4)
        assert SARG04.q_threshold == pytest.approx(QTH_SARG, abs=1e-8)

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_residual(self, spec):
        q = spec.q_threshold
        assert abs(mutual_info_ab(q) - eve_info_single(spec, q)) < 1e-9
        assert 0.0 < q < 0.5

    def test_bb84_root_halves_entropy(self):
        assert binary_entropy(BB84.q_threshold) == pytest.approx(0.5, abs=1e-8)

    def test_no_bracket_failure(self):
        # a custom protocol whose margin never changes sign: with no Eve
        # information it is 1 - H(Q) >= 0 at y = 1, so no threshold exists
        spec = ProtocolSpec(name="no-eve", p_sift=0.5,
                            eve_info=lambda q, log2=math.log2: 0.0 * q,
                            q_max=0.5, i_ae_two=1.0)
        with pytest.raises(RuntimeError, match="no sign change bracketed"):
            spec.q_threshold


class TestPinnedConstants:
    # the contour bisection's bits: a change to its bracket, midpoints or
    # tolerance moves them, and every closed form built on them
    @pytest.mark.parametrize("spec, q_threshold, xi", [
        (BB84, "0.11002786443815746", "1.2533930902252077"),
        (SARG04, "0.09689248938700384", "0.6342421778031558"),
    ], ids=["bb84", "sarg04"])
    def test_repr(self, spec, q_threshold, xi):
        assert repr(spec.q_threshold) == q_threshold
        assert repr(spec.xi) == xi

    @settings(deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), y=st.floats(0.5, 1.0))
    @example(spec=BB84, y=1.0)
    @example(spec=SARG04, y=0.5)
    def test_contour_brackets_the_sign_change(self, spec, y):
        # the margin falls through 0 on [_Q_TOL, 2 Q_th] for y in [1/2, 1],
        # and the returned Q is within _Q_TOL of where it does
        q = _contour_q(spec, y, 2.0 * spec.q_threshold)
        assert positivity_margin(spec, q - _Q_TOL, y) > 0.0
        assert not positivity_margin(spec, q + _Q_TOL, y) > 0.0


class TestXi:
    def test_bb84(self):
        assert BB84.xi == pytest.approx(1.25, abs=0.01)

    def test_sarg(self):
        assert SARG04.xi == pytest.approx(0.64, abs=0.01)
        assert SARG04.xi > 0

    @pytest.mark.parametrize(
        "spec,rel", [(BB84, 0.01), (SARG04, 0.02)]
    )
    def test_reproduces_contour(self, spec, rel):
        # exact key-positivity contour vs the linearized threshold
        for y in (0.999, 0.99):
            q_exact = _contour_q(spec, y, spec.q_threshold)
            q_lin = spec.q_threshold * (1.0 - spec.xi * (1.0 - y))
            assert q_lin == pytest.approx(q_exact, rel=rel)

    @pytest.mark.parametrize("spec, slope, exact", [
        (BB84, lambda q: math.log2((1.0 - q) / q), XI_BB84),
        (SARG04, lambda q: math.log2(2.0 * (1.0 - 2.0 * q) ** 2 / (q * (1.0 - q))),
         XI_SARG),
    ], ids=["bb84", "sarg04"])
    def test_matches_the_contour_derivative(self, spec, slope, exact):
        # on the contour 1 - H(Q) - y I1(Q/y) - (1 - y) I_AE2 = 0, dQ/dy at
        # y = 1 is q_th xi, so xi = (I_AE2 - I1(q) + q I1'(q)) / (q (H'(q) +
        # I1'(q))) at q = q_th; I1' is H' = log2((1 - q)/q) for BB84 and the
        # slope analysis._margin_bound derives for SARG04.  In floats it is
        # within 4e-12 of the 40-digit value.  The Richardson-extrapolated xi
        # was measured 2.35e-8 (BB84) and 1.24e-7 (SARG04) off it, relative
        q = spec.q_threshold
        h_slope = math.log2((1.0 - q) / q)
        xi = (spec.i_ae_two - spec.eve_info(q) + q * slope(q)) / (q * (h_slope + slope(q)))
        assert xi == pytest.approx(exact, rel=0.0, abs=4e-12)
        assert spec.xi == pytest.approx(xi, rel=2e-7)

    def test_bound_at_y_one_is_threshold(self):
        # at y=1 the linearized bound reduces to Q < Q_th regardless of xi
        for spec in (BB84, SARG04):
            assert spec.q_threshold * (1.0 - spec.xi * 0.0) == spec.q_threshold


class TestPnsApplicable:
    def test_bb84_always_below_half(self):
        assert pns_applicable(BB84, 0.1, 0.5)
        for q in np.linspace(0.0, 0.25, 11):
            for y in np.linspace(0.5, 1.0, 11):
                if q / y <= 0.5:
                    assert pns_applicable(BB84, q, y)

    def test_sarg_trivial(self):
        assert pns_applicable(SARG04, 0.0, 1.0)

    def test_sarg_derived_false(self):
        # Q/y = 0.4 -> SARG04 single-photon gain 0.951 exceeds 0.6009
        assert SARG_I1_04 > HOLEVO_SARG
        assert not pns_applicable(SARG04, 0.2, 0.5)

    def test_out_of_domain_is_false(self):
        assert not pns_applicable(SARG04, 0.4, 0.5)
        assert not pns_applicable(BB84, 0.4, 0.5)


class TestPositivityMargin:
    def test_domain_ends(self):
        # BB84's domain [0, 1/2] is closed, SARG04's [0, 1/2) is open
        assert SARG04.q_max == math.nextafter(0.5, 0.0)
        assert math.isfinite(positivity_margin(BB84, 0.25, 0.5))
        assert math.isnan(positivity_margin(SARG04, 0.25, 0.5))
        assert math.isfinite(positivity_margin(SARG04, 0.2, 0.5))
        for spec in (BB84, SARG04):
            assert math.isnan(positivity_margin(spec, 0.3, 0.5))

    @given(st.sampled_from([BB84, SARG04]), st.floats(0.0, 0.25),
           st.floats(0.5, 1.0))
    def test_matches_definition(self, spec, q, y):
        assume(q / y <= spec.q_max)
        expected = (
            mutual_info_ab(q)
            - y * eve_info_single(spec, q / y)
            - (1.0 - y) * spec.i_ae_two
        )
        assert positivity_margin(spec, q, y) == expected

    @pytest.mark.parametrize("function", [
        positivity_margin, pns_applicable, renormalized_key_rate,
    ])
    @pytest.mark.parametrize("q, y", [
        (0.1, 2.0), (0.1, 1.5), (0.1, 0.0), (0.1, -0.5), (0.1, math.nan),
        (-0.1, 0.5), (math.nan, 0.5),
    ])
    def test_range_checked(self, function, q, y):
        # one check for every caller-facing (Q, y) entry point
        for spec in (BB84, SARG04):
            with pytest.raises(ValueError, match=r"require Q >= 0 and 0 < y <= 1"):
                function(spec, q, y)

    def test_vanishes_at_threshold(self):
        for spec in (BB84, SARG04):
            assert positivity_margin(spec, spec.q_threshold, 1.0) == pytest.approx(
                0.0, abs=1e-11
            )


class TestSecurityTerms:
    """The private kernel states the whole validity rule, y > 0 and
    Q/y <= q_max: outside it the result is (NaN, False), with no error."""

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    @pytest.mark.parametrize("q, y", [
        (0.1, 0.0), (0.0, 0.0), (0.1, -0.0), (0.1, -0.5), (0.1, math.nan),
    ])
    def test_y_not_positive(self, spec, q, y):
        margin, valid = _security_terms(spec, q, y)
        assert math.isnan(margin) and valid is False

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_one_ulp_above_q_max(self, spec):
        y = 0.5  # halving is exact, so Q/y is the ratio below bit for bit
        above = math.nextafter(spec.q_max, 1.0)
        assert (above * y) / y == above
        margin, valid = _security_terms(spec, above * y, y)
        assert math.isnan(margin) and valid is False
        margin, _ = _security_terms(spec, spec.q_max * y, y)
        assert math.isfinite(margin)


class TestProtocolSpec:
    def test_sifting_fractions(self):
        assert BB84.p_sift == 0.5
        assert SARG04.p_sift == 0.25

    def test_lookup(self):
        assert get_protocol("BB84") is BB84
        assert get_protocol("sarg04") is SARG04
        with pytest.raises(ValueError):
            get_protocol("six-state")

    @pytest.mark.parametrize("name", [3, None, b"bb84"])
    def test_lookup_of_a_non_string_is_an_unknown_protocol(self, name):
        with pytest.raises(ValueError, match="unknown protocol"):
            get_protocol(name)

    def test_cached_constants_are_stable(self):
        assert BB84.q_threshold == BB84.q_threshold
        assert SARG04.xi == SARG04.xi


def test_package_api_is_the_module_lists():
    import heralded_qkd
    from heralded_qkd import analysis, keyrate, protocol, source_detector

    modules = (analysis, keyrate, protocol, source_detector)
    assert heralded_qkd.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(heralded_qkd.__all__)) == 40
    for m in modules:
        for name in m.__all__:
            assert getattr(heralded_qkd, name) is getattr(m, name)


def test_no_module_imports_an_unused_name():
    # the standard-library stand-in for a linter's unused-import rule; a name
    # listed in a module's __all__ is a re-export, so it counts as used
    import ast
    from pathlib import Path

    import heralded_qkd

    unused = []
    for path in sorted(Path(heralded_qkd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used.update(c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant))
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_analysis_imports_numpy():
    # every array pass lives in analysis, so the rest of the package, the CLI
    # included, is plain Python
    import ast
    from pathlib import Path

    import heralded_qkd

    importers = set()
    for path in Path(heralded_qkd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.add(path.name)
    assert importers == {"analysis.py"}


def test_only_beats_reads_the_array_tolerance():
    # every comparison of array scores goes through analysis._beats, so the
    # array kernel's error bound has one reader
    import ast
    from pathlib import Path

    import heralded_qkd

    readers = set()
    for path in Path(heralded_qkd.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if ((isinstance(node, ast.Name) and node.id == "_KEY_RATE_ARRAY_TOL"
                     and isinstance(node.ctx, ast.Load))
                        or (isinstance(node, ast.Attribute)
                            and node.attr == "_KEY_RATE_ARRAY_TOL")):
                    readers.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert readers == {"analysis._beats"}


def test_no_function_mutates_module_state():
    # plans travel as arguments: no function writes to a module-level name,
    # by a mutating method, a subscript store or delete, or a global statement
    import ast
    from pathlib import Path

    import heralded_qkd

    mutators = {"add", "append", "clear", "discard", "extend", "insert", "pop",
                "popitem", "remove", "reverse", "setdefault", "sort", "update"}
    writes = []
    for path in Path(heralded_qkd.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        targets = [target for top in tree.body for target in (
            top.targets if isinstance(top, ast.Assign)
            else [top.target] if isinstance(top, (ast.AnnAssign, ast.AugAssign)) else [])]
        names = {node.id for target in targets
                 for node in ast.walk(target) if isinstance(node, ast.Name)}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in mutators)
                store = (isinstance(node, ast.Subscript)
                         and isinstance(node.ctx, (ast.Store, ast.Del)))
                target = node.func.value if call else node.value if store else None
                if (isinstance(node, ast.Global)
                        or (isinstance(target, ast.Name) and target.id in names)):
                    writes.append(f"{path.stem}.{func.name}:{node.lineno}")
    assert writes == []
