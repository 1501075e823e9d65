"""Normal forms: NNF, prenex, DNF."""

import pytest

from repro.logic import (
    Exists,
    FALSE,
    Forall,
    Not,
    RelAtom,
    TRUE,
    evaluate,
    is_quantifier_free,
    qf_to_dnf,
    to_nnf,
    to_prenex,
    variables,
)
from repro._errors import NotQuantifierFree

x, y, z = variables("x y z")


class TestNNF:
    def test_negated_comparison_resolved(self):
        f = to_nnf(~(x < y))
        # No Not nodes over comparisons.
        assert "NOT" not in str(f)
        assert str(f) == "x >= y"

    def test_de_morgan_and(self):
        f = to_nnf(~((x < 1) & (y < 1)))
        assert str(f) == "x >= 1 OR y >= 1"

    def test_de_morgan_or(self):
        f = to_nnf(~((x < 1) | (y < 1)))
        assert str(f) == "x >= 1 AND y >= 1"

    def test_quantifier_duality(self):
        f = to_nnf(~Exists("x", x < 1))
        assert isinstance(f, Forall)

    def test_adom_quantifier_duality(self):
        from repro.logic import ExistsAdom, ForallAdom

        f = to_nnf(~ExistsAdom("x", x < 1))
        assert isinstance(f, ForallAdom)

    def test_negated_relation_atom_stays(self):
        f = to_nnf(~RelAtom("R", (x,)))
        assert isinstance(f, Not)

    def test_nnf_preserves_semantics(self):
        # Check at sample points over a small domain.
        f = ~((x < y) & ~(y < z))
        g = to_nnf(f)
        domain = [0, 1, 2]
        for a in domain:
            for b in domain:
                for c in domain:
                    env = {"x": a, "y": b, "z": c}
                    assert evaluate(f, env) == evaluate(g, env)


class TestPrenex:
    def test_simple_pull(self):
        f = (x < 1) & Exists("y", y > x)
        p = to_prenex(f)
        assert len(p.prefix) == 1
        assert p.prefix[0][0] is Exists
        assert is_quantifier_free(p.matrix)

    def test_negation_flips_quantifier(self):
        f = ~Exists("y", y > x)
        p = to_prenex(f)
        assert p.prefix[0][0] is Forall

    def test_colliding_bound_variables_renamed(self):
        f = Exists("y", y > x) & Exists("y", y < x)
        p = to_prenex(f)
        assert len(p.prefix) == 2
        names = {var for _, var in p.prefix}
        assert len(names) == 2

    def test_roundtrip_to_formula(self):
        f = Forall("x", Exists("y", x < y))
        p = to_prenex(f)
        rebuilt = p.to_formula()
        assert to_prenex(rebuilt).prefix == p.prefix

    def test_bound_variable_capture_avoided(self):
        # free x outside, bound x inside
        f = (x < 1) & Exists("x", x > 2)
        p = to_prenex(f)
        (kind, var), = p.prefix
        assert var != "x"
        assert "x" in p.matrix.free_variables()


class TestDNF:
    def test_atom_is_single_conjunct(self):
        assert qf_to_dnf(x < 1) == [[x < 1]]

    def test_true_is_empty_conjunct(self):
        assert qf_to_dnf(TRUE) == [[]]

    def test_false_is_empty_dnf(self):
        assert qf_to_dnf(FALSE) == []

    def test_distribution(self):
        f = (x < 1) & ((y < 1) | (z < 1))
        dnf = qf_to_dnf(f)
        assert len(dnf) == 2
        assert all(len(c) == 2 for c in dnf)

    def test_rejects_quantifiers(self):
        with pytest.raises(NotQuantifierFree):
            qf_to_dnf(Exists("x", x < 1))

    def test_dnf_preserves_semantics(self):

        f = ~((x < y) | ((y < z) & ~(x < z)))
        dnf = qf_to_dnf(f)
        domain = [0, 1, 2]
        for a in domain:
            for b in domain:
                for c in domain:
                    env = {"x": a, "y": b, "z": c}
                    expected = evaluate(f, env)
                    got = any(
                        all(evaluate(lit, env) for lit in conjunct)
                        for conjunct in dnf
                    )
                    assert got == expected
