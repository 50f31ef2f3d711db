import pytest

from regcc.automata import CcError, Dfa, builtin_language
from regcc.classify import (
    BUILTIN_MONOID_NAMES, Certificate, builtin_monoid, classify_nondet,
    find_polcom_exclusion_witness, find_shuffle_witness, is_shuffle,
    serialize_classification, verify_certificate,
)
from regcc.monoid import (
    check_property, eval_word, find_tq, maximal_subgroups,
    nonabelian_subgroup_witness, syntactic_ordered_monoid,
)
from regcc.reductions import lt_reduction, verify_reduction


def classify_lang(name, **kw):
    return classify_nondet(builtin_language(name), **kw)


# --- is_shuffle ---------------------------------------------------------------

def test_is_shuffle_basics():
    assert is_shuffle("ba", "a", "b")
    assert is_shuffle("ab", "ab", "")
    assert is_shuffle("aabb", "ab", "ab")
    assert not is_shuffle("bbaa", "ab", "ab")
    assert not is_shuffle("aab", "ab", "ab")
    assert is_shuffle("", "", "")


# --- witness searches -----------------------------------------------------------

def test_shuffle_witness_ba2():
    om, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    assert find_shuffle_witness(om) == ("ab", "a", "b", "ba")


def test_shuffle_witness_u_plus():
    om, _, _ = syntactic_ordered_monoid(builtin_language("U_PLUS_LANG"))
    witness = find_shuffle_witness(om)
    assert witness is not None
    u, w1, w2, v = witness
    m = om.monoid
    eu = eval_word(m, u)
    assert u == w1 + w2 and is_shuffle(v, w1, w2)
    assert m.mul(eu, eu) == eu
    assert not om.leq(m.mul(m.mul(eu, eval_word(m, v)), eu), eu)


def test_shuffle_witness_absent():
    for name in ("Z3_LANG", "U_MINUS_LANG", "L5"):
        om, _, _ = syntactic_ordered_monoid(builtin_language(name))
        assert find_shuffle_witness(om) is None


def test_polcom_witness_l5():
    om, _, _ = syntactic_ordered_monoid(builtin_language("L5"))
    assert find_polcom_exclusion_witness(om) == ("abab", "bbaa")


def test_polcom_witness_ba2():
    om, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    assert find_polcom_exclusion_witness(om) == ("ab", "ba")


def test_polcom_witness_absent_in_polcom_languages():
    # U- is sigma* aa sigma*, a polynomial-closure language, so no witness
    # may exist; same for commutative languages
    for name in ("U_MINUS_LANG", "Z3_LANG"):
        om, _, _ = syntactic_ordered_monoid(builtin_language(name))
        assert find_polcom_exclusion_witness(om) is None


def test_witness_length_cap():
    om, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    for max_len in (-2, 0, 9):
        with pytest.raises(CcError):
            find_shuffle_witness(om, max_len=max_len)


@pytest.mark.parametrize("replay, search", [
    ("is_shuffle_witness", find_shuffle_witness),
    ("_replay_polcom", find_polcom_exclusion_witness),
])
def test_witness_failing_its_replay_raises(monkeypatch, replay, search):
    # the check must survive python -O, so it is a raise, not an assert
    om, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    monkeypatch.setattr("regcc.classify." + replay, lambda *args: False)
    with pytest.raises(CcError, match="fails its replay"):
        search(om)


# --- built-in monoids --------------------------------------------------------------

def test_builtin_monoid_names_round():
    for name in BUILTIN_MONOID_NAMES:
        om, ideal = builtin_monoid(name, q=3 if name == "TQ_EXAMPLE" else None)
        assert om.size >= 1
    with pytest.raises(CcError):
        builtin_monoid("NOPE")
    with pytest.raises(CcError):
        builtin_monoid("TQ_EXAMPLE")


def test_divisor_monoids_built_once(monkeypatch):
    # classification and division replays reuse the cached divisors, so
    # the only syntactic monoid built is the input's own
    builtin_monoid("BA2_PLUS")
    builtin_monoid("U_PLUS")
    built = []
    monkeypatch.setattr("regcc.classify.syntactic_ordered_monoid",
                        lambda d: built.append(d) or syntactic_ordered_monoid(d))
    d = builtin_language("BA2_LANG")
    r = classify_nondet(d)
    om, _, _ = syntactic_ordered_monoid(d)
    assert any(c.kind.startswith("divides_") for c in r.certificates)
    assert all(verify_certificate(om, c) for c in r.certificates)
    assert built == [d]


def test_tq_example_has_orbit():
    for q in (2, 3, 4):
        om, _ = builtin_monoid("TQ_EXAMPLE", q=q)
        got = find_tq(om.monoid)
        assert got is not None and got[0] == q


def test_s3_nonabelian_subgroup():
    om, _ = builtin_monoid("S3")
    groups = maximal_subgroups(om.monoid)
    assert any(len(g) == 6 for _, g in groups)
    assert nonabelian_subgroup_witness(om.monoid) is not None


def test_ba2_plus_top_element():
    om, ideal = builtin_monoid("BA2_PLUS")
    aa = eval_word(om.monoid, "aa")
    assert all(om.leq(x, aa) for x in range(om.size))
    assert ideal is not None


# --- classification ------------------------------------------------------------------

def test_classify_z3_constant():
    r = classify_lang("Z3_LANG")
    assert r.tier == "CONSTANT"
    assert r.certificate("commutative") is not None


def test_classify_ba2_linear_with_shuffle():
    r = classify_lang("BA2_LANG")
    assert r.tier == "LINEAR_LOWER"
    cert = r.certificate("shuffle")
    assert dict(cert.data) == {"u": "ab", "w1": "a", "w2": "b", "v": "ba"}


def test_classify_u_plus_linear():
    assert classify_lang("U_PLUS_LANG").tier == "LINEAR_LOWER"


def test_classify_u_minus_log():
    r = classify_lang("U_MINUS_LANG")
    assert r.tier == "LOG_LOWER"
    assert r.certificate("noncommuting_pair") is not None
    assert r.certificate("polcom_exclusion") is None


def test_classify_s3_subgroup_certificate():
    om, _ = builtin_monoid("S3")
    r = classify_nondet(om)
    assert r.tier == "LINEAR_LOWER"
    assert r.certificate("nonabelian_subgroup") is not None


def test_classify_tq_certificate():
    om, _ = builtin_monoid("TQ_EXAMPLE", q=3)
    r = classify_nondet(om)
    assert r.tier == "LINEAR_LOWER"
    assert r.certificate("tq").get("q") == 3


def test_classify_l5_gap():
    r = classify_lang("L5")
    assert r.tier == "UNRESOLVED_GAP"
    cert = r.certificate("polcom_exclusion")
    assert dict(cert.data) == {"u": "abab", "v": "bbaa"}
    # no linear certificate may be present
    assert not any(r.certificate(k) for k in
                   ("tq", "nonabelian_subgroup", "shuffle"))
    # division by both six-element monoids is decided, and absent
    assert not any(r.certificate(k) for k in
                   ("divides_ba2_plus", "divides_u_plus"))
    assert dict(r.search_bounds) == {"max_witness_len": 6}


def test_classify_log_witness_direction():
    for name in ("BA2_LANG", "U_MINUS_LANG", "L5"):
        om, _, _ = syntactic_ordered_monoid(builtin_language(name))
        r = classify_nondet(om)
        cert = r.certificate("noncommuting_pair")
        m = om.monoid
        a = eval_word(m, cert.get("a"))
        b = eval_word(m, cert.get("b"))
        ab, ba = m.mul(a, b), m.mul(b, a)
        assert ab != ba
        if cert.get("direction") == "ba_nleq_ab":
            assert not om.leq(ba, ab)
        else:
            assert not om.leq(ab, ba)


def test_noncommuting_pair_ab_not_below_ba():
    # a resets to the accepting state, b to the rejecting one: ba = a is
    # below ab = b, so the first pair (a, b) comes out in the other direction
    d = Dfa.make("ab", 2, 0, {0}, {"a": [0, 0], "b": [1, 1]})
    om, _, _ = syntactic_ordered_monoid(d)
    r = classify_nondet(om)
    assert serialize_classification(r, om) == (
        "tier: LOG_LOWER\n"
        "certificate: noncommuting_pair a=a b=b direction=ab_nleq_ba replay=ok\n"
        "bound: max_witness_len=6\n")
    flipped = Certificate.make("noncommuting_pair", a="a", b="b",
                               direction="ba_nleq_ab")
    assert not verify_certificate(om, flipped)
    m = om.monoid
    a, b = m.generator_map["a"], m.generator_map["b"]
    with pytest.raises(CcError):
        lt_reduction(om, a, b)
    assert verify_reduction(lt_reduction(om, b, a), 3).status == "PASS"


@pytest.mark.parametrize("name", ["Z3_LANG", "BA2_LANG", "U_PLUS_LANG",
                                  "U_MINUS_LANG", "L5"])
def test_all_certificates_replay(name):
    om, _, _ = syntactic_ordered_monoid(builtin_language(name))
    r = classify_nondet(om)
    for cert in r.certificates:
        assert verify_certificate(om, cert), cert


def test_certificate_replay_rejects_fakes():
    om, _, _ = syntactic_ordered_monoid(builtin_language("BA2_LANG"))
    assert not verify_certificate(om, Certificate.make("commutative"))
    assert not verify_certificate(
        om, Certificate.make("shuffle", u="ab", w1="a", w2="b", v="ab"))
    assert not verify_certificate(
        om, Certificate.make("tq", q=2, e="ab", f="ba"))
    assert verify_certificate(
        om, Certificate.make("polcom_exclusion", u="ab", v="ba"))
    # a is not idempotent
    assert not verify_certificate(
        om, Certificate.make("polcom_exclusion", u="a", v="a"))
    # bb and aab are no rearrangements of ab, though all three words have
    # one image in BA2's two-element commutative quotient
    for v in ("bb", "aab"):
        assert not verify_certificate(
            om, Certificate.make("polcom_exclusion", u="ab", v=v))
    # in Z3, a^w is the identity and a is not below it: only idempotence
    # rejects u = a
    z3, _, _ = syntactic_ordered_monoid(builtin_language("Z3_LANG"))
    assert not verify_certificate(
        z3, Certificate.make("polcom_exclusion", u="a", v="a"))
    with pytest.raises(CcError):
        verify_certificate(om, Certificate.make("sorcery"))


def test_classify_constant_agrees_with_commutative_check():
    for name in ("Z3_LANG", "BA2_LANG", "U_MINUS_LANG", "U_PLUS_LANG", "L5"):
        om, _, _ = syntactic_ordered_monoid(builtin_language(name))
        r = classify_nondet(om)
        assert (r.tier == "CONSTANT") == check_property(om, "commutative")[0]


def test_serialize_classification():
    om, _, _ = syntactic_ordered_monoid(builtin_language("L5"))
    text = serialize_classification(classify_nondet(om), om)
    assert text.startswith("tier: UNRESOLVED_GAP\n")
    assert "certificate: polcom_exclusion u=abab v=bbaa replay=ok" in text
    assert "bound: max_witness_len=6" in text
