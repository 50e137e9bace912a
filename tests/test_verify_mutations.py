"""Mutation tests of the certificate verifier: certify a drawn good tuple,
damage its certificate in one place, and check that the verifier (or the
JSON reader) names exactly that damage."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bninterp import Certificate, RuleApp, RuleParams, Tuple, certify, is_good, rho, verify_certificate
from bninterp.prover import PROVISO_DELTA1

_SETTINGS = settings(deadline=None, max_examples=60)


@pytest.fixture(scope="module")
def pool():
    """Certificates of every good tuple with r <= 7 and d <= 20 (one shared
    memo), and the roots whose certificates offer each kind of damage."""
    memo = {}
    certs = {}
    for r in range(1, 8):
        for d in range(1, 21):
            for g in range(0, d - r + 1):
                for ell in range(0, r // 2 + 1):
                    for m in range(0, rho(d, g, r) + 1):
                        t = Tuple(d, g, r, ell, m)
                        if is_good(t).is_good:
                            certs[t] = certify(t, memo=memo)
    rule_nodes = {n: j for n, j in memo.items() if isinstance(j, RuleApp)}
    swappable = {n for n, j in rule_nodes.items() if len(set(j.children)) > 1}
    with_params = {n for n, j in rule_nodes.items() if _int_params(j)}
    return {
        "certs": certs,
        "all": sorted(certs),
        "multi": sorted(t for t, c in certs.items() if len(c.nodes) > 1),
        "swappable": swappable,
        "swap": sorted(t for t, c in certs.items() if not swappable.isdisjoint(c.nodes)),
        "with_params": with_params,
        "params": sorted(t for t, c in certs.items() if not with_params.isdisjoint(c.nodes)),
    }


def _int_params(j: RuleApp) -> list:
    return [k for k in j.params.to_json() if k != "any_ni_is_2"]


def _replaced(cert: Certificate, node: Tuple, j) -> Certificate:
    nodes = dict(cert.nodes)
    nodes[node] = j
    return Certificate(root=cert.root, nodes=nodes)


@_SETTINGS
@given(data=st.data())
def test_deleting_a_node_is_detected(pool, data):
    t = data.draw(st.sampled_from(pool["multi"]))
    cert = pool["certs"][t]
    victim = data.draw(st.sampled_from(sorted(n for n in cert.nodes if n != t)))
    nodes = dict(cert.nodes)
    del nodes[victim]
    res = verify_certificate(Certificate(root=t, nodes=nodes))
    assert res.code == "MissingNode", (t, victim, res)

    t = data.draw(st.sampled_from(pool["all"]))
    nodes = dict(pool["certs"][t].nodes)
    del nodes[t]
    res = verify_certificate(Certificate(root=t, nodes=nodes))
    assert res.code == "RootMissing", (t, res)


@_SETTINGS
@given(data=st.data())
def test_swapping_two_distinct_children_is_detected(pool, data):
    t = data.draw(st.sampled_from(pool["swap"]))
    cert = pool["certs"][t]
    node = data.draw(st.sampled_from(sorted(pool["swappable"].intersection(cert.nodes))))
    j = cert.nodes[node]
    i, k = data.draw(
        st.sampled_from(
            [(i, k) for i in range(len(j.children)) for k in range(i) if j.children[i] != j.children[k]]
        )
    )
    children = list(j.children)
    children[i], children[k] = children[k], children[i]
    res = verify_certificate(_replaced(cert, node, j._replace(children=tuple(children))))
    assert res.code == "ChildMismatch", (t, node, i, k, res)


@_SETTINGS
@given(data=st.data())
def test_moving_an_integer_param_by_one_is_detected(pool, data):
    # every integer param enters a subgoal or a hypothesis of its rule
    t = data.draw(st.sampled_from(pool["params"]))
    cert = pool["certs"][t]
    node = data.draw(st.sampled_from(sorted(pool["with_params"].intersection(cert.nodes))))
    j = cert.nodes[node]
    key = data.draw(st.sampled_from(_int_params(j)))
    step = data.draw(st.sampled_from((-1, 1)))
    params = j.params._replace(**{key: getattr(j.params, key) + step})
    res = verify_certificate(_replaced(cert, node, j._replace(params=params)))
    assert res.code in ("PreconditionViolated", "ChildMismatch"), (t, node, key, step, res)


@_SETTINGS
@given(data=st.data())
def test_a_foreign_param_is_detected(pool, data):
    # a rule reads exactly the fields its params write to JSON; setting any
    # other one, or any_ni_is_2 on a rule without twist heights, is refused
    t = data.draw(st.sampled_from(pool["multi"]))
    cert = pool["certs"][t]
    node = data.draw(st.sampled_from(sorted(n for n, j in cert.nodes.items() if isinstance(j, RuleApp))))
    j = cert.nodes[node]
    key = data.draw(st.sampled_from([k for k in RuleParams._fields if k not in j.params.to_json()]))
    value = True if key == "any_ni_is_2" else data.draw(st.integers(-2, 99))
    params = j.params._replace(**{key: value})
    res = verify_certificate(_replaced(cert, node, j._replace(params=params)))
    assert res.code == "PreconditionViolated", (t, node, key, value, res)


def test_stripping_the_delta1_proviso_is_detected():
    t = Tuple(22, 3, 17, 0, 0)
    doc = certify(t).to_json()
    (row,) = [row for row in doc["nodes"] if row["tuple"] == list(t)]
    assert row["justification"].pop("proviso") == PROVISO_DELTA1
    res = verify_certificate(Certificate.from_json(doc))
    assert res.code == "ProvisoMismatch", res


@_SETTINGS
@given(data=st.data())
def test_a_made_up_proviso_is_detected(pool, data):
    # a certificate of more than one node has a rule node at its root
    t = data.draw(st.sampled_from(pool["multi"]))
    cert = pool["certs"][t]
    node = data.draw(st.sampled_from(sorted(n for n, j in cert.nodes.items() if isinstance(j, RuleApp))))
    j = cert.nodes[node]
    proviso = data.draw(st.sampled_from([p for p in (None, PROVISO_DELTA1, "assumes nothing") if p != j.proviso]))
    res = verify_certificate(_replaced(cert, node, j._replace(proviso=proviso)))
    assert res.code == "ProvisoMismatch", (t, node, proviso, res)


@_SETTINGS
@given(data=st.data())
def test_a_float_tuple_entry_is_refused_by_the_reader(pool, data):
    t = data.draw(st.sampled_from(pool["all"]))
    doc = json.loads(json.dumps(pool["certs"][t].to_json()))
    places = [doc["root"]]
    for row in doc["nodes"]:
        places.append(row["tuple"])
        places.extend(row["justification"].get("children", ()))
    place = data.draw(st.sampled_from(places))
    i = data.draw(st.integers(0, 4))
    place[i] = float(place[i])
    with pytest.raises(ValueError):
        Certificate.from_json(json.loads(json.dumps(doc)))
