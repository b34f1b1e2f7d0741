"""FlagManifold.table, the route of CLI table mode: each target word is
walked once for the factors its subwords spell, and only the pairs it holds
both factors of are evaluated.  Its records must be expand's over every
pair of the two levels, record for record."""

import hashlib
import itertools
import json

import pytest

from schuprod import cartan_matrix_by_name, oracles, schubert, weyl
from schuprod.cli import main
from schuprod.schubert import ORIENTATIONS, FlagManifold


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_table_is_expand_of_every_pair(name):
    # Every parabolic subset and every degree pair up to dim + 1, zeros
    # kept for odd d1 (so for square tables both ways): expand evaluates
    # (u, v) and (v, u) of a square table independently, the table once.
    c = cartan_matrix_by_name(name)
    reached = set()
    zeros = set()
    for size in range(c.n + 1):
        for p in itertools.combinations(range(1, c.n + 1), size):
            space = FlagManifold(c, p)
            for d1, d2 in itertools.product(range(space.dim + 2), repeat=2):
                include_zeros = d1 % 2 == 1
                pairs = [(u, v) for u in space.level(d1) for v in space.level(d2)]
                assert space.table(d1, d2, include_zeros) == space.expand(pairs, include_zeros), (p, d1, d2)
                if d1 + d2 <= space.dim:
                    reached.add(space.evaluation(d1, d2)["orientation"])
                    zeros.add(include_zeros)
    assert reached == set(ORIENTATIONS) and zeros == {False, True}


def test_square_tables_evaluate_each_unordered_pair_once(monkeypatch):
    # B3 flag (dimension 9) 2 x 2 is direct and 4 x 4 dual_u: the batches
    # hold only the pairs u <= v, where expand evaluates both orders.
    batches = []
    original = schubert._eliminate_products

    def recording(letters, factors, c):
        batches.append(len(factors))
        return original(letters, factors, c)

    monkeypatch.setattr(schubert, "_eliminate_products", recording)
    space = FlagManifold(cartan_matrix_by_name("B3"))
    for d, orientation in [(2, "direct"), (4, "dual_u")]:
        assert space.evaluation(d, d)["orientation"] == orientation
        batches.clear()
        terms = space.table(d, d)
        evaluated = sum(batches)
        level = space.level(d)
        assert terms == space.expand([(u, v) for u in level for v in level])
        assert 0 < evaluated <= len(level) * (len(level) + 1) // 2 * len(space.level(2 * d))
        assert sum(batches) - evaluated > evaluated


def test_table_solves_no_factor_on_its_own(capsys, monkeypatch):
    # The parent solved 1,300 factors one by one on E6 flag 1 x 2.
    calls = []
    original = schubert._solutions

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(schubert, "_solutions", counting)
    assert main(["--type", "E6", "--table", "1", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6 * 20
    assert calls == []


def test_e8_flag_degree_one_products_match_chevalley(capsys):
    e8 = cartan_matrix_by_name("E8")
    assert main(["--type", "E8", "--table", "1", "2", "--json"]) == 0
    products: dict = {}
    for rec in json.loads(capsys.readouterr().out)["records"]:
        v, w = (weyl.element_of_word(rec[key], e8) for key in ("v_word", "w_word"))
        products.setdefault((rec["u_word"][0], v), {})[w] = rec["value"]
    space = FlagManifold(e8)
    assert len(products) == len(space.level(1)) * len(space.level(2))
    for (i, v), product in products.items():
        assert oracles.chevalley(i, v, e8) == product


# Record counts and digests recorded from the triple-grid tables that the
# per-target walk replaced.
@pytest.mark.parametrize(
    "name, degree, count, digest",
    [
        ("E6", 3, 16645, "699690fad6ecc2b9a4c7d993456ddb8368b39c5b4dd1f9d7400c5d4dfef140ef"),
        ("E8", 2, 2968, "a3f8a7c52548de89867d0b6171bc043dcfd3b92384936733220adfc0d4342e35"),
    ],
)
def test_flag_table_matches_its_digest(capsys, name, degree, count, digest):
    d = str(degree)
    assert main(["--type", name, "--table", d, d, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    records = report.pop("records")
    assert report == {
        "degrees": [degree, degree],
        "evaluation": {"orientation": "direct", "word_length": 2 * degree},
        "format_version": 1,
        "group": cartan_matrix_by_name(name).as_lists(),
        "mode": "table",
        "parabolic": [],
    }
    assert len(records) == count
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == digest


def _degree_checksum_misses(space, d1, d2, weights, records):
    """The pairs (u, v) of level(d1) x level(d2) whose records break
    sum_w a^w_{u,v} deg_h(w) = [u∨](v h^m) for one of the weight vectors,
    where h = sum c_i s_i over the nodes i outside the parabolic,
    m = dim - d1 - d2 and deg_h(w) = the integral of w h^(dim - l(w)).
    Both sides come from Chevalley's formula and the duals alone: deg_h
    from one sweep down the levels, each element's products memoised."""
    c, dim = space.c, space.dim
    nodes = [i for i in range(1, c.n + 1) if i not in space.parabolic.indices]
    products = {}

    def times_h(x, weight):
        if x not in products:
            products[x] = {i: oracles.chevalley(i, x, c, space.parabolic) for i in nodes}
        out = {}
        for i, a in zip(nodes, weight):
            for y, b in products[x][i].items():
                out[y] = out.get(y, 0) + a * b
        return out

    found = {}
    for r in records:
        found.setdefault((r.u, r.v), []).append(r)
    (top,) = space.level(dim)
    misses = set()
    for weight in weights:
        deg = {top: 1}
        for d in range(dim - 1, d1 + d2 - 1, -1):
            for x in space.level(d):
                deg[x] = sum(b * deg[y] for y, b in times_h(x, weight).items())
        for v in space.level(d2):
            product = {v: 1}
            for _ in range(dim - d1 - d2):
                step = {}
                for x, a in product.items():
                    for y, b in times_h(x, weight).items():
                        step[y] = step.get(y, 0) + a * b
                product = step
            for u in space.level(d1):
                left = sum(r.value * deg[r.w] for r in found.get((u, v), ()))
                if left != product.get(space.dual(u), 0):
                    misses.add((u, v))
    return misses


@pytest.mark.parametrize(
    "name, parabolic, d1, d2",
    [
        ("A3", (), 1, 2), ("B3", (), 2, 2), ("G2", (), 2, 2),
        ("F4", (1, 2, 3), 3, 3), ("E6", (2, 3, 4, 5, 6), 3, 4),
    ],
    ids=["A3", "B3", "G2", "F4-P4", "E6-P1"],
)
def test_table_passes_the_degree_checksum(name, parabolic, d1, d2):
    # Pairing the product of u and v with h^m gives one linear check per
    # pair and weight vector that shares no solver or operator code with
    # the table (on a maximal parabolic the second vector only scales h).
    # Every deg_h(w) is positive, so raising one value breaks its pair's
    # check.
    space = FlagManifold(cartan_matrix_by_name(name), parabolic)
    records = space.table(d1, d2)
    outside = space.c.n - len(parabolic)
    weights = [(1,) * outside, tuple(range(2, outside + 2))]
    assert records and not _degree_checksum_misses(space, d1, d2, weights, records)
    first = records[0]
    raised = [schubert.StructureConstant(first.u, first.v, first.w, first.value + 1), *records[1:]]
    assert _degree_checksum_misses(space, d1, d2, weights, raised) == {(first.u, first.v)}
