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
