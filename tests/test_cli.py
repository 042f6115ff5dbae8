import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from opmagic import Circuit, Gate, SparseOperator, __version__, cli, haar, heisenberg
from opmagic.cli import main, parse_alpha, parse_alphas, parse_angle, parse_range


def write_circuit(tmp_path, circuit, name="circuit.json"):
    path = tmp_path / name
    path.write_text(json.dumps(circuit.to_json_dict()))
    return str(path)


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def t_ladder(n):
    return Circuit(n, tuple(Gate("T", (q,)) for q in range(n)))


class TestParsers:
    def test_parse_angle(self):
        assert parse_angle("0.3927") == pytest.approx(0.3927)
        assert parse_angle("pi/8") == pytest.approx(math.pi / 8)
        assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
        assert parse_angle("3*pi/8") == pytest.approx(3 * math.pi / 8)
        assert parse_angle("pi") == pytest.approx(math.pi)
        with pytest.raises(ValueError):
            parse_angle("eight")
        with pytest.raises(ValueError):
            parse_angle("pi/0")

    def test_parse_alphas(self):
        assert parse_alphas("0.5,1,2,inf") == [0.5, 1.0, 2.0, math.inf]

    def test_parse_alpha_rejects_text(self):
        with pytest.raises(ValueError, match="cannot parse alpha 'x'"):
            parse_alpha("x")

    def test_parse_angle_lives_in_the_core(self):
        from opmagic import cli, heisenberg

        assert cli.parse_angle is heisenberg.parse_angle

    def test_core_modules_do_not_import_cli(self):
        import opmagic

        package = Path(opmagic.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name in ("cli.py", "__main__.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                else:
                    continue
                if any("cli" in name.split(".") for name in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_no_module_imports_a_private_name_of_another(self):
        # a name with a leading underscore is its module's own; dunders like __version__ are public
        import opmagic

        def private(name):
            return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

        package = Path(opmagic.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "opmagic"):
                    names = [*(node.module or "").split("."), *(a.name for a in node.names)]
                elif isinstance(node, ast.Import):
                    names = [part for a in node.names if a.name.split(".")[0] == "opmagic"
                             for part in a.name.split(".")]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} {name}" for name in names if private(name)]
        assert offenders == []

    def test_cli_leaves_the_closed_form_choice_to_xxz(self):
        assert not hasattr(cli, "alpha1_ose")

    @pytest.mark.parametrize("text", ["inf", "Infinity", " INF ", "iNfInItY", "+inf", "-Infinity", " 2 ", "1e3"])
    def test_parse_alpha_reads_what_float_reads(self, text):
        assert parse_alpha(text) == float(text)

    def test_only_paulis_packs_bits(self):
        # the row packers live in one module; every other module calls them
        import opmagic

        package = Path(opmagic.__file__).parent
        offenders = []
        for path in sorted(package.glob("*.py")):
            if path.name == "paulis.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = [node.attr] if isinstance(node, ast.Attribute) else []
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                if {"packbits", "unpackbits"} & set(names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_dense_oracle_does_not_use_the_engine(self):
        # dense.py is the ground truth the engine is checked against, so it
        # names neither the engine's entry points nor its private functions
        import opmagic

        package = Path(opmagic.__file__).parent
        engine = ast.parse((package / "heisenberg.py").read_text(encoding="utf-8"))
        forbidden = {"evolve_heisenberg", "conjugate_gate"} | {
            node.name
            for node in engine.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        }
        assert "_propagate" in forbidden
        offenders = []
        for node in ast.walk(ast.parse((package / "dense.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.rsplit(".", 1)[-1] for a in node.names]
            else:
                continue
            offenders += [f"dense.py:{node.lineno}: {n}" for n in names if n in forbidden]
        assert offenders == []

    def test_parse_range(self):
        assert parse_range("1..4") == [1, 2, 3, 4]
        assert parse_range("7") == [7]
        assert parse_range("1,3,5") == [1, 3, 5]


@pytest.mark.parametrize("command", ["evolve", "ose", "truncate-study"])
def test_evolution_options_declared_once(command, capsys):
    # --circuit and --seed-op come from one helper, with one help text
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert '--circuit CIRCUIT --seed-op SEED_OP' in text
    assert '--seed-op SEED_OP e.g. "X0 X1" or "+XZI"' in text


class TestOseCommand:
    def test_t_ladder_gives_four(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(4))
        out = tmp_path / "ose.csv"
        code = main(
            ["ose", "--circuit", circuit, "--seed-op", "X0 X1 X2 X3",
             "--alpha", "2", "--out", str(out)]
        )
        assert code == 0
        header, row = read_csv_rows(out)
        assert header[:3] == ["alpha", "purity", "ose"]
        assert float(row[2]) == pytest.approx(4.0, abs=1e-12)

    def test_alpha_list_and_inf(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(2))
        out = tmp_path / "ose.csv"
        assert main(
            ["ose", "--circuit", circuit, "--seed-op", "XX",
             "--alpha", "1,2,inf", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert [r[0] for r in rows] == ["1", "2", "inf"]
        for r in rows:
            assert float(r[2]) == pytest.approx(2.0, abs=1e-12)

    def test_large_finite_alpha(self, tmp_path):
        # eight equal weights 1/8: sum p^2000 underflows, yet every index gives 3
        circuit = write_circuit(tmp_path, t_ladder(3))
        out = tmp_path / "ose.csv"
        assert main(
            ["ose", "--circuit", circuit, "--seed-op", "XXX",
             "--alpha", "2,2000,inf", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert [r[0] for r in rows] == ["2", "2000", "inf"]
        for r in rows:
            assert float(r[2]) == pytest.approx(3.0, abs=1e-12)

    def test_provenance_header(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, t_ladder(2))
        assert main(["ose", "--circuit", circuit, "--seed-op", "XX"]) == 0
        captured = capsys.readouterr().out
        assert "# tool=opmagic" in captured and "# params=" in captured


class TestEvolveCommand:
    def test_round_trip_bit_identical(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(3))
        out = tmp_path / "op.json"
        assert main(
            ["evolve", "--circuit", circuit, "--seed-op", "XXX", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        reloaded = SparseOperator.from_json_dict(data["operator"])
        from opmagic import evolve_heisenberg, PauliString

        want = evolve_heisenberg(
            SparseOperator.from_pauli(PauliString.from_label("XXX")), t_ladder(3)
        )
        assert reloaded.terms == want.terms


class TestXxzScanCommand:
    def test_linear_growth_at_pi_over_8(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert main(
            ["xxz-scan", "--J", "0.3927", "--t", "1..8", "--alpha", "2",
             "--ax", "1", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert len(rows) == 8
        for t, row in zip(range(1, 9), rows):
            assert float(row[6]) == pytest.approx(float(t), abs=1e-8)

    def test_simulate_flag(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert main(
            ["xxz-scan", "--J", "pi/8", "--t", "1..3", "--alpha", "2",
             "--ax", "1", "--simulate", "--out", str(out)]
        ) == 0
        for row in read_csv_rows(out)[1:]:
            assert float(row[8]) < 1e-9

    def test_alpha_inf(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert main(
            ["xxz-scan", "--J", "0.3", "--t", "1..3", "--alpha", "inf", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert [row[2] for row in rows] == ["inf"] * 3
        assert float(rows[0][6]) == pytest.approx(-math.log2(math.cos(0.6) ** 2), abs=1e-12)

    @pytest.mark.parametrize(
        "extra", [["--alpha", "2000"], ["--alpha", "1000", "--ax", "0.6", "--az", "0.8"]]
    )
    def test_large_finite_alpha(self, tmp_path, extra):
        out = tmp_path / "xxz.csv"
        assert main(["xxz-scan", "--J", "0.3", "--t", "1..2", *extra, "--out", str(out)]) == 0
        for row in read_csv_rows(out)[1:]:
            assert math.isfinite(float(row[6]))

    @pytest.mark.parametrize(
        "extra",
        [["--J", "pi/4", "--t", "1..3", "--alpha", "0.01", "--simulate"],
         ["--J", "0", "--t", "1", "--alpha", "2"]],
    )
    def test_clifford_points_print_zero(self, tmp_path, extra):
        out = tmp_path / "xxz.csv"
        assert main(["xxz-scan", *extra, "--out", str(out)]) == 0
        for row in read_csv_rows(out)[1:]:
            assert row[6] == "0.0"


    def test_simulate_evolves_each_depth_once(self, tmp_path, monkeypatch):
        from opmagic import xxz

        calls = []
        evolve = xxz.evolve_heisenberg
        monkeypatch.setattr(xxz, "evolve_heisenberg", lambda *a: calls.append(1) or evolve(*a))
        out = tmp_path / "xxz.csv"
        assert main(
            ["xxz-scan", "--J", "0.3", "--t", "1..4", "--alpha", "0.5,1,2,inf",
             "--ax", "0.6", "--az", "0.8", "--simulate", "--out", str(out)]
        ) == 0
        assert len(calls) == 4
        rows = read_csv_rows(out)[1:]
        assert len(rows) == 16
        assert all(float(row[8]) < 1e-9 for row in rows)

    @pytest.mark.parametrize("option", ["--ax", "--ay", "--az"])
    def test_nan_seed_coefficient_is_bad_input(self, option, capsys):
        assert main(["xxz-scan", "--J", "0.3", "--t", "1", "--alpha", "2", option, "nan"]) == 1
        captured = capsys.readouterr()
        assert f"a_{option[-1]} must be finite" in captured.err and captured.out == ""


    @pytest.mark.parametrize("seed", [["--ax", "1e155"], ["--ay", "1e200", "--ax", "0"],
                                      ["--az", "1e200", "--ax", "0"]])
    def test_huge_seed_coefficient_is_bad_input(self, seed, capsys):
        assert main(["xxz-scan", "--J", "0.3", "--t", "1", *seed]) == 1
        captured = capsys.readouterr()
        assert "not normalized" in captured.err and captured.out == ""

class TestHaarAvgCommand:
    def test_deterministic_output(self, tmp_path):
        args = ["haar-avg", "--n", "1", "--alpha", "2", "--samples", "300", "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_mean_near_closed_form(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(
            ["haar-avg", "--n", "2", "--alpha", "2", "--samples", "2000",
             "--seed", "5", "--out", str(out)]
        ) == 0
        (row,) = read_csv_rows(out)[1:]
        mean, stderr, closed = float(row[3]), float(row[4]), float(row[5])
        assert closed == pytest.approx(3 / 14, abs=1e-12)
        assert abs(mean - closed) < 3 * stderr

    def test_alpha_inf_and_zero(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(
            ["haar-avg", "--n", "2", "--alpha", "inf,0", "--samples", "100",
             "--seed", "5", "--out", str(out)]
        ) == 0
        (inf_row, zero_row) = read_csv_rows(out)[1:]
        assert inf_row[1] == "inf" and 1 / 15 <= float(inf_row[3]) <= 1.0
        assert float(zero_row[3]) == 15.0
        assert inf_row[5:] == zero_row[5:] == ["", ""]

    def test_golden_four_indices_one_pass(self, tmp_path):
        # mc_mean and stderr recorded when each index drew its own unitaries
        # one at a time; the batched pass that serves all four must match
        out = tmp_path / "h.csv"
        assert main(
            ["haar-avg", "--n", "4", "--alpha", "2,3,4,5", "--samples", "2000",
             "--seed", "1", "--workers", "2", "--out", str(out)]
        ) == 0
        assert [row[1:5] for row in read_csv_rows(out)[1:]] == [
            ["2", "2000", "0.011753815802502725", "2.7200885644363833e-05"],
            ["3", "2000", "0.0002300810785255769", "1.7075815488328785e-06"],
            ["4", "2000", "6.307909587825003e-06", "1.0600184420408472e-07"],
            ["5", "2000", "2.2208889670488967e-07", "7.066050193836152e-09"],
        ]

    def test_cli_leaves_the_reference_choice_to_haar(self, monkeypatch, capsys):
        # the CLI asks both references at every index; haar alone decides
        asked = {"closed": [], "asymptotic": []}
        for name, key in (("closed_form_avg_purity", "closed"), ("asymptotic_avg_purity", "asymptotic")):
            def recorded(dim, alpha, form=getattr(cli, name), key=key):
                asked[key].append(alpha)
                return form(dim, alpha)
            monkeypatch.setattr(cli, name, recorded)
        labels = "0,0.5,1,2,3,4,5,200,inf"
        assert main(["haar-avg", "--n", "2", "--samples", "10", "--alpha", labels]) == 0
        requested = [float(tok) for tok in labels.split(",")]
        assert asked == {"closed": requested, "asymptotic": requested}
        rows = list(csv.reader(ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")))
        assert [row[5] != "" for row in rows[1:]] == [False] * 3 + [True] * 4 + [False] * 2
        assert [row[6] != "" for row in rows[1:]] == [False] * 2 + [True] * 6 + [False]

    # pinned output at each kind of index: no reference, the asymptote only,
    # both, and an asymptote far above 1 (alpha = 200)
    GOLDEN = {
        3: """2,0,20,15.0,0.0,,
2,0.5,20,2.993546771408841,0.06919438948397723,,
2,1,20,1.0000000000000002,9.253806093251112e-17,,1.0
2,2,20,0.21851116381324562,0.01961019276823816,0.21428571428571427,0.1875
2,3,20,0.0747307321105538,0.013905730707041314,0.07142857142857142,0.05859375
2,4,20,0.03186465302225471,0.008715276574692735,0.030303030303030304,0.025634765625
2,5,20,0.015308019862553094,0.0053278788760913525,0.014985014985014986,0.0144195556640625
2,200,20,1.3097079691013321e-45,9.7645106169375e-46,,1.2124109675218646e+194
2,inf,20,0.3509371643550914,0.02937119014607406,,
""",
        4: """2,0,20,15.0,0.0,,
2,0.5,20,2.9568042771696263,0.07297194221435398,,
2,1,20,1.0,8.693534701553318e-17,,1.0
2,2,20,0.22257410233088226,0.020625230141381755,0.21428571428571427,0.1875
2,3,20,0.07587789125781479,0.0141755957116372,0.07142857142857142,0.05859375
2,4,20,0.031788821607961024,0.00868880576567039,0.030303030303030304,0.025634765625
2,5,20,0.014944276617642579,0.005319921121979847,0.014985014985014986,0.0144195556640625
2,200,20,9.603099935000681e-42,9.603099935000677e-42,,1.2124109675218646e+194
2,inf,20,0.3472404141491473,0.02916354222962029,,
""",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_references_at_every_kind_of_index(self, seed, capsys):
        alphas = "0,0.5,1,2,3,4,5,200,inf"
        assert main(["haar-avg", "--n", "2", "--samples", "20", "--seed", str(seed), "--alpha", alphas]) == 0
        out = capsys.readouterr().out
        params = {"alpha": alphas, "n": 2, "samples": 20, "seed": seed, "workers": 1}
        assert out == (
            f"# tool=opmagic\n# version={__version__}\n# command=haar-avg\n"
            f"# params={json.dumps(params, sort_keys=True)}\n"
            "n,alpha,samples,mc_mean,stderr,closed_form,asymptotic\n" + self.GOLDEN[seed]
        )

    @pytest.mark.parametrize("alpha", ["1000", "1e308"])
    def test_asymptote_past_the_float_range_is_a_blank_cell(self, alpha, capsys):
        # an OverflowError at 1000, and a hang forming (2 alpha - 1)!! at 1e308
        start = time.perf_counter()
        assert main(["haar-avg", "--n", "2", "--samples", "10", "--alpha", alpha]) == 0
        assert time.perf_counter() - start < 1.0
        (row,) = list(csv.reader(capsys.readouterr().out.splitlines()))[5:]
        assert row[5:] == ["", ""]

    def test_qubit_count_past_the_index_range_is_bad_input(self, capsys):
        # 1 << n ran before the Monte Carlo's qubit cap
        assert main(["haar-avg", "--n", "1" + "0" * 400, "--samples", "10"]) == 1
        captured = capsys.readouterr()
        assert "capped at 5 qubits" in captured.err and captured.out == ""


class TestOtherCommands:
    def test_doped_scan(self, tmp_path):
        out = tmp_path / "doped.csv"
        assert main(
            ["doped-scan", "--n", "4", "--tau", "2", "--circuits", "5",
             "--alpha", "2", "--clifford-depth", "24", "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert len(rows) == 5
        for row in rows:
            assert float(row[3]) <= 2.0 + 1e-9

    # recorded from the builders that made one Gate list per block, scored one index at
    # a time; n6-seed11-20 from the builder that drew and mapped one block at a time
    DOPED_PINS = {
        "n6-seed11": (
            ["doped-scan", "--n", "6", "--tau", "3", "--circuits", "4", "--alpha", "0,1,2,inf",
             "--seed", "11"],
            (
                '# tool=opmagic\n'
                '# version=0.1.0\n'
                '# command=doped-scan\n'
                '# params={"alpha": "0,1,2,inf", "circuits": 4, "clifford_depth": null, "n": 6, "seed": 11, "tau": 3}\n'
                'circuit,tau,alpha,ose,rank\n'
                '0,3,0,2.584962500721156,6\n'
                '0,3,1,2.5,6\n'
                '0,3,2,2.415037499278844,6\n'
                '0,3,inf,2.0,6\n'
                '1,3,0,1.0,2\n'
                '1,3,1,1.0,2\n'
                '1,3,2,1.0,2\n'
                '1,3,inf,0.9999999999999997,2\n'
                '2,3,0,2.0,4\n'
                '2,3,1,1.75,4\n'
                '2,3,2,1.5405683813627031,4\n'
                '2,3,inf,1.0000000000000002,4\n'
                '3,3,0,1.584962500721156,3\n'
                '3,3,1,1.4999999999999998,3\n'
                '3,3,2,1.4150374992788437,3\n'
                '3,3,inf,0.9999999999999997,3\n'
            ),
        ),
        "n6-seed11-20": (
            ["doped-scan", "--n", "6", "--tau", "3", "--circuits", "20", "--seed", "11"],
            (
                '# tool=opmagic\n'
                '# version=0.1.0\n'
                '# command=doped-scan\n'
                '# params={"alpha": "2", "circuits": 20, "clifford_depth": null, "n": 6, "seed": 11, "tau": 3}\n'
                'circuit,tau,alpha,ose,rank\n'
                '0,3,2,2.415037499278844,6\n'
                '1,3,2,1.0,2\n'
                '2,3,2,1.5405683813627031,4\n'
                '3,3,2,1.4150374992788437,3\n'
                '4,3,2,1.0,2\n'
                '5,3,2,2.4150374992788444,6\n'
                '6,3,2,2.415037499278844,6\n'
                '7,3,2,0.0,1\n'
                '8,3,2,1.415037499278844,3\n'
                '9,3,2,1.4150374992788437,3\n'
                '10,3,2,1.0,2\n'
                '11,3,2,1.415037499278844,3\n'
                '12,3,2,2.4150374992788435,6\n'
                '13,3,2,1.415037499278844,3\n'
                '14,3,2,1.4150374992788437,3\n'
                '15,3,2,2.0,4\n'
                '16,3,2,1.5405683813627025,4\n'
                '17,3,2,1.0,2\n'
                '18,3,2,1.5405683813627031,4\n'
                '19,3,2,1.0,2\n'
            ),
        ),
        "n70-depth40": (
            ["doped-scan", "--n", "70", "--tau", "2", "--circuits", "2", "--clifford-depth", "40"],
            (
                '# tool=opmagic\n'
                '# version=0.1.0\n'
                '# command=doped-scan\n'
                '# params={"alpha": "2", "circuits": 2, "clifford_depth": 40, "n": 70, "seed": 0, "tau": 2}\n'
                'circuit,tau,alpha,ose,rank\n'
                '0,2,2,0.0,1\n'
                '1,2,2,0.0,1\n'
            ),
        ),
    }

    @pytest.mark.parametrize("name", DOPED_PINS)
    def test_doped_scan_pinned_byte_for_byte(self, capsys, name):
        argv, want = self.DOPED_PINS[name]
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_doped_scan_memory_is_flat_in_the_circuit_count(self):
        # circuits are built, evolved and scored a batch at a time, so the
        # traced peak at 10 batches exceeds that at 2 by no more than what the
        # output itself takes, its rows and its CSV text, and 16 KB
        def peak(work):
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    work()
                return tracemalloc.get_traced_memory()[1], out.getvalue()
            finally:
                tracemalloc.stop()

        def scan(circuits):
            argv = ["doped-scan", "--n", "6", "--tau", "3", "--circuits", str(circuits)]
            used, text = peak(lambda: main(argv))
            # the same rows, held and written as the command holds and writes them
            cells = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
            args = cli.build_parser().parse_args(argv)
            output, again = peak(lambda: cli._emit(args, cells[0], [
                [int(c), int(t), a, float(v), int(r)] for c, t, a, v, r in cells[1:]
            ]))
            assert again == text
            return used, output

        batch = heisenberg._BATCH
        scan(batch)  # first-call caches: the gate table, imports
        small, small_output = scan(2 * batch)
        large, large_output = scan(10 * batch)
        assert large - small <= large_output - small_output + 16 * 1024

    def test_truncate_study(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(3))
        out = tmp_path / "trunc.csv"
        assert main(
            ["truncate-study", "--circuit", circuit, "--seed-op", "XXX",
             "--out", str(out)]
        ) == 0
        rows = read_csv_rows(out)[1:]
        assert len(rows) == 8  # rank 2^3
        last = rows[-1]
        assert float(last[3]) == pytest.approx(0.0, abs=1e-12)  # eps at full rank

    def test_truncate_study_state_bound_covers_the_ghz_witness(self, tmp_path):
        # RZ(0.1) on each of 6 sites from XXXXXX, chi = 7: the GHZ state, a
        # stabilizer state, sees an error above hs_bound and below state_bound
        import numpy as np

        from opmagic import PauliString, evolve_heisenberg, truncate_top
        from opmagic.dense import operator_matrix

        rz = Circuit(6, tuple(Gate("RZ", (q,), 0.1) for q in range(6)))
        circuit = write_circuit(tmp_path, rz)
        out = tmp_path / "trunc.csv"
        assert main(["truncate-study", "--circuit", circuit, "--seed-op", "XXXXXX",
                     "--chi", "7", "--out", str(out)]) == 0
        header, row = read_csv_rows(out)
        assert header == ["chi", "kept_terms", "kept_weight", "epsilon", "hs_bound", "state_bound"]
        hs_bound, state_bound = float(row[4]), float(row[5])
        evolved = evolve_heisenberg(SparseOperator.from_pauli(PauliString.from_label("XXXXXX")), rz)
        kept = truncate_top(evolved, 7).choi_normalized()
        ghz = np.zeros(64)
        ghz[[0, 63]] = math.sqrt(0.5)
        error = abs(ghz @ (operator_matrix(evolved) - operator_matrix(kept)) @ ghz)
        assert error == pytest.approx(0.533, abs=5e-4)
        assert hs_bound == pytest.approx(0.1555, abs=5e-5)
        assert state_bound == pytest.approx(0.739, abs=5e-4)
        assert hs_bound < error < state_bound

    def test_truncate_study_ranks_once(self, tmp_path, monkeypatch):
        from opmagic import paulis

        calls = []
        ranked_cuts = paulis._ranked_cuts
        monkeypatch.setattr(paulis, "_ranked_cuts", lambda *a: calls.append(1) or ranked_cuts(*a))
        circuit = write_circuit(tmp_path, t_ladder(4))
        out = tmp_path / "trunc.csv"
        assert main(
            ["truncate-study", "--circuit", circuit, "--seed-op", "XXXX", "--out", str(out)]
        ) == 0
        assert len(read_csv_rows(out)[1:]) == 16
        assert len(calls) == 1

    def test_nullity(self, tmp_path):
        circuit = write_circuit(tmp_path, Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
        out = tmp_path / "null.csv"
        assert main(["nullity", "--circuit", circuit, "--out", str(out)]) == 0
        (row,) = read_csv_rows(out)[1:]
        assert int(row[0]) == 4 and float(row[1]) == 2.0
        assert float(row[2]) <= float(row[3]) + 1e-9

    def test_nullity_with_sre_side(self, tmp_path):
        circuit = write_circuit(tmp_path, Circuit(2, (Gate("T", (0,)), Gate("T", (1,)))))
        out = tmp_path / "null.csv"
        assert main(
            ["nullity", "--circuit", circuit, "--sre-samples", "4", "--out", str(out)]
        ) == 0
        header, row = read_csv_rows(out)
        assert header[-2:] == ["avg_linear_sre", "sre_over_ose"]
        assert float(row[4]) > 0.0

    def test_json_format(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(2))
        out = tmp_path / "o.json"
        assert main(
            ["ose", "--circuit", circuit, "--seed-op", "XX",
             "--format", "json", "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["tool"] == "opmagic" and data["rows"][0][2] == pytest.approx(2.0)


class TestExitCodes:
    def test_missing_file_is_bad_input(self, tmp_path, capsys):
        assert main(["ose", "--circuit", str(tmp_path / "nope.json"), "--seed-op", "X0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_is_bad_input(self, capsys):
        assert main(["ose", "--nonsense"]) == 1

    def test_bad_seed_op(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, t_ladder(2))
        assert main(["ose", "--circuit", circuit, "--seed-op", "Q9"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "opmagic" in capsys.readouterr().out

    def test_qubits_line_without_count(self, tmp_path, capsys):
        path = tmp_path / "circ.txt"
        path.write_text("qubits\nT 0\n")
        assert main(["ose", "--circuit", str(path), "--seed-op", "X0"]) == 1
        assert "qubits N" in capsys.readouterr().err

    def test_second_qubits_line(self, tmp_path, capsys):
        # the file must not run on whichever count comes last
        path = tmp_path / "circ.txt"
        path.write_text("qubits 4\nT 0\nqubits 2\nH 1\n")
        assert main(["ose", "--circuit", str(path), "--seed-op", "X0"]) == 1
        captured = capsys.readouterr()
        assert "second 'qubits' line 'qubits 2'" in captured.err and captured.out == ""

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_in_text(self, tmp_path, capsys, angle):
        path = tmp_path / "circ.txt"
        path.write_text(f"qubits 1\nRZ 0 {angle}\n")
        out = tmp_path / "op.json"
        assert main(["evolve", "--circuit", str(path), "--seed-op", "X", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_angle_in_json(self, tmp_path, capsys):
        path = tmp_path / "circ.json"
        path.write_text('{"n": 1, "gates": [{"kind": "RZ", "sites": [0], "theta": NaN}]}')
        assert main(["evolve", "--circuit", str(path), "--seed-op", "X"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, field",
        [
            ('{"n": 2, "gates": [{"kind": "H", "sites": [0.5]}]}', "H site must"),
            ('{"n": 2, "gates": [{"kind": "H", "sites": "0"}]}', "H sites must"),
            ('{"n": 2, "gates": [{"kind": "CNOT", "sites": [0, 1.0]}]}', "CNOT site must"),
            ('{"n": 2, "gates": 5}', "gates must"),
            ('{"n": 2, "gates": [5]}', "a gate must"),
            ('{"n": null, "gates": []}', "count n must"),
            ('{"n": 2, "gates": [{"kind": "RZ", "sites": [0], "theta": [1]}]}', "theta must"),
            ('{"n": 2.7, "gates": [{"kind": "H", "sites": [0]}]}', "count n must"),
            ('{"n": 2, "gates": [{"kind": "H", "sites": [true]}]}', "H site must"),
        ],
    )
    def test_malformed_json_circuit(self, tmp_path, capsys, body, field):
        path = tmp_path / "circ.json"
        path.write_text(body)
        assert main(["ose", "--circuit", str(path), "--seed-op", "XX"]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"gates": []}', "a circuit is missing the field 'n'"),
            ('{"n": 2, "gates": [{"sites": [0]}]}', "a gate is missing the field 'kind'"),
            ('{"n": 2, "gates": [{"kind": "H"}]}', "a gate is missing the field 'sites'"),
        ],
    )
    def test_json_circuit_missing_field(self, tmp_path, capsys, body, message):
        path = tmp_path / "circ.json"
        path.write_text(body)
        assert main(["ose", "--circuit", str(path), "--seed-op", "XX"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["xxz-scan", "--J", "0.3", "--t", "5..1"], "--t '5..1' gives an empty list"),
            (["haar-avg", "--n", "2", "--alpha", ","], "--alpha ',' gives an empty list"),
            (["truncate-study", "--chi", "5..1"], "--chi '5..1' gives an empty list"),
            (["doped-scan", "--n", "4", "--tau", "1", "--circuits", "0"], "--circuits must be at least 1"),
            (["doped-scan", "--n", "4", "--tau", "1", "--circuits", "-2"], "--circuits must be at least 1"),
            (["doped-scan", "--n", "0", "--tau", "1"], "qubit count n must be positive"),
            (["xxz-scan", "--J", "0.3", "--t", "1..x"], "--t '1..x' is not a list or range of integers"),
            (["truncate-study", "--chi", "2,x"], "--chi '2,x' is not a list or range of integers"),
        ],
        ids=["t-range", "alpha-list", "chi-range", "circuits-0", "circuits-negative", "n-0",
             "t-not-integer", "chi-not-integer"],
    )
    def test_empty_result_is_bad_input(self, tmp_path, capsys, argv, message):
        if argv[0] == "truncate-study":
            argv = argv + ["--circuit", write_circuit(tmp_path, t_ladder(2)), "--seed-op", "XI"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    # sizes whose arrays (745 GiB, 7.3 TiB) are refused at once; never a size that could be granted
    @pytest.mark.parametrize(
        "argv",
        [
            ["doped-scan", "--n", "3", "--tau", "100000000000"],
            ["haar-avg", "--n", "2", "--samples", "1000000000000", "--alpha", "2"],
        ],
        ids=["doped-tau", "haar-samples"],
    )
    def test_size_that_cannot_be_allocated_is_bad_input(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"opmagic: error: {argv[0]}: not enough memory" in captured.err
        assert "internal error" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, call",
        [
            (["haar-avg", "--n", "0"], lambda: haar.mc_average_purities(0, [2.0], 2000)),
            (["haar-avg", "--n", "-2"], lambda: haar.mc_average_purities(-2, [2.0], 2000)),
            (["haar-avg", "--n", "1", "--samples", "2000", "--workers", "2001"],
             lambda: haar.mc_average_purities(1, [2.0], 2000, workers=2001)),
            (["doped-scan", "--n", "3", "--tau", "1", "--clifford-depth", "0"],
             lambda: heisenberg.doped_circuit(3, 1, 0)),
        ],
        ids=["haar-n-0", "haar-n-negative", "haar-workers-past-samples", "doped-clifford-depth-0"],
    )
    def test_size_rule_message_is_the_library_s(self, capsys, argv, call):
        # the CLI does not check these sizes again: the library's own message is all of stderr
        with pytest.raises(ValueError) as library:
            call()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"opmagic: error: {library.value}\n"

    def test_negative_sre_samples_is_bad_input(self, tmp_path, capsys):
        circuit = write_circuit(tmp_path, t_ladder(2))
        assert main(["nullity", "--circuit", circuit, "--sre-samples", "-3"]) == 1
        captured = capsys.readouterr()
        assert "--sre-samples must be at least 0, got -3" in captured.err and captured.out == ""
        assert main(["nullity", "--circuit", circuit, "--sre-samples", "0"]) == 0
        assert "avg_linear_sre" not in capsys.readouterr().out

    def test_nan_alpha_is_bad_input(self, tmp_path, capsys):
        # the index owners reject nan; the CLI parses it like any float
        circuit = write_circuit(tmp_path, t_ladder(2))
        for argv in (["ose", "--circuit", circuit, "--seed-op", "XX"],
                     ["haar-avg", "--n", "2", "--samples", "10"],
                     ["doped-scan", "--n", "3", "--tau", "1", "--circuits", "2"],
                     ["xxz-scan", "--J", "0.3", "--t", "1..2"]):
            assert main([*argv, "--alpha", "nan"]) == 1, argv
            captured = capsys.readouterr()
            assert "nan" in captured.err and captured.out == "", argv

    @pytest.mark.parametrize("alpha", ["-inf", "-1e3"])
    def test_a_value_with_a_leading_dash_reaches_its_check(self, tmp_path, capsys, alpha):
        # only '--' tokens and registered options are options: the value
        # meets the index check, while -h and a missing value keep theirs
        circuit = write_circuit(tmp_path, t_ladder(2))
        argv = ["ose", "--circuit", circuit, "--seed-op", "XX", "--alpha"]
        assert main([*argv, alpha]) == 1
        captured = capsys.readouterr()
        assert "alpha must be non-negative" in captured.err and captured.out == ""
        assert main(argv) == 1
        assert "argument --alpha: expected one argument" in capsys.readouterr().err
        assert main(["ose", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: opmagic ose")

    def test_negated_seed_op_is_a_value(self, tmp_path):
        circuit = write_circuit(tmp_path, t_ladder(2))
        plus, minus = tmp_path / "plus.json", tmp_path / "minus.json"
        for seed_op, out in (("XX", plus), ("-XX", minus)):
            assert main(["evolve", "--circuit", circuit, "--seed-op", seed_op, "--out", str(out)]) == 0
        plus, minus = (SparseOperator.from_json_dict(json.loads(p.read_text())["operator"]) for p in (plus, minus))
        assert [(p, -a) for p, a in plus] == list(minus)

    def test_seed_coefficient_in_exponent_form_with_a_leading_dash(self, tmp_path):
        rows = {}
        for ax in ("-6e-1", "0.6"):
            out = tmp_path / "xxz.csv"
            argv = ["xxz-scan", "--J", "0.3", "--t", "2", "--ax", ax, "--ay", "0.8", "--out", str(out)]
            assert main(argv) == 0
            header, row = read_csv_rows(out)
            rows[ax] = dict(zip(header, row))
        assert rows["-6e-1"]["a_x"] == "-0.6"
        assert rows["-6e-1"]["closed"] == rows["0.6"]["closed"]

    def test_gate_text_circuit_accepted(self, tmp_path):
        path = tmp_path / "circ.txt"
        path.write_text("qubits 2\nT 0\nRZZ 0 1 pi/8\n")
        out = tmp_path / "ose.csv"
        assert main(
            ["ose", "--circuit", str(path), "--seed-op", "XI", "--out", str(out)]
        ) == 0

    @pytest.mark.parametrize(
        "body, argv, needle",
        [
            ('{"n": 1, "gates": [{"kind": "RZ", "sites": [0], "theta": BIG}]}',
             ["ose", "--seed-op", "X"], "gate theta BIG is past the float range"),
            ('{"n": BIG, "gates": []}', ["ose", "--seed-op", "X0"], "qubit count n must be at most"),
            ("qubits BIG\nH 0\n", ["ose", "--seed-op", "X0"], "qubit count n must be at most"),
            (None, ["xxz-scan", "--J", "0.3", "--t", "1..BIG"], "--t '1..BIG' spans more than"),
            ("qubits 1\nH 0\n", ["truncate-study", "--seed-op", "X0", "--chi", "1..BIG"],
             "--chi '1..BIG' spans more than"),
        ],
        ids=["json-theta", "json-n", "text-qubits", "t-range", "chi-range"],
    )
    def test_huge_integer_is_bad_input(self, tmp_path, capsys, body, argv, needle):
        # float(), a list of n letters and list(range()) raised OverflowError
        big = "1" + "0" * 400
        argv = [arg.replace("BIG", big) for arg in argv]
        if body is not None:
            path = tmp_path / "circ.txt"
            path.write_text(body.replace("BIG", big))
            argv += ["--circuit", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert needle.replace("BIG", big) in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["xxz-scan", "--J", "0.3", "--t", "BIG"], "t must be a non-negative integer in the float range"),
            *((["doped-scan", "--n", size, "--tau", "1"], "qubit count n must be at most") for size in ("BIG", "P62")),
            *((["doped-scan", "--n", "3", "--tau", size], "tau must be an integer in 0..") for size in ("BIG", "P62")),
            *((["doped-scan", "--n", "3", "--tau", "1", "--clifford-depth", size], "Clifford depth must be in 1..")
              for size in ("BIG", "P62")),
            *((["haar-avg", "--n", "2", "--samples", size], "n_samples must be at most") for size in ("BIG", "P62")),
            (["doped-scan", "--n", "3", "--tau", "1", "--seed", "-1"], "--seed: must be a non-negative integer"),
            (["haar-avg", "--n", "2", "--seed", "-1"], "--seed: must be a non-negative integer"),
            (["nullity", "--circuit", "CIRCUIT", "--seed", "-1"], "--seed: must be a non-negative integer"),
        ],
        ids=["xxz-t", "doped-n-big", "doped-n-2^62", "doped-tau-big", "doped-tau-2^62", "doped-depth-big",
             "doped-depth-2^62", "haar-samples-big", "haar-samples-2^62", "doped-seed", "haar-seed", "nullity-seed"],
    )
    def test_size_past_the_arrays_is_named(self, tmp_path, capsys, argv, needle):
        # numpy's own words ('high is out of bounds for int64', 'array is too
        # big', 'expected non-negative integer') named no option, and a t past
        # the float range raised OverflowError
        path = tmp_path / "circ.txt"
        path.write_text("qubits 1\nH 0\n")
        subs = {"BIG": "1" + "0" * 400, "P62": str(2**62), "CIRCUIT": str(path)}
        argv = [subs.get(arg, arg) for arg in argv]
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert needle in captured.err and captured.out == ""

    def test_largest_float_t_still_evaluates(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert main(["xxz-scan", "--J", "0.3", "--t", str(2**62), "--out", str(out)]) == 0
        header, row = read_csv_rows(out)
        assert dict(zip(header, row))["closed"] == "3.7908724839880934e+18"

    def test_trailing_tokens_in_text_circuit(self, tmp_path, capsys):
        path = tmp_path / "circ.txt"
        path.write_text("qubits 1\nRZ 0 0.3 junk\n")
        out = tmp_path / "op.json"
        assert main(["evolve", "--circuit", str(path), "--seed-op", "X", "--out", str(out)]) == 1
        assert "RZ 0 0.3 junk" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,needles",
        [
            ("qubits two\nH 0\n", ["qubit count", "'two'", "'qubits two'"]),
            ("qubits 2\nH x\n", ["site", "'x'", "'H x'"]),
            ("qubits 2\nCNOT 0 1.5\n", ["site", "'1.5'", "'CNOT 0 1.5'"]),
        ],
    )
    def test_non_integer_field_in_text_circuit(self, tmp_path, capsys, text, needles):
        path = tmp_path / "circ.txt"
        path.write_text(text)
        assert main(["ose", "--circuit", str(path), "--seed-op", "XX"]) == 1
        err = capsys.readouterr().err
        assert all(needle in err for needle in needles), err

    @pytest.mark.parametrize(
        "argv,needles",
        [
            (["xxz-scan", "--J", "0.3", "--t", "1", "--alpha", "0"], ["alpha must be positive"]),
            (["haar-avg", "--n", "1", "--samples", "1"], ["at least 2 samples"]),
            (["haar-avg", "--n", "1", "--samples", "20", "--workers", "0"], ["workers must be positive"]),
        ],
    )
    def test_out_of_range_counts_and_indices(self, argv, needles, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert all(needle in err for needle in needles), err

    def test_negative_alpha_in_haar_avg(self, capsys):
        assert main(["haar-avg", "--n", "2", "--alpha", "-1", "--samples", "50"]) == 1
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2,-1", "0,-inf"])
    def test_negative_alpha_in_the_ose_scans(self, tmp_path, capsys, alpha):
        path = write_circuit(tmp_path, t_ladder(2))
        for argv in (["ose", "--circuit", path, "--seed-op", "XX"],
                     ["doped-scan", "--n", "3", "--tau", "1", "--circuits", "2"]):
            assert main([*argv, "--alpha", alpha]) == 1
            captured = capsys.readouterr()
            assert "non-negative" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["doped-scan", "--n", "3", "--tau", "1", "--circuits", "1"],
            ["nullity", "--circuit", "c.txt"],
        ],
    )
    def test_workers_only_on_haar_avg(self, argv, capsys):
        assert main([*argv, "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err


# One invocation per command and the provenance it wrote when each command
# listed its parameters by hand: the CSV `# params=` line and the JSON
# `params` object, key order included.
PROVENANCE = {
    "evolve": (
        ["--circuit", "c.txt", "--seed-op", "X0"],
        None,
        '{"circuit": "c.txt", "seed_op": "X0"}',
    ),
    "ose": (
        ["--circuit", "c.txt", "--seed-op", "X0", "--alpha", "1,inf"],
        '# params={"alpha": "1,inf", "circuit": "c.txt", "seed_op": "X0"}',
        '{"circuit": "c.txt", "seed_op": "X0", "alpha": "1,inf"}',
    ),
    "xxz-scan": (
        ["--J", "pi/8", "--t", "1..2", "--ax", "0.6", "--az", "0.8"],
        '# params={"J": "pi/8", "alpha": "2", "ax": 0.6, "ay": 0.0, "az": 0.8, "simulate": false, "t": "1..2"}',
        '{"J": "pi/8", "t": "1..2", "alpha": "2", "ax": 0.6, "ay": 0.0, "az": 0.8, "simulate": false}',
    ),
    "haar-avg": (
        ["--n", "1", "--samples", "20", "--seed", "3", "--workers", "2"],
        '# params={"alpha": "2", "n": 1, "samples": 20, "seed": 3, "workers": 2}',
        '{"n": 1, "alpha": "2", "samples": 20, "seed": 3, "workers": 2}',
    ),
    "doped-scan": (
        ["--n", "3", "--tau", "1", "--circuits", "2", "--seed", "5"],
        '# params={"alpha": "2", "circuits": 2, "clifford_depth": null, "n": 3, "seed": 5, "tau": 1}',
        '{"n": 3, "tau": 1, "circuits": 2, "alpha": "2", "clifford_depth": null, "seed": 5}',
    ),
    "truncate-study": (
        ["--circuit", "c.txt", "--seed-op", "X0", "--chi", "1..2"],
        '# params={"chi": "1..2", "circuit": "c.txt", "seed_op": "X0"}',
        '{"circuit": "c.txt", "seed_op": "X0", "chi": "1..2"}',
    ),
    "nullity": (
        ["--circuit", "c.txt", "--sre-samples", "2", "--seed", "4"],
        '# params={"circuit": "c.txt", "seed": 4, "sre_samples": 2}',
        '{"circuit": "c.txt", "sre_samples": 2, "seed": 4}',
    ),
}


@pytest.mark.parametrize("command", sorted(PROVENANCE))
def test_provenance_params_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.txt").write_text("qubits 2\nH 0\nCNOT 0 1\nT 1\n")
    rest, csv_line, json_params = PROVENANCE[command]
    if csv_line is not None:
        assert main([command, *rest]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("# params=")] == [csv_line]
        rest = [*rest, "--format", "json"]
    assert main([command, *rest]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == command
    assert json.dumps(data["params"]) == json_params


class TestEntryPoint:
    """`python -m opmagic` as a process: the exit codes the shell sees."""

    @staticmethod
    def run(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run([sys.executable, "-m", "opmagic", *argv], capture_output=True, text=True, env=env)

    def test_version_exits_zero(self):
        from opmagic import __version__

        done = self.run("--version")
        assert done.returncode == 0
        assert __version__ in done.stdout

    def test_unknown_option_exits_one(self):
        done = self.run("ose", "--nonsense")
        assert done.returncode == 1
        assert done.stderr.startswith("opmagic: error:")
